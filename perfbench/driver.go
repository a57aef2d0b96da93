package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one completed operation as the client saw it.
type sample struct {
	o      *op
	lat    time.Duration // from due time (open loop) or send (closed loop)
	lag    time.Duration // open loop: send − due
	err    error
	timing map[string]float64 // Server-Timing, ms by entry name
	shard  string
}

// client sends ops to one tier and checks every answer against the
// checker.
type client struct {
	hc     *http.Client
	base   string
	check  *checker
	timing bool // parse Server-Timing
}

func newClient(base string, conns int, ck *checker) *client {
	return &client{
		hc:    &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns, DisableCompression: true}},
		base:  base,
		check: ck,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends o and returns its sample (lat measured from send).
func (c *client) do(ctx context.Context, o *op) sample {
	start := time.Now()
	s := sample{o: o}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+o.path, bytes.NewReader(o.body))
	if err != nil {
		s.err = err
		return s
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		s.err = err
		s.lat = time.Since(start)
		return s
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.lat = time.Since(start)
	if err != nil {
		s.err = err
		return s
	}
	if c.timing {
		s.timing = parseServerTiming(resp.Header.Values("Server-Timing"))
		s.shard = resp.Header.Get("X-Shard")
	}
	c.check.remember(o)
	d, err := digest(o, resp.StatusCode, body)
	if err == nil {
		err = c.check.record(o.spec, d)
	}
	s.err = err
	return s
}

// digest reduces a response to the bytes every answer to the same spec
// must share: the envelope's or terminal frame's result, or — for a
// batch, whose summary carries wall time — every item's result and
// error code in order. Non-2xx statuses and in-band error frames fail.
func digest(o *op, status int, body []byte) ([32]byte, error) {
	var zero [32]byte
	if status/100 != 2 {
		return zero, fmt.Errorf("%s: HTTP %d: %.200s", o.path, status, body)
	}
	if !o.stream {
		var env struct {
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(body, &env); err != nil || len(env.Result) == 0 {
			return zero, fmt.Errorf("%s: malformed envelope: %v", o.path, err)
		}
		return sha256.Sum256(env.Result), nil
	}
	h := sha256.New()
	var last string
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		var fr struct {
			Kind   string          `json:"kind"`
			Result json.RawMessage `json:"result"`
			Error  *struct {
				Code string `json:"code"`
			} `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &fr); err != nil {
			return zero, fmt.Errorf("%s: malformed frame: %v", o.path, err)
		}
		last = fr.Kind
		switch {
		case fr.Kind == "error":
			return zero, fmt.Errorf("%s: in-band error frame: %.200s", o.path, sc.Bytes())
		case o.kind == "batch" && fr.Kind == "progress":
			h.Write(fr.Result)
			if fr.Error != nil {
				fmt.Fprintf(h, "error:%s", fr.Error.Code)
			}
			h.Write([]byte{'\n'})
		case o.kind != "batch" && fr.Kind == "result":
			h.Write(fr.Result)
		}
	}
	if err := sc.Err(); err != nil {
		return zero, err
	}
	if last != "result" {
		return zero, fmt.Errorf("%s: stream ended without a result frame", o.path)
	}
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d, nil
}

// parseServerTiming sums "name;dur=ms" entries across header values.
func parseServerTiming(vals []string) map[string]float64 {
	m := map[string]float64{}
	for _, v := range vals {
		for _, e := range strings.Split(v, ",") {
			name, params, _ := strings.Cut(strings.TrimSpace(e), ";")
			for _, p := range strings.Split(params, ";") {
				if d, ok := strings.CutPrefix(strings.TrimSpace(p), "dur="); ok {
					if f, err := strconv.ParseFloat(d, 64); err == nil {
						m[name] += f
					}
				}
			}
		}
	}
	return m
}

// cursor hands out a sequence's ops in order, wrapping at the end.
type cursor struct {
	ops []*op
	i   atomic.Int64
}

func (c *cursor) next() *op { return c.ops[int(c.i.Add(1)-1)%len(c.ops)] }

// closedLoop runs clients goroutines that each send the next op as soon
// as their previous one completes, until d elapses; it returns every
// sample and the wall time from start to the last completion.
func closedLoop(ctx context.Context, c *client, clients int, d time.Duration, next func() *op) ([]sample, time.Duration) {
	start := time.Now()
	deadline := start.Add(d)
	out := make([][]sample, clients)
	ends := make([]time.Time, clients)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				out[w] = append(out[w], c.do(ctx, next()))
				ends[w] = time.Now()
			}
		}(w)
	}
	wg.Wait()
	var all []sample
	last := start
	for w := range out {
		all = append(all, out[w]...)
		if ends[w].After(last) {
			last = ends[w]
		}
	}
	return all, last.Sub(start)
}

// openLoop sends ops at Poisson arrival times of the given mean rate for
// d, with at most inflight outstanding. Latency runs from each
// request's due time, so a stall also delays, and is charged to, the
// requests queued behind it; lag is how late each was actually sent.
func openLoop(ctx context.Context, c *client, inflight int, d time.Duration, rate float64, seed uint64, next func() *op) []sample {
	r := rand.New(rand.NewPCG(seed, 0x6f70656e)) // "open"
	var due []time.Duration
	for t := 0.0; ; {
		t += r.ExpFloat64() / rate
		if t >= d.Seconds() {
			break
		}
		due = append(due, time.Duration(t*float64(time.Second)))
	}
	start := time.Now()
	out := make([]sample, len(due))
	var idx atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < inflight; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(idx.Add(1) - 1)
				if i >= len(due) || ctx.Err() != nil {
					return
				}
				at := start.Add(due[i])
				if wait := time.Until(at); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Now()
				s := c.do(ctx, next())
				s.lag = sent.Sub(at)
				s.lat = time.Since(at)
				out[i] = s
			}
		}()
	}
	wg.Wait()
	return out
}

// chunks splits ss into k consecutive groups of near-equal size.
func chunks(ss []sample, k int) [][]sample {
	k = max(1, min(k, len(ss)))
	out := make([][]sample, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, ss[i*len(ss)/k:(i+1)*len(ss)/k])
	}
	return out
}

// quantile is the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// failures counts failed samples and keeps the first few messages.
func failures(ss []sample, msgs *[]string) int {
	n := 0
	for _, s := range ss {
		if s.err != nil {
			n++
			if len(*msgs) < 5 {
				*msgs = append(*msgs, s.err.Error())
			}
		}
	}
	return n
}

var errMismatch = errors.New("result differs from an earlier answer to the same spec")
