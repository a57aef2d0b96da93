package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/ccnet/ccnet/internal/reqtrace"
	"github.com/ccnet/ccnet/internal/routertest"
	"github.com/ccnet/ccnet/internal/service"
)

// stack is one running system under test on loopback: a single direct
// ccserved, or the router with its replicas.
type stack struct {
	base     string   // where clients send requests
	replicas []string // each service's base URL, for scraping
	router   string   // router base URL, "" when direct
	close    func()
}

// startDirect serves one service on a loopback socket. The benchmark
// takes the documented defaults; tracer is nil except in traced runs.
func startDirect(tracer *reqtrace.Tracer) (*stack, error) {
	svc := service.New(service.Options{Tracer: tracer})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: svc.Handler()}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // returns http.ErrServerClosed on Close
	}()
	base := "http://" + ln.Addr().String()
	return &stack{base: base, replicas: []string{base}, close: func() { srv.Close(); <-done }}, nil
}

// replicas is the routed tier's fleet size K.
const replicas = 3

// startRouted runs the router in front of the replicas with the harness
// defaults.
func startRouted(traced bool, seed uint64) (*stack, error) {
	cfg := routertest.Config{Replicas: replicas}
	if traced {
		cfg.Trace, cfg.TraceRate, cfg.TraceSeed = true, 1, seed
	}
	c, err := routertest.Start(cfg)
	if err != nil {
		return nil, err
	}
	st := &stack{base: c.BaseURL(), router: c.BaseURL(), close: c.Close}
	for i := 0; i < cfg.Replicas; i++ {
		st.replicas = append(st.replicas, c.ReplicaURL(i))
	}
	return st, nil
}

// counters are the tiers' own counters, read over HTTP: /v1/stats and
// /metrics of every replica, /metrics of the router.
type counters map[string]float64

func get(hc *http.Client, url string) ([]byte, error) {
	resp, err := hc.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return b, err
}

// scrape sums each replica's /v1/stats counters and every *_total
// series of every tier's /metrics (labels folded).
func (st *stack) scrape(hc *http.Client) (counters, error) {
	c := counters{}
	for _, base := range st.replicas {
		b, err := get(hc, base+"/v1/stats")
		if err != nil {
			return nil, err
		}
		var s service.StatsResult
		if err := json.Unmarshal(b, &s); err != nil {
			return nil, fmt.Errorf("/v1/stats: %w", err)
		}
		c["stats.requests"] += float64(s.Evaluates + s.Sweeps + s.Campaigns + s.Batches + s.Optimizes + s.Perfabs + s.FleetSims)
		c["stats.cache.hits"] += float64(s.Cache.Hits)
		c["stats.cache.misses"] += float64(s.Cache.Misses)
		c["stats.cache.evictions"] += float64(s.Cache.Evictions)
		c["stats.computes"] += float64(s.Computes)
		c["stats.coalesced"] += float64(s.Coalesced)
		c["stats.failures"] += float64(s.Failures)
	}
	urls := append([]string(nil), st.replicas...)
	if st.router != "" {
		urls = append(urls, st.router)
	}
	for _, base := range urls {
		b, err := get(hc, base+"/metrics")
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(strings.NewReader(string(b)))
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "#") {
				continue
			}
			name, rest, _ := strings.Cut(line, " ")
			name, _, _ = strings.Cut(name, "{")
			if strings.Contains(line, "{") {
				_, rest, _ = strings.Cut(line, "} ")
			}
			if !strings.HasSuffix(name, "_total") {
				continue
			}
			if v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64); err == nil {
				c[name] += v
			}
		}
	}
	return c, nil
}

// delta is after − before for every counter.
func delta(before, after counters) counters {
	d := counters{}
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// waitHealthy polls the front tier's /v1/healthz.
func (st *stack) waitHealthy(hc *http.Client) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, err := get(hc, st.base+"/v1/healthz")
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return err
		}
		time.Sleep(10 * time.Millisecond)
	}
}
