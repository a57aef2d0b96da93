package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// workloadNames are the workloads BENCHMARK.json declares.
var workloadNames = []string{"hot-direct", "cold-routed"}

// openRate is each workload's open-loop Poisson arrival rate in
// requests/s, frozen at about a third of its closed-loop throughput_rps
// measured when the benchmark was defined (2-vCPU x86-64 VM, go1.24).
// At 60% the latency quantiles varied by 15–50% of their median from
// seed to seed there.
var openRate = map[string]float64{
	"hot-direct":  2200,
	"cold-routed": 1500,
}

// setupReps is how many times a run builds its stack; setup_s is the
// median and the last stack is the one measured.
const setupReps = 25

// rounds is how many rounds of closed-loop and open-loop slices a run
// alternates. Interleaving spreads both kinds of figure over the whole
// run, so a slow spell of the host lands on both and on only some
// rounds of each.
const rounds = 20

// stealLimit is the share of the host's CPU time the hypervisor may
// steal during a round before the round is left out of the medians
// (see kept).
const stealLimit = 0.02

// round is one round's raw observations.
type round struct {
	closed  []sample      // closed-loop slice
	closedT time.Duration // its start to its last completion
	traced  []sample      // traced runs: the same requests on the traced stack
	tracedT time.Duration
	open    []sample // open-loop slice, in due order
	ops     int      // operations completed in the round
	cpu     time.Duration
	steal   float64 // share of the host's CPU time stolen during the round
}

// run is one workload run's raw observations.
type run struct {
	p       *plan
	clients int
	seed    uint64
	phase   time.Duration // closed-loop time of a run; open-loop and traced slices each take as long again

	st  *stack
	cl  *client
	ck  *checker
	own *tracedPhase // traced runs: a traced copy of the stack
	tr  tracedOut    // traced runs: operations sent outside the untraced phases

	setups []float64 // seconds per set-up
	warm   []sample  // set-up requests (checked, not timed)
	rounds []round

	before, aft counters
	rtClosed    []float64 // runtime counter deltas summed over the closed slices

	groups map[string][]float64 // per-round values behind the medians
}

// stealTicks reads the host's stolen and total CPU ticks from the first
// line of /proc/stat; both are 0 where it cannot be read, and then no
// round counts as stolen.
func stealTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i := 1; i <= 8; i++ { // user nice system idle iowait irq softirq steal
		v, _ := strconv.ParseUint(f[i], 10, 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeNames are the Go runtime counters behind the go.* metrics.
var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func rtValue(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return math.NaN()
}

// sendAll answers ops with clients goroutines, each op once.
func sendAll(ctx context.Context, c *client, clients int, ops []*op) []sample {
	cur := &cursor{ops: ops}
	out := make([]sample, len(ops))
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cur.i.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				out[i] = c.do(ctx, ops[i])
			}
		}()
	}
	wg.Wait()
	return out
}

// startStack builds the workload's system under test and warms it until
// the first timed request could go out: hot-direct fills the cache with
// its hot pool, cold-routed opens its connections with requests outside
// the sequence.
func (r *run) startStack(ctx context.Context, traced, routed bool) (*stack, *client, []sample, error) {
	var st *stack
	var err error
	if routed {
		st, err = startRouted(traced, r.seed)
	} else {
		st, err = startDirect(directTracer(traced, r.seed))
	}
	if err != nil {
		return nil, nil, nil, err
	}
	cl := newClient(st.base, r.clients, r.ck)
	if err := st.waitHealthy(cl.hc); err != nil {
		st.close()
		return nil, nil, nil, err
	}
	warm := append(append([]*op(nil), r.p.pool...), r.p.warm...)
	return st, cl, sendAll(ctx, cl, r.clients, warm), nil
}

// setup builds the stack setupReps times, timing each, and keeps the
// last one.
func (r *run) setup(ctx context.Context) error {
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		st, cl, warm, err := r.startStack(ctx, false, r.p.workload == "cold-routed")
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		r.setups = append(r.setups, time.Since(t0).Seconds())
		r.warm = append(r.warm, warm...)
		if i < setupReps-1 {
			cl.close()
			st.close()
			continue
		}
		r.st, r.cl = st, cl
	}
	return nil
}

// measure runs the timed phases: rounds of a closed-loop slice and an
// open-loop slice at the workload's frozen rate, r.phase/rounds each. A
// traced run also builds a traced copy of the stack and, in every round,
// sends it the same requests as the untraced closed-loop slice, for as
// long.
func (r *run) measure(ctx context.Context, traced bool) error {
	var err error
	if r.before, err = r.st.scrape(r.cl.hc); err != nil {
		return err
	}
	if traced {
		if r.own, err = r.startTraced(ctx, r.p.workload == "cold-routed"); err != nil {
			return err
		}
	}
	light := &cursor{ops: r.p.seq}
	d := r.phase / rounds
	r.rtClosed = make([]float64, len(runtimeNames))
	for i := 0; i < rounds; i++ {
		var rd round
		steal0, total0 := stealTicks()
		cpu0 := cpuTime()
		at := light.i.Load()
		rt0 := readRuntime()
		rd.closed, rd.closedT = closedLoop(ctx, r.cl, r.clients, d, light.next)
		for j, s := range readRuntime() {
			r.rtClosed[j] += rtValue(s) - rtValue(rt0[j])
		}
		if r.own != nil {
			same := &cursor{ops: r.p.seq}
			same.i.Store(at)
			rd.traced, rd.tracedT = closedLoop(ctx, r.own.cl, r.clients, d, same.next)
			r.own.add(rd.traced)
		}
		rd.open = openLoop(ctx, r.cl, r.clients, d, openRate[r.p.workload], r.seed+uint64(i), light.next)
		rd.cpu = cpuTime() - cpu0
		rd.ops = len(rd.closed) + len(rd.traced) + len(rd.open)
		if steal1, total1 := stealTicks(); total1 > total0 {
			rd.steal = float64(steal1-steal0) / float64(total1-total0)
		}
		r.rounds = append(r.rounds, rd)
	}
	r.aft, err = r.st.scrape(r.cl.hc)
	return err
}

// kept is the rounds the medians are taken over: those in which the
// hypervisor stole at most stealLimit of the host's CPU time or, when
// fewer than half are, the half with the least steal. A spell of steal
// slows both the servers and the load generator, and moves a run's
// figures by up to 40%; it says nothing about the program.
func (r *run) kept() []int {
	var clean, all []int
	for i, rd := range r.rounds {
		all = append(all, i)
		if rd.steal <= stealLimit {
			clean = append(clean, i)
		}
	}
	if 2*len(clean) >= len(all) {
		return clean
	}
	sort.SliceStable(all, func(a, b int) bool { return r.rounds[all[a]].steal < r.rounds[all[b]].steal })
	return all[:(len(all)+1)/2]
}

// overRounds is the median of f over the kept rounds; the values behind
// it go to the artifact under name. Rounds where f has no value (NaN: no
// sample of the kind it needs) are skipped.
func (r *run) overRounds(name string, f func(*round) float64) float64 {
	var vals []float64
	for _, i := range r.kept() {
		if v := f(&r.rounds[i]); !math.IsNaN(v) {
			vals = append(vals, v)
		}
	}
	r.groups[name] = vals
	return quantile(slices.Clone(vals), 0.5)
}

// rate is successful samples keep accepts per second of ss's slice.
func rate(ss []sample, t time.Duration, keep func(sample) bool) float64 {
	return float64(len(seconds(ss, keep))) / t.Seconds()
}

// openQuantile is the median over kept rounds of the round's open-loop
// q-quantile latency in ms.
func (r *run) openQuantile(name string, q float64) float64 {
	return r.overRounds(name, func(rd *round) float64 { return 1e3 * quantile(seconds(rd.open, anyOp), q) })
}

// timed is every sample of the untraced timed phases.
func (r *run) timed() []sample {
	var out []sample
	for _, rd := range r.rounds {
		out = append(append(out, rd.closed...), rd.open...)
	}
	return out
}

func seconds(ss []sample, keep func(sample) bool) []float64 {
	var out []float64
	for _, s := range ss {
		if keep(s) {
			out = append(out, s.lat.Seconds())
		}
	}
	return out
}

func okOp(s sample) bool    { return s.err == nil }
func okHeavy(s sample) bool { return s.err == nil && s.o.heavy }
func anyOp(sample) bool     { return true }

// endToEnd computes the end-to-end metrics from the timed phases.
func (r *run) endToEnd(m *metricSet) {
	m.put("setup_s", quantile(slices.Clone(r.setups), 0.5))
	r.groups["setup_s"] = r.setups
	m.put("throughput_rps", r.throughput())
	m.put("latency_p50_ms", r.openQuantile("latency_p50_ms", 0.50))
	m.put("cpu_ms_per_op", r.overRounds("cpu_ms_per_op", func(rd *round) float64 { return 1e3 * rd.cpu.Seconds() / float64(rd.ops) }))
}

// throughput is the median over kept rounds of the closed-loop slice's
// successful requests per second.
func (r *run) throughput() float64 {
	return r.overRounds("throughput_rps", func(rd *round) float64 { return rate(rd.closed, rd.closedT, okOp) })
}

// liveHeapMB is HeapAlloc after a forced GC with the stack still up and
// the benchmark's own inputs and samples released.
func (r *run) liveHeapMB() float64 {
	st := r.st
	r.p, r.warm, r.rounds, r.ck, r.cl.check = nil, nil, nil, nil, nil
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(st)
	return float64(ms.HeapAlloc) / (1 << 20)
}
