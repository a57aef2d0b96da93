// Command perfbench is ccnet's end-to-end benchmark. It runs one named
// workload against in-process servers on loopback sockets, checks every
// answer, and prints the workload's metrics as one JSON line:
//
//	go run . --workload hot-direct --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics (tracing off); with
// --trace 1 it makes the traced run and prints the per-layer metrics.
// Detail (counters, spec-sequence SHA-256, spans) goes to --out. See
// README.md for the workloads and what each metric should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

type metricDef struct{ name, unit string }

// endToEndDefs and perLayerDefs must match BENCHMARK.json (a test holds
// them to it).
var endToEndDefs = []metricDef{
	{"setup_s", "s"},
	{"throughput_rps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"live_heap_mb", "MB"},
}

var perLayerDefs = []metricDef{
	{"service.decode_ms", "ms"},
	{"service.canon_ms", "ms"},
	{"service.cache_ms", "ms"},
	{"service.compute_ms", "ms"},
	{"service.wait_ms", "ms"},
	{"service.unattributed_ms", "ms"},
	{"service.inproc_handler_us", "us"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.evictions_per_kreq", "1/kreq"},
	{"service.computes", "count"},
	{"canon.hash_us", "us"},
	{"canon.raw_hash_us", "us"},
	{"scenario.build_us", "us"},
	{"router.route_ms", "ms"},
	{"router.upstream_ms", "ms"},
	{"router.hop_ms", "ms"},
	{"router.self_ms", "ms"},
	{"router.shard_skew", "ratio"},
	{"router.retries", "count"},
	{"router.unavailable", "count"},
	{"http.outside_handler_ms", "ms"},
	{"core.new_us", "us"},
	{"core.evaluate_us", "us"},
	{"core.sweep_us", "us"},
	{"core.saturation_us", "us"},
	{"perfab.study_ms", "ms"},
	{"perfab.states_per_s", "1/s"},
	{"perfab.states", "count"},
	{"optimize.study_ms", "ms"},
	{"optimize.candidates_per_s", "1/s"},
	{"optimize.evaluated", "count"},
	{"fleetsim.study_ms", "ms"},
	{"fleetsim.epochs_per_s", "1/s"},
	{"fleetsim.unique_states", "count"},
	{"batch.queue_ms", "ms"},
	{"batch.item_ms", "ms"},
	{"sim.campaign_ms", "ms"},
	{"sim.events_per_s", "1/s"},
	{"reqtrace.overhead_frac", "ratio"},
	{"go.alloc_kb_per_op", "KB"},
	{"go.mallocs_per_op", "count"},
	{"go.gc_cpu_frac", "ratio"},
	{"driver.latency_p90_ms", "ms"},
	{"driver.latency_p99_ms", "ms"},
	{"driver.lag_p99_ms", "ms"},
	{"driver.error_frac", "ratio"},
}

// metricSet collects one run's printed metrics.
type metricSet struct {
	defs  []metricDef
	vals  map[string]float64
	notes map[string]string // per-layer metrics that could not be measured, and why
	errs  []string
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, vals: map[string]float64{}, notes: map[string]string{}}
}

func (m *metricSet) declared(name string) bool {
	return slices.ContainsFunc(m.defs, func(d metricDef) bool { return d.name == name })
}

// put records a measured value; a value that is not a finite number
// fails the run.
func (m *metricSet) put(name string, v float64) {
	if !m.declared(name) {
		panic("perfbench: undeclared metric " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		m.errs = append(m.errs, fmt.Sprintf("%s: no measurement (%v)", name, v))
		v = 0
	}
	m.vals[name] = v
}

// unmeasured records a per-layer metric the run could not measure: it
// prints as 0 and the reason goes to the artifact.
func (m *metricSet) unmeasured(name, why string) {
	m.put(name, 0)
	m.notes[name] = why
}

type printed struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]printed `json:"metrics"`
}

func (m *metricSet) result(attempted, failed int) (result, error) {
	res := result{Attempted: attempted, Failed: failed, Metrics: map[string]printed{}}
	for _, d := range m.defs {
		v, ok := m.vals[d.name]
		if !ok {
			return res, fmt.Errorf("declared metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = printed{Value: v, Unit: d.unit}
	}
	if len(m.errs) > 0 {
		return res, fmt.Errorf("%v", m.errs)
	}
	res.Correct = failed == 0 && attempted > 0
	return res, nil
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	out      string
}

// clients is the load generator's concurrency: one goroutine and one
// connection per CPU, at least two.
func clients() int { return max(2, runtime.GOMAXPROCS(0)) }

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: hot-direct or cold-routed")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed; the same seed generates the same requests")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
	flag.StringVar(&o.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for the run artifact and spans")
	flag.Parse()
	if flag.NArg() > 0 || o.seconds <= 0 || (o.trace != 0 && o.trace != 1) || !slices.Contains(workloadNames, o.workload) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload %v --seed N --seconds S --trace 0|1\n", workloadNames)
		os.Exit(2)
	}
	// A traced run spends about 1.2× --seconds in timed phases; set-up,
	// the replay and the output checks take some seconds more. A wedged
	// run fails loudly.
	limit := time.Duration(2*o.seconds*float64(time.Second)) + time.Minute
	time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", limit)
		os.Exit(3)
	})
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res, art, err := execute(context.Background(), o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	path := filepath.Join(o.out, fmt.Sprintf("%s-seed%d-trace%d.json", o.workload, o.seed, o.trace))
	b, _ := json.MarshalIndent(art, "", "  ")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, msg := range art.Errors {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", msg)
	}
	hdr, _ := json.Marshal(map[string]any{"workload": o.workload, "seed": o.seed, "specSequenceSHA256": art.SHA, "artifact": path})
	line, _ := json.Marshal(res)
	fmt.Println(string(hdr))
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// artifact is the run's detail file.
type artifact struct {
	Workload    string                           `json:"workload"`
	Seed        uint64                           `json:"seed"`
	Seconds     float64                          `json:"seconds"`
	Trace       int                              `json:"trace"`
	Clients     int                              `json:"clients"`
	SHA         string                           `json:"specSequenceSHA256"`
	SetupS      []float64                        `json:"setupSeconds"`
	Ops         map[string]int                   `json:"ops"`
	Counters    counters                         `json:"counterDeltas"`
	Ratios      map[string]ratio                 `json:"ratios"`
	Checked     int                              `json:"specsCheckedInProcess"`
	Metrics     map[string]float64               `json:"metrics"`
	Unmeasured  map[string]string                `json:"unmeasured,omitempty"`
	Traces      map[string]map[string]tierTraces `json:"tierTraces,omitempty"`
	SpansFile   string                           `json:"spansFile,omitempty"`
	SpanSummary map[string]spanAgg               `json:"spanSummary,omitempty"`
	Sweeps      kindStats                        `json:"sweeps"`
	Steal       []float64                        `json:"stealPerRound"`
	Kept        []int                            `json:"roundsKept"`
	Groups      map[string][]float64             `json:"groups,omitempty"`
	Errors      []string                         `json:"errors,omitempty"`
}

// kindStats summarizes the heavy operations (λ-sweeps) of a run.
type kindStats struct {
	N     int     `json:"n"`
	MeanS float64 `json:"meanS"`
	P50S  float64 `json:"p50S"`
	P90S  float64 `json:"p90S"`
}

// ratio carries its base, so a ratio is never read without it.
type ratio struct {
	Value float64 `json:"value"`
	Num   float64 `json:"numerator"`
	Base  float64 `json:"base"`
}

func newRatio(num, base float64) ratio {
	r := ratio{Num: num, Base: base}
	if base > 0 {
		r.Value = num / base
	}
	return r
}

func execute(ctx context.Context, o options) (result, *artifact, error) {
	p, err := newPlan(o.workload, o.seed)
	if err != nil {
		return result{}, nil, err
	}
	art := &artifact{Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Clients: clients(), SHA: p.sha, Ops: map[string]int{}}
	r := &run{p: p, clients: clients(), seed: o.seed, ck: newChecker(), groups: map[string][]float64{}}
	var m *metricSet
	if o.trace == 0 {
		r.phase = time.Duration(o.seconds / 2 * float64(time.Second))
		m = newMetricSet(endToEndDefs)
	} else {
		// The traced run sends each closed-loop slice's requests to a
		// traced copy of the stack too, puts hot-direct's requests through
		// a traced router, then replays inputs through each layer.
		r.phase = time.Duration(o.seconds / 3 * float64(time.Second))
		m = newMetricSet(perLayerDefs)
	}
	if err := r.setup(ctx); err != nil {
		return result{}, nil, err
	}
	defer func() {
		if r.own != nil {
			r.own.close()
		}
		if r.cl != nil {
			r.cl.close()
		}
		r.st.close()
	}()
	art.SetupS = r.setups
	if err := r.measure(ctx, o.trace == 1); err != nil {
		return result{}, nil, err
	}
	timed := r.timed()
	var msgs []string
	attempted := len(timed) + len(r.warm)
	failed := failures(timed, &msgs) + failures(r.warm, &msgs)
	art.Ops["setup"] = len(r.warm)
	var closed []sample
	for _, rd := range r.rounds {
		closed = append(closed, rd.closed...)
		art.Ops["closed"] += len(rd.closed)
		art.Ops["open"] += len(rd.open)
		art.Steal = append(art.Steal, rd.steal)
	}
	art.Kept = r.kept()
	if ls := seconds(closed, okHeavy); len(ls) > 0 {
		art.Sweeps = kindStats{N: len(ls), MeanS: mean(ls), P50S: quantile(ls, 0.5), P90S: quantile(ls, 0.9)}
	}
	art.Counters = delta(r.before, r.aft)
	c := art.Counters
	art.Ratios = map[string]ratio{
		"cacheHitRatio":       newRatio(c["stats.cache.hits"], c["stats.cache.hits"]+c["stats.cache.misses"]),
		"evictionsPerRequest": newRatio(c["stats.cache.evictions"], c["stats.requests"]),
		"computesPerRequest":  newRatio(c["stats.computes"], c["stats.requests"]),
		"coalescedPerRequest": newRatio(c["stats.coalesced"], c["stats.requests"]),
	}

	if o.trace == 0 {
		r.endToEnd(m)
	} else {
		if err := r.traced(ctx, m, art, o); err != nil {
			return result{}, nil, err
		}
		attempted += r.tr.attempted
		failed += r.tr.failed
		msgs = append(msgs, r.tr.msgs...)
	}

	checked, bad, vmsgs := r.ck.verify(r.clients)
	art.Checked = checked
	failed += bad
	msgs = append(msgs, vmsgs...)
	if o.trace == 0 {
		m.put("live_heap_mb", r.liveHeapMB())
	} else {
		m.put("driver.error_frac", float64(failed)/float64(attempted))
	}
	res, err := m.result(attempted, failed)
	if err != nil {
		msgs = append(msgs, err.Error())
		res.Correct = false
	}
	art.Metrics = m.vals
	art.Unmeasured = m.notes
	art.Groups = r.groups
	art.Errors = msgs
	return res, art, nil
}
