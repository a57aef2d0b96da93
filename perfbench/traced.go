package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"

	"github.com/ccnet/ccnet/internal/canon"
	"github.com/ccnet/ccnet/internal/cluster"
	"github.com/ccnet/ccnet/internal/core"
	"github.com/ccnet/ccnet/internal/fleetsim"
	"github.com/ccnet/ccnet/internal/netchar"
	"github.com/ccnet/ccnet/internal/optimize"
	"github.com/ccnet/ccnet/internal/perfab"
	"github.com/ccnet/ccnet/internal/reqtrace"
	"github.com/ccnet/ccnet/internal/scenario"
	"github.com/ccnet/ccnet/internal/service"
)

// directTracer is the direct server's tracer in traced runs: every
// request sampled, a ring large enough to keep a phase's traces.
func directTracer(traced bool, seed uint64) *reqtrace.Tracer {
	if !traced {
		return nil
	}
	return reqtrace.New(reqtrace.Options{Component: "ccserved", Rate: 1, Seed: seed, BufferTraces: 4096})
}

// tracedOut counts the operations a traced run sends outside its
// untraced phases.
type tracedOut struct {
	attempted, failed int
	msgs              []string
}

func (out *tracedOut) count(ss []sample) {
	out.attempted += len(ss)
	out.failed += failures(ss, &out.msgs)
}

// tracedPhase is a traced stack (routed or direct) and what was sent to
// it.
type tracedPhase struct {
	st  *stack
	cl  *client
	out *tracedOut

	light []sample // ok evaluate requests (sweeps left out), with Server-Timing
	n     int      // evaluate requests attempted

	before, ctr counters
	routerSelf  []float64 // router trace duration − its attempt spans, ms
	tiers       map[string]tierTraces
}

// startTraced builds a traced stack and warms it like the workload's
// set-up.
func (r *run) startTraced(ctx context.Context, routed bool) (*tracedPhase, error) {
	st, cl, warm, err := r.startStack(ctx, true, routed)
	if err != nil {
		return nil, err
	}
	cl.timing = true
	ph := &tracedPhase{st: st, cl: cl, out: &r.tr}
	ph.out.count(warm)
	if ph.before, err = st.scrape(cl.hc); err != nil {
		ph.close()
		return nil, err
	}
	return ph, nil
}

func (ph *tracedPhase) close() { ph.cl.close(); ph.st.close() }

// add records samples sent to the traced stack.
func (ph *tracedPhase) add(ss []sample) {
	ph.out.count(ss)
	for _, s := range ss {
		if !s.o.heavy {
			ph.n++
			if s.err == nil {
				ph.light = append(ph.light, s)
			}
		}
	}
}

// finish reads the counter deltas and each tier's own trace export; the
// router's gives its self time.
func (ph *tracedPhase) finish() error {
	after, err := ph.st.scrape(ph.cl.hc)
	if err != nil {
		return err
	}
	ph.ctr = delta(ph.before, after)
	ph.tiers = map[string]tierTraces{}
	for _, base := range append([]string{ph.st.router}, ph.st.replicas...) {
		if base == "" {
			continue
		}
		b, err := get(ph.cl.hc, base+"/v1/traces")
		if err != nil {
			return err
		}
		lines, err := parseTraces(b)
		if err != nil {
			return fmt.Errorf("%s/v1/traces: %w", base, err)
		}
		var durs []float64
		for _, t := range lines {
			durs = append(durs, t.DurationMs)
			if base == ph.st.router {
				self := t.DurationMs
				for _, sp := range t.Spans {
					if sp.Name == "attempt" {
						self -= sp.DurMs
					}
				}
				ph.routerSelf = append(ph.routerSelf, self)
			}
		}
		ph.tiers[base] = tierTraces{Traces: len(lines), MeanMs: mean(durs)}
	}
	return nil
}

// tierTraces summarizes one tier's GET /v1/traces ring.
type tierTraces struct {
	Traces int     `json:"traces"`
	MeanMs float64 `json:"meanMs"`
}

// traceLine is the part of a reqtrace export line the benchmark reads.
type traceLine struct {
	DurationMs float64 `json:"durationMs"`
	Spans      []struct {
		Name  string  `json:"name"`
		DurMs float64 `json:"durMs"`
	} `json:"spans"`
}

func parseTraces(b []byte) ([]traceLine, error) {
	var out []traceLine
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		var t traceLine
		if err := json.Unmarshal(sc.Bytes(), &t); err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, sc.Err()
}

func (ph *tracedPhase) stage(name string) float64 {
	var xs []float64
	for _, s := range ph.light {
		xs = append(xs, s.timing[name])
	}
	return mean(xs)
}

// serviceStages are the replica stages the service reports in
// Server-Timing; "total" is its own wall time.
var serviceStages = []string{"decode", "canon", "cache", "compute", "wait"}

// traced makes the per-layer measurements (see README.md).
func (r *run) traced(ctx context.Context, m *metricSet, art *artifact, o options) error {
	// Go runtime, over the untraced closed loop.
	ops := float64(art.Ops["closed"])
	m.put("go.alloc_kb_per_op", r.rtClosed[0]/1024/ops)
	m.put("go.mallocs_per_op", r.rtClosed[1]/ops)
	// The runtime updates its CPU estimates when a GC cycle ends.
	if r.rtClosed[3] > 0 {
		m.put("go.gc_cpu_frac", r.rtClosed[2]/r.rtClosed[3])
	} else {
		m.unmeasured("go.gc_cpu_frac", "no GC cycle ended during the closed-loop slices")
	}

	var lags []float64
	for _, rd := range r.rounds {
		for _, s := range rd.open {
			lags = append(lags, s.lag.Seconds()*1e3)
		}
	}
	m.put("driver.lag_p99_ms", quantile(lags, 0.99))
	m.put("driver.latency_p90_ms", r.openQuantile("latency_p90_ms", 0.90))
	m.put("driver.latency_p99_ms", r.openQuantile("latency_p99_ms", 0.99))

	c := art.Counters
	m.put("service.cache_hit_ratio", art.Ratios["cacheHitRatio"].Value)
	m.put("service.evictions_per_kreq", 1e3*art.Ratios["evictionsPerRequest"].Value)
	m.put("service.computes", c["stats.computes"])

	// Tracing overhead: every round sent the same requests to the
	// untraced and the traced stack, one slice after the other.
	untraced := r.throughput()
	traced := r.overRounds("traced_rps", func(rd *round) float64 { return rate(rd.traced, rd.tracedT, okOp) })
	m.put("reqtrace.overhead_frac", 1-traced/untraced)

	own := r.own
	if err := own.finish(); err != nil {
		return err
	}
	art.Ops["tracedClosed"] = own.n
	var unattributed, outside []float64
	for _, s := range own.light {
		sum := 0.0
		for _, name := range serviceStages {
			sum += s.timing[name]
		}
		unattributed = append(unattributed, s.timing["total"]-sum)
		outside = append(outside, s.lat.Seconds()*1e3-s.timing["total"])
	}
	for _, name := range serviceStages {
		m.put("service."+name+"_ms", own.stage(name))
	}
	m.put("service.unattributed_ms", mean(unattributed))
	m.put("http.outside_handler_ms", mean(outside))

	// The router layer: the workload's own traced stack when it is
	// routed, otherwise its light requests sent through a traced K=3
	// tier for half a phase.
	rph := own
	if r.p.workload != "cold-routed" {
		var err error
		if rph, err = r.startTraced(ctx, true); err != nil {
			return err
		}
		defer rph.close()
		ss, _ := closedLoop(ctx, rph.cl, r.clients, r.phase/2, (&cursor{ops: r.p.seq}).next)
		rph.add(ss)
		if err := rph.finish(); err != nil {
			return err
		}
		art.Ops["routerReplay"] = rph.n
	}
	var hop []float64
	shards := map[string]float64{}
	for _, s := range rph.light {
		hop = append(hop, s.timing["rt_upstream"]-s.timing["total"])
		shards[s.shard]++
	}
	m.put("router.route_ms", rph.stage("rt_route"))
	m.put("router.upstream_ms", rph.stage("rt_upstream"))
	m.put("router.hop_ms", mean(hop))
	m.put("router.self_ms", mean(rph.routerSelf))
	art.Traces = map[string]map[string]tierTraces{"own": own.tiers, "router": rph.tiers}
	peak, sum := 0.0, 0.0
	for _, v := range shards {
		peak, sum = max(peak, v), sum+v
	}
	m.put("router.shard_skew", peak/(sum/replicas))
	m.put("router.retries", rph.ctr["ccrouter_retries_total"])
	m.put("router.unavailable", rph.ctr["ccrouter_unavailable_total"])

	rec := newRecorder()
	if err := r.replay(ctx, rec, m); err != nil {
		return err
	}
	art.SpanSummary = rec.summary()
	art.SpansFile = filepath.Join(o.out, fmt.Sprintf("%s-seed%d-spans.ndjson", o.workload, o.seed))
	return rec.write(art.SpansFile)
}

// replaySample is how many light inputs the replay sends through each
// layer function.
const replaySample = 96

// replay feeds a sample of the workload's generated inputs through the
// exported layer functions, one span per call.
func (r *run) replay(ctx context.Context, rec *recorder, m *metricSet) error {
	fail := func(err error) {
		r.tr.failed++
		if len(r.tr.msgs) < 5 {
			r.tr.msgs = append(r.tr.msgs, err.Error())
		}
	}
	// The in-process handler is untraced, like the end-to-end path, and
	// sees the workload's warm cache.
	h := service.New(service.Options{}).Handler()
	for _, o := range r.p.pool {
		inproc(h, o)
	}
	seen := map[int]bool{}
	var sample []*op
	for _, o := range r.p.seq {
		if len(sample) == replaySample {
			break
		}
		if !seen[o.spec] {
			seen[o.spec] = true
			sample = append(sample, o)
		}
	}
	trace := 0
	for _, o := range sample {
		trace++
		r.tr.attempted++
		if err := replayLight(rec, trace, o, h); err != nil {
			fail(err)
		}
	}
	means := rec.summary()
	for metric, span := range map[string]string{
		"canon.raw_hash_us": "canon.raw_hash", "scenario.build_us": "scenario.build",
		"core.new_us": "core.new", "core.evaluate_us": "core.evaluate", "core.sweep_us": "core.sweep",
		"core.saturation_us": "core.saturation", "service.inproc_handler_us": "service.handler",
	} {
		if a, ok := means[span]; ok {
			m.put(metric, a.MeanUs)
		} else {
			m.unmeasured(metric, "no replayed input reached "+span)
		}
	}

	// The service's own key pass over the expanded system: the `canon`
	// spans of a traced server answering the same sample.
	ktr := reqtrace.New(reqtrace.Options{Component: "replay", Rate: 1, Seed: r.seed, BufferTraces: len(sample)})
	kh := service.New(service.Options{Tracer: ktr}).Handler()
	for _, o := range sample {
		r.tr.attempted++
		status, body := inproc(kh, o)
		if _, err := digest(o, status, body); err != nil {
			fail(err)
		}
	}
	canonMs, err := spanDurations(kh, "canon")
	if err != nil {
		return err
	}
	if len(canonMs["canon"]) == 0 {
		m.unmeasured("canon.hash_us", "the service recorded no canon span")
	} else {
		m.put("canon.hash_us", 1e3*mean(canonMs["canon"]))
	}

	// Studies built on systems from the workload's own sequence, and a
	// batch of its own first sixteen requests.
	studies := map[string][]*op{}
	sr := rand.New(rand.NewPCG(r.seed, 0x7265706c6179)) // "replay"
	for i, kind := range studyKinds {
		if kind == "batch" {
			continue
		}
		for j := 0; j < 2; j++ {
			studies[kind] = append(studies[kind], genStudy(sr, kind, 2*i+j, r.seed, r.p.hosts[(2*i+j)%len(r.p.hosts)]))
		}
	}
	var items []any
	for i, o := range sample[:16] {
		items = append(items, obj{{"id", strconv.Itoa(i)}, {"kind", o.kind}, {"spec", rawJSON(o.body)}})
	}
	studies["batch"] = []*op{{kind: "batch", path: "/v1/batch", body: render(obj{{"items", items}}, spellings[0]), heavy: true, stream: true}}
	// The studies run on a traced server, so the batch records its queue
	// and item spans.
	tracer := reqtrace.New(reqtrace.Options{Component: "replay", Rate: 1, Seed: r.seed, MaxSpans: 256, BufferTraces: 64})
	svc := service.New(service.Options{Tracer: tracer})
	st := &studyStats{}
	for _, kind := range studyKinds {
		for _, o := range studies[kind] {
			trace++
			r.tr.attempted++
			if err := replayStudy(ctx, rec, trace, o, svc, tracer, st); err != nil {
				fail(fmt.Errorf("replay %s: %w", kind, err))
			}
		}
	}
	a := rec.summary()
	ms := func(span string) float64 { return a[span].MeanUs / 1e3 }
	sec := func(span string) float64 { return a[span].SumMs / 1e3 }
	m.put("perfab.study_ms", ms("perfab.run"))
	m.put("perfab.states_per_s", st.states/sec("perfab.run"))
	m.put("perfab.states", st.states/float64(a["perfab.run"].Count))
	m.put("optimize.study_ms", ms("optimize.run"))
	m.put("optimize.candidates_per_s", st.candidates/sec("optimize.run"))
	m.put("optimize.evaluated", st.evaluated/float64(a["optimize.run"].Count))
	m.put("fleetsim.study_ms", ms("fleetsim.run"))
	m.put("fleetsim.epochs_per_s", st.epochs/sec("fleetsim.run"))
	m.put("fleetsim.unique_states", st.unique/float64(a["fleetsim.run"].Count))
	m.put("sim.campaign_ms", ms("sim.campaign"))
	m.put("sim.events_per_s", st.events/sec("sim.campaign"))

	// Batch spans come from the replay server's own trace export.
	batch, err := spanDurations(svc.Handler(), "queue", "item")
	if err != nil {
		return err
	}
	m.put("batch.queue_ms", mean(batch["queue"]))
	m.put("batch.item_ms", mean(batch["item"]))
	return nil
}

// spanDurations reads h's GET /v1/traces and returns the durations in ms
// of the spans with the given names, by name.
func spanDurations(h http.Handler, names ...string) (map[string][]float64, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/traces", nil))
	lines, err := parseTraces(rec.Body.Bytes())
	if err != nil {
		return nil, fmt.Errorf("replay /v1/traces: %w", err)
	}
	out := map[string][]float64{}
	for _, t := range lines {
		for _, s := range t.Spans {
			if slices.Contains(names, s.Name) {
				out[s.Name] = append(out[s.Name], s.DurMs)
			}
		}
	}
	return out, nil
}

// replayLight sends one evaluate or sweep input through each layer the
// service's request path crosses.
func replayLight(rec *recorder, trace int, o *op, h http.Handler) error {
	var err error
	rec.do(trace, 0, "replay."+o.kind, func(root int) {
		var sys *scenario.SystemSpec
		var ms *scenario.ModelSpec
		var sf bool
		var flits, flitBytes int
		var ev service.EvaluateRequest
		var sw service.SweepRequest
		rec.do(trace, root, "json.decode", func(int) {
			dec := json.NewDecoder(bytes.NewReader(o.body))
			dec.DisallowUnknownFields()
			if o.kind == "evaluate" {
				err = dec.Decode(&ev)
				sys, ms, sf, flits, flitBytes = &ev.System, &ev.Model, ev.StoreAndForward, ev.Message.Flits, ev.Message.FlitBytes
			} else {
				err = dec.Decode(&sw)
				sys, ms, sf, flits, flitBytes = &sw.System, &sw.Model, sw.StoreAndForward, sw.Message.Flits, sw.Message.FlitBytes
			}
		})
		if err != nil {
			return
		}
		var built *cluster.System
		rec.do(trace, root, "scenario.build", func(int) { built, err = sys.Build("request") })
		if err != nil {
			return
		}
		msg := netchar.MessageSpec{Flits: flits, FlitBytes: flitBytes}
		opt := ms.Options(sf)
		rec.do(trace, root, "canon.raw_hash", func(int) { _, err = canon.Hash(o.kind, json.RawMessage(o.body)) })
		if err != nil {
			return
		}
		var model *core.Model
		rec.do(trace, root, "core.new", func(int) { model, err = core.New(built, msg, opt) })
		if err != nil {
			return
		}
		if o.kind == "evaluate" {
			rec.do(trace, root, "core.evaluate", func(int) { model.Evaluate(ev.Lambda) })
		} else {
			spec := &scenario.Spec{Name: "sweep", System: sw.System, Model: sw.Model,
				Traffic: scenario.TrafficSpec{Flits: flits, FlitBytes: []int{flitBytes}, Lambda: sw.Lambda}}
			var grid []float64
			rec.do(trace, root, "scenario.grid", func(int) { grid, err = spec.Grid([]*core.Model{model}) })
			if err != nil {
				return
			}
			rec.do(trace, root, "core.saturation", func(int) { model.SaturationPoint(1.0, 1e-4) })
			rec.do(trace, root, "core.sweep", func(int) { model.SweepParallel(grid, runtime.GOMAXPROCS(0)) })
		}
		if err != nil {
			return
		}
		rec.do(trace, root, "service.handler", func(int) {
			status, body := inproc(h, o)
			_, err = digest(o, status, body)
		})
	})
	return err
}

type studyStats struct {
	states, candidates, evaluated, epochs, unique, events float64
}

// replayStudy runs one study through its engine directly, then through
// the service's exported streaming entry point.
func replayStudy(ctx context.Context, rec *recorder, trace int, o *op, svc *service.Server, tracer *reqtrace.Tracer, st *studyStats) error {
	var err error
	rec.do(trace, 0, "replay.study."+o.kind, func(root int) {
		parse := func() (spec *scenario.Spec) {
			rec.do(trace, root, "scenario.parse", func(int) { spec, err = scenario.Parse(bytes.NewReader(o.body), o.kind) })
			return spec
		}
		switch o.kind {
		case "performability":
			spec := parse()
			if err != nil {
				return
			}
			var study *perfab.Study
			if study, err = spec.PerformabilityStudy(); err != nil {
				return
			}
			rec.do(trace, root, "perfab.run", func(int) {
				var rep *perfab.Report
				if rep, err = (&perfab.Engine{}).Run(ctx, study); err == nil {
					st.states += float64(rep.StatesEvaluated)
				}
			})
			if err == nil {
				rec.do(trace, root, "service.run_performability", func(int) { _, err = svc.RunPerformability(ctx, spec, io.Discard) })
			}
		case "fleetsim":
			spec := parse()
			if err != nil {
				return
			}
			var study *fleetsim.Study
			if study, err = spec.FleetStudy(); err != nil {
				return
			}
			rec.do(trace, root, "fleetsim.run", func(int) {
				var rep *fleetsim.Report
				if rep, err = (&fleetsim.Engine{}).Run(ctx, study); err == nil {
					st.epochs += float64(len(rep.Epochs))
					st.unique += float64(rep.UniqueStates)
				}
			})
			if err == nil {
				rec.do(trace, root, "service.run_fleetsim", func(int) { _, err = svc.RunFleetSim(ctx, spec, io.Discard) })
			}
		case "optimize":
			var spec *optimize.SearchSpec
			rec.do(trace, root, "optimize.parse", func(int) { spec, err = optimize.Parse(bytes.NewReader(o.body), o.kind) })
			if err != nil {
				return
			}
			rec.do(trace, root, "optimize.run", func(int) {
				var rep *optimize.Report
				if rep, err = (&optimize.Engine{}).Run(ctx, spec); err == nil {
					st.candidates += float64(rep.Processed)
					st.evaluated += float64(rep.Evaluated)
				}
			})
			if err == nil {
				rec.do(trace, root, "service.run_optimize", func(int) { _, err = svc.RunOptimize(ctx, spec, io.Discard) })
			}
		case "campaign":
			spec := parse()
			if err != nil {
				return
			}
			rec.do(trace, root, "sim.campaign", func(int) {
				oc := (&scenario.Runner{Workers: 1}).Run([]*scenario.Spec{spec})[0]
				if err = oc.Err; err == nil {
					for _, s := range oc.Result.Series {
						for _, p := range s.Points {
							st.events += float64(p.SimEvents)
						}
					}
				}
			})
		case "batch":
			var req *service.BatchRequest
			if req, err = service.ParseBatch(bytes.NewReader(o.body)); err != nil {
				return
			}
			rec.do(trace, root, "service.run_batch", func(int) {
				tctx, tr := tracer.StartRequest(ctx, "POST /v1/batch", "", "replay-"+strconv.Itoa(trace))
				_, err = svc.RunBatch(tctx, req.Items, io.Discard)
				tr.End(http.StatusOK, err)
			})
		}
	})
	return err
}
