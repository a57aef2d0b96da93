package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand/v2"
	"os"
	"reflect"
	"slices"
	"testing"

	"github.com/ccnet/ccnet/internal/service"
)

func TestPlanIsAPureFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloadNames {
		a, err := newPlan(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newPlan(w, 7)
		c, _ := newPlan(w, 8)
		if a.sha != b.sha {
			t.Errorf("%s: seed 7 gave two different sequences (%s, %s)", w, a.sha, b.sha)
		}
		if a.sha == c.sha {
			t.Errorf("%s: seeds 7 and 8 gave the same sequence %s", w, a.sha)
		}
	}
}

func TestWorkingSetsAgainstTheCache(t *testing.T) {
	distinct := func(ops []*op) int {
		seen := map[int]bool{}
		for _, o := range ops {
			seen[o.spec] = true
		}
		return len(seen)
	}
	hot, _ := newPlan("hot-direct", 1)
	if n := distinct(hot.pool); n >= cacheEntries {
		t.Errorf("hot pool has %d specs, want it to fit the %d-entry cache", n, cacheEntries)
	}
	cold, _ := newPlan("cold-routed", 1)
	if n := distinct(cold.seq); n < 4*replicas*cacheEntries {
		t.Errorf("cold sequence has %d distinct specs, want at least 4x the fleet's %d cache entries", n, replicas*cacheEntries)
	}
}

// Every re-spelling must decode to the same JSON value as the canonical
// body, or result-equality checks across spellings would be wrong.
func TestRespellingsKeepTheMeaning(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 0))
	sp := &specPool{bodies: map[[2]int]*op{}}
	for i := 0; i < 200; i++ {
		sp.add(genRequest(r, 32, i))
	}
	for id := range sp.specs {
		var want any
		if err := json.Unmarshal(sp.op(id, 0).body, &want); err != nil {
			t.Fatalf("spec %d: canonical body is not JSON: %v", id, err)
		}
		for v := 1; v < len(spellings); v++ {
			var got any
			if err := json.Unmarshal(sp.op(id, v).body, &got); err != nil {
				t.Fatalf("spec %d spelling %d: %v", id, v, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("spec %d spelling %d decodes differently:\n%s\n%s", id, v, sp.op(id, v).body, sp.op(id, 0).body)
			}
		}
	}
}

func TestCheckerRejectsCorruptedPayloads(t *testing.T) {
	p, _ := newPlan("hot-direct", 2)
	r := rand.New(rand.NewPCG(2, 0))
	perf := genStudy(r, "performability", 0, 2, p.hosts[0])
	batch := genStudy(r, "batch", 1, 2, p.hosts[1])
	h := service.New(service.Options{Workers: 1}).Handler()
	for _, o := range []*op{p.pool[0], perf, batch} {
		status, body := inproc(h, o)
		good, err := digest(o, status, body)
		if err != nil {
			t.Fatalf("%s: %v", o.path, err)
		}
		ck := newChecker()
		if err := ck.record(o.spec, good); err != nil {
			t.Fatal(err)
		}
		// Flip one digit inside the first result document.
		at := bytes.Index(body, []byte(`"result":`))
		i := at + bytes.IndexAny(body[at:], "123456789")
		bad := slices.Clone(body)
		bad[i] = '0' + (bad[i]-'0')%9 + 1
		if bad[i] == body[i] {
			bad[i] = '1'
		}
		d, err := digest(o, status, bad)
		if err == nil {
			err = ck.record(o.spec, d)
		}
		if err == nil {
			t.Errorf("%s: a corrupted payload passed the checker", o.path)
		}
		if _, err := digest(o, 500, body); err == nil {
			t.Errorf("%s: a 500 passed the checker", o.path)
		}
	}
	// A stream that ends in an in-band error frame, or without a
	// terminal result, fails.
	o := perf
	if _, err := digest(o, 200, []byte(`{"kind":"progress"}`+"\n"+`{"kind":"error","error":{"code":"internal"}}`+"\n")); err == nil {
		t.Error("an in-band error frame passed the checker")
	}
	if _, err := digest(o, 200, []byte(`{"kind":"progress"}`+"\n")); err == nil {
		t.Error("a stream without a result frame passed the checker")
	}
}

type benchmarkFile struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	var ws []string
	for _, w := range f.Workloads {
		ws = append(ws, w.Name)
	}
	if !slices.Equal(ws, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", ws, workloadNames)
	}
	var e2e, layer []metricDef
	for _, m := range f.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range f.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	if !slices.Equal(e2e, endToEndDefs) {
		t.Errorf("end_to_end in BENCHMARK.json:\n%v\nprinted by the benchmark:\n%v", e2e, endToEndDefs)
	}
	if !slices.Equal(layer, perLayerDefs) {
		t.Errorf("per_layer in BENCHMARK.json:\n%v\nprinted by the benchmark:\n%v", layer, perLayerDefs)
	}
}

// A short run of every workload, untraced and traced, prints exactly the
// declared metrics and passes its own checks.
func TestRunsPrintEveryDeclaredMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloadNames {
		for _, trace := range []int{0, 1} {
			res, art, err := execute(context.Background(), options{workload: w, seed: 5, seconds: 0.6, trace: trace, out: t.TempDir()})
			if err != nil {
				t.Fatalf("%s trace %d: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("%s trace %d: correct=%v failed=%d: %v", w, trace, res.Correct, res.Failed, art.Errors)
			}
			defs := endToEndDefs
			if trace == 1 {
				defs = perLayerDefs
			}
			var got, want []string
			for k := range res.Metrics {
				got = append(got, k)
			}
			for _, d := range defs {
				want = append(want, d.name)
				if res.Metrics[d.name].Unit != d.unit {
					t.Errorf("%s: %s printed with unit %q, declared %q", w, d.name, res.Metrics[d.name].Unit, d.unit)
				}
			}
			slices.Sort(got)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Errorf("%s trace %d printed %v, declared %v", w, trace, got, want)
			}
		}
	}
}
