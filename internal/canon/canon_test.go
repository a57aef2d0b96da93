package canon

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"github.com/ccnet/ccnet/internal/scenario"
)

// TestCanonicalForm pins the canonical encoding: sorted keys, no
// whitespace, shortest number spelling.
func TestCanonicalForm(t *testing.T) {
	got, err := Canonicalize(map[string]any{
		"b": 2.0,
		"a": []any{1.0, "x", nil, true},
		"c": map[string]any{"z": 1.0, "y": 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"a":[1,"x",null,true],"b":2,"c":{"y":0.5,"z":1}}`
	if string(got) != want {
		t.Errorf("canonical form = %s, want %s", got, want)
	}
}

// TestHashStableAcrossMapOrder builds the same logical value through
// different construction and JSON-spelling orders; the keys must agree.
func TestHashStableAcrossMapOrder(t *testing.T) {
	m1 := map[string]int{}
	m1["alpha"] = 1
	m1["beta"] = 2
	m1["gamma"] = 3
	m2 := map[string]int{}
	m2["gamma"] = 3
	m2["alpha"] = 1
	m2["beta"] = 2

	k1, err := Hash(m1)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := Hash(m2)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Errorf("hash differs across map insertion order: %s vs %s", k1, k2)
	}

	// Same document, different JSON key order, decoded generically.
	var g1, g2 any
	if err := json.Unmarshal([]byte(`{"x": 1, "y": {"a": true, "b": [1,2]}}`), &g1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(`{"y": {"b": [1,2], "a": true}, "x": 1}`), &g2); err != nil {
		t.Fatal(err)
	}
	j1 := MustHash(g1)
	j2 := MustHash(g2)
	if j1 != j2 {
		t.Errorf("hash differs across JSON key order: %s vs %s", j1, j2)
	}
}

// baseSpec is the reference scenario for the sensitivity test.
func baseSpec() *scenario.Spec {
	return &scenario.Spec{
		Name: "base",
		System: scenario.SystemSpec{
			Preset: "small",
		},
		Traffic: scenario.TrafficSpec{
			Flits:     32,
			FlitBytes: []int{256},
			Lambda:    scenario.LambdaSpec{Max: 1e-3, Points: 8},
		},
	}
}

// TestHashChangesOnSemanticFieldChange mutates one semantic field at a
// time; every mutation must move the key.
func TestHashChangesOnSemanticFieldChange(t *testing.T) {
	base := MustHash(baseSpec())
	mutations := map[string]func(*scenario.Spec){
		"name":           func(s *scenario.Spec) { s.Name = "other" },
		"seed":           func(s *scenario.Spec) { s.Seed = 7 },
		"preset":         func(s *scenario.Spec) { s.System.Preset = "N=544" },
		"icn2Scale":      func(s *scenario.Spec) { s.System.ICN2BandwidthScale = 1.2 },
		"flits":          func(s *scenario.Spec) { s.Traffic.Flits = 64 },
		"flitBytes":      func(s *scenario.Spec) { s.Traffic.FlitBytes = []int{64} },
		"flitBytesExtra": func(s *scenario.Spec) { s.Traffic.FlitBytes = []int{256, 64} },
		"pattern":        func(s *scenario.Spec) { s.Traffic.Pattern = "hotspot"; s.Traffic.HotFraction = 0.1 },
		"lambdaMax":      func(s *scenario.Spec) { s.Traffic.Lambda.Max = 2e-3 },
		"lambdaPoints":   func(s *scenario.Spec) { s.Traffic.Lambda.Points = 9 },
		"lambdaValues":   func(s *scenario.Spec) { s.Traffic.Lambda = scenario.LambdaSpec{Values: []float64{1e-4}} },
		"modelVariant":   func(s *scenario.Spec) { s.Model.Variant = "paper-literal" },
		"modelRelax":     func(s *scenario.Spec) { s.Model.InvertRelaxFactor = true },
		"engineSim":      func(s *scenario.Spec) { s.Engines.Simulation = true },
		"engineWarmup":   func(s *scenario.Spec) { s.Engines.Warmup = 123 },
		"assertionAdd":   func(s *scenario.Spec) { s.Assertions = []scenario.AssertionSpec{{Type: "monotonic"}} },
		"explicitSystem": func(s *scenario.Spec) {
			s.System = scenario.SystemSpec{Ports: 4, Clusters: []scenario.ClusterGroupSpec{{Count: 4, TreeLevels: 2}}}
		},
	}
	seen := map[Key]string{"": "zero"}
	for name, mutate := range mutations {
		s := baseSpec()
		mutate(s)
		k := MustHash(s)
		if k == base {
			t.Errorf("mutation %q did not change the key", name)
		}
		if prev, dup := seen[k]; dup {
			t.Errorf("mutations %q and %q collide on %s", name, prev, k)
		}
		seen[k] = name
	}
}

// TestHashPartBoundaries verifies the length-prefixed part framing.
func TestHashPartBoundaries(t *testing.T) {
	a := MustHash("ab")
	b := MustHash("a", "b")
	if a == b {
		t.Error(`Hash("ab") == Hash("a","b")`)
	}
	if MustHash("a") == MustHash("a", "a") {
		t.Error("part count does not affect the key")
	}
}

// TestHashDeterministic re-hashes the same value many times.
func TestHashDeterministic(t *testing.T) {
	first := MustHash(baseSpec())
	for i := 0; i < 100; i++ {
		if k := MustHash(baseSpec()); k != first {
			t.Fatalf("hash unstable at iteration %d: %s vs %s", i, k, first)
		}
	}
}

func TestHashRejectsNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := Hash(map[string]float64{"x": v}); err == nil {
			t.Errorf("Hash accepted non-finite %v", v)
		}
	}
}

func TestKeyValid(t *testing.T) {
	k := MustHash("x")
	if !k.Valid() {
		t.Errorf("fresh key %q not Valid", k)
	}
	if !strings.HasPrefix(string(k), Scheme+":") {
		t.Errorf("key %q missing scheme prefix", k)
	}
	for _, bad := range []Key{"", Scheme + ":", Key("v0:" + strings.Repeat("0", 64)), Key(Scheme + ":" + strings.Repeat("0", 63))} {
		if bad.Valid() {
			t.Errorf("key %q unexpectedly Valid", bad)
		}
	}
}

// TestFieldsKey: Fields keys carry the scheme, separate kinds from each
// other and from Hash keys, keep list boundaries, key floats by their
// bits, and refuse non-finite numbers.
func TestFieldsKey(t *testing.T) {
	key := func(kind string, write func(f *Fields)) Key {
		t.Helper()
		f := newFields(kind)
		write(f)
		k, err := f.Key()
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	none := func(*Fields) {}
	if k := key("evaluate", none); !k.Valid() || k == MustHash("evaluate") {
		t.Errorf("key %q: want a valid key unlike Hash's for the same kind", k)
	}
	distinct := map[Key]string{}
	for name, k := range map[string]Key{
		"kind a":    key("a", none),
		"kind b":    key("b", none),
		"[1,2],[]":  key("a", func(f *Fields) { f.Floats([]float64{1, 2}); f.Floats(nil) }),
		"[1],[2]":   key("a", func(f *Fields) { f.Floats([]float64{1}); f.Floats([]float64{2}) }),
		"+0":        key("a", func(f *Fields) { f.Float(0) }),
		"-0":        key("a", func(f *Fields) { f.Float(math.Copysign(0, -1)) }),
		"bool true": key("a", func(f *Fields) { f.Bool(true) }),
	} {
		if other, dup := distinct[k]; dup {
			t.Errorf("%s and %s share key %s", name, other, k)
		}
		distinct[k] = name
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		f := newFields("a")
		f.Float(bad)
		f.Float(1)
		if _, err := f.Key(); err == nil {
			t.Errorf("Float(%v): Key succeeded", bad)
		}
	}
}
