package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/ccnet/ccnet/internal/canon"
	"github.com/ccnet/ccnet/internal/cluster"
	"github.com/ccnet/ccnet/internal/core"
	"github.com/ccnet/ccnet/internal/netchar"
	"github.com/ccnet/ccnet/internal/scenario"
)

// oracleKey is the key the service derived before it keyed requests by
// cluster class: canon.Hash over the JSON form of the expanded system
// with its label cleared. The class-level key must partition requests
// exactly as this one does.
func oracleKey(t *testing.T, req any) canon.Key {
	t.Helper()
	var (
		sysSpec scenario.SystemSpec
		model   scenario.ModelSpec
		sf      bool
		m       MessageJSON
	)
	switch r := req.(type) {
	case *EvaluateRequest:
		sysSpec, model, sf, m = r.System, r.Model, r.StoreAndForward, r.Message
	case *SweepRequest:
		sysSpec, model, sf, m = r.System, r.Model, r.StoreAndForward, r.Message
	}
	sys, err := sysSpec.Build("request")
	if err != nil {
		t.Fatal(err)
	}
	unlabeled := *sys
	unlabeled.Name = ""
	msg := netchar.MessageSpec{Flits: m.Flits, FlitBytes: m.FlitBytes}
	opt := model.Options(sf)
	var key canon.Key
	switch r := req.(type) {
	case *EvaluateRequest:
		key, err = canon.Hash("evaluate", unlabeled, msg, opt, r.Lambda)
	case *SweepRequest:
		if r.Lambda.Auto {
			la := r.Lambda
			if la.AutoFraction == 0 {
				la.AutoFraction = 0.95
			}
			key, err = canon.Hash("sweep-auto", unlabeled, msg, opt, la)
			break
		}
		spec := &scenario.Spec{Traffic: scenario.TrafficSpec{Lambda: r.Lambda}}
		grid, gerr := spec.Grid(nil)
		if gerr != nil {
			t.Fatal(gerr)
		}
		key, err = canon.Hash("sweep", unlabeled, msg, opt, grid)
	}
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// systemSpellings lists each test system under several spellings that
// build the same clusters: presets and explicit groups, one group split
// into adjacent identical ones, named and explicit network classes, and
// an ICN2 bandwidth scale against the scaled class written out.
func systemSpellings() [][]scenario.SystemSpec {
	net1 := &scenario.NetSpec{Name: "net1"}
	net2 := &scenario.NetSpec{Name: "net2"}
	net1Char := &scenario.NetSpec{Char: &netchar.Characteristics{Bandwidth: 500, NetworkLatency: 0.01, SwitchLatency: 0.02}}
	net1x2 := &scenario.NetSpec{Char: &netchar.Characteristics{Bandwidth: 1000, NetworkLatency: 0.01, SwitchLatency: 0.02}}
	g := func(count, levels int) scenario.ClusterGroupSpec {
		return scenario.ClusterGroupSpec{Count: count, TreeLevels: levels}
	}
	small := []scenario.ClusterGroupSpec{g(2, 1), g(2, 2)}
	return [][]scenario.SystemSpec{
		{ // the small preset
			{Preset: "small"},
			{Preset: "small", ICN2BandwidthScale: 1},
			{Ports: 4, Clusters: small},
			{Ports: 4, Clusters: []scenario.ClusterGroupSpec{g(0, 1), g(1, 1), g(2, 2)}}, // count 0 means 1
			{Ports: 4, ICN2: net1Char, Clusters: []scenario.ClusterGroupSpec{
				{Count: 2, TreeLevels: 1, ICN1: net1Char, ECN1: net2}, {Count: 2, TreeLevels: 2, ICN1: net1},
			}},
		},
		{ // the small preset with ICN2 twice as fast
			{Preset: "small", ICN2BandwidthScale: 2},
			{Ports: 4, ICN2: net1x2, Clusters: small},
			{Ports: 4, ICN2: net1, ICN2BandwidthScale: 2, Clusters: []scenario.ClusterGroupSpec{g(1, 1), g(1, 1), g(1, 2), g(1, 2)}},
		},
		{ // the small preset's classes in other counts
			{Ports: 4, Clusters: []scenario.ClusterGroupSpec{g(3, 1), g(1, 2)}},
		},
		{ // the small preset's clusters in another order
			{Ports: 4, Clusters: []scenario.ClusterGroupSpec{g(1, 1), g(1, 2), g(1, 1), g(1, 2)}},
		},
		{ // one cluster of the small preset on another ICN1 class
			{Ports: 4, Clusters: []scenario.ClusterGroupSpec{{Count: 1, TreeLevels: 1, ICN1: net2}, g(1, 1), g(2, 2)}},
		},
		{ // Table 1's N=544 organization
			{Preset: "N=544"},
			{Ports: 4, Clusters: []scenario.ClusterGroupSpec{g(8, 3), g(3, 4), g(5, 5)}},
			{Ports: 4, Clusters: []scenario.ClusterGroupSpec{g(4, 3), g(4, 3), g(1, 4), g(2, 4), g(5, 5)}},
		},
	}
}

// randomKeyRequest draws one evaluate, sweep or sweep-auto request. The
// rate choices overlap across kinds (an evaluate at 1e-4 beside a sweep
// over [1e-4]), and the explicit grids include min/max/points spellings
// of the same values lists.
func randomKeyRequest(rng *rand.Rand, systems [][]scenario.SystemSpec) any {
	spellings := systems[rng.Intn(len(systems))]
	sys := spellings[rng.Intn(len(spellings))]
	msg := MessageJSON{Flits: []int{16, 32}[rng.Intn(2)], FlitBytes: 256}
	model := scenario.ModelSpec{
		Variant:               []string{"", "reconstructed", "paper-literal"}[rng.Intn(3)],
		InvertRelaxFactor:     rng.Intn(2) == 0,
		CalibratedECNCrossing: rng.Intn(2) == 0,
	}
	sf := rng.Intn(2) == 0
	switch rng.Intn(3) {
	case 0:
		return &EvaluateRequest{System: sys, Message: msg, Model: model, StoreAndForward: sf,
			Lambda: []float64{1e-4, 2e-4}[rng.Intn(2)]}
	case 1:
		grids := []scenario.LambdaSpec{
			{Values: []float64{1e-4}},
			{Values: []float64{1e-4, 2e-4}},
			{Min: 1e-4, Max: 2e-4, Points: 2},
			{Values: core.LambdaGrid(5e-5, 2e-4, 4)},
			{Max: 2e-4, Points: 4},
		}
		return &SweepRequest{System: sys, Message: msg, Model: model, StoreAndForward: sf,
			Lambda: grids[rng.Intn(len(grids))]}
	default:
		return &SweepRequest{System: sys, Message: msg, Model: model, StoreAndForward: sf,
			Lambda: scenario.LambdaSpec{
				Auto:         true,
				Min:          []float64{0, math.Copysign(0, -1)}[rng.Intn(2)], // JSON omits both
				Points:       2 + rng.Intn(2),
				AutoFraction: []float64{0, 0.95, 0.9}[rng.Intn(3)],
			}}
	}
}

// TestKeyMatchesOracle: over seeded random requests, two requests share
// a cache key iff they share an oracle key. Sharing must actually
// happen across spellings, or the property says little.
func TestKeyMatchesOracle(t *testing.T) {
	systems := systemSpellings()
	rng := rand.New(rand.NewSource(12))
	toOracle := map[canon.Key]canon.Key{}
	toKey := map[canon.Key]canon.Key{}
	spellings := map[canon.Key]map[string]bool{}
	for i := 0; i < 400; i++ {
		req := randomKeyRequest(rng, systems)
		body, _ := json.Marshal(req)
		ep := &endpoints[epEvaluate]
		if _, ok := req.(*SweepRequest); ok {
			ep = &endpoints[epSweep]
		}
		var key canon.Key
		j, err := ep.parse(bytes.NewReader(body), "request")
		if err == nil {
			key, err = j.key()
		}
		if err != nil {
			t.Fatalf("%T %s: %v", req, body, err)
		}
		oracle := oracleKey(t, req)
		if o, ok := toOracle[key]; ok && o != oracle {
			t.Fatalf("%T %s: key %s is shared by two oracle keys", req, body, key)
		}
		if k, ok := toKey[oracle]; ok && k != key {
			t.Fatalf("%T %s: oracle key %s maps to keys %s and %s", req, body, oracle, k, key)
		}
		toOracle[key], toKey[oracle] = oracle, key
		if spellings[key] == nil {
			spellings[key] = map[string]bool{}
		}
		spellings[key][fmt.Sprintf("%T%s", req, body)] = true
	}
	shared := 0
	for _, s := range spellings {
		if len(s) > 1 {
			shared++
		}
	}
	if shared < 20 {
		t.Fatalf("only %d keys were reached by more than one spelling", shared)
	}
}

// TestKeyCoversEveryField perturbs, one at a time, every field of the
// types the evaluate and sweep keys are built from — cluster.System and
// its Config and netchar.Characteristics, netchar.MessageSpec,
// core.Options and scenario.LambdaSpec — and requires the key to
// change, except for the system's label. A field added to any of them
// fails here until the key covers it.
func TestKeyCoversEveryField(t *testing.T) {
	type inputs struct {
		System  cluster.System
		Message netchar.MessageSpec
		Options core.Options
		Lambda  scenario.LambdaSpec
	}
	base := func() *inputs {
		return &inputs{
			System:  *cluster.SmallTestSystem(),
			Message: netchar.MessageSpec{Flits: 32, FlitBytes: 256},
			Lambda:  scenario.LambdaSpec{Auto: true, Points: 4},
		}
	}
	key := func(in *inputs) canon.Key {
		f := canon.ModelFields("sweep-auto", &in.System, in.Message, in.Options)
		autoGridFields(f, in.Lambda)
		k, err := f.Key()
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	want := key(base())
	n := len(leaves(t, reflect.ValueOf(base()).Elem(), "", nil))
	for i := 0; i < n; i++ {
		in := base()
		ls := leaves(t, reflect.ValueOf(in).Elem(), "", nil)
		perturb(t, ls[i])
		got := key(in)
		if label := ls[i].path == ".System.Name"; label != (got == want) {
			t.Errorf("changing %s: key changed = %v, want %v", ls[i].path, got != want, !label)
		}
	}
}

type leaf struct {
	path string
	v    reflect.Value
}

// leaves lists v's leaf fields in declaration order, recursing through
// structs and into the first element of struct slices.
func leaves(t *testing.T, v reflect.Value, path string, out []leaf) []leaf {
	switch {
	case v.Kind() == reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			out = leaves(t, v.Field(i), path+"."+v.Type().Field(i).Name, out)
		}
	case v.Kind() == reflect.Slice && v.Type().Elem().Kind() == reflect.Struct:
		if v.Len() == 0 {
			t.Fatalf("%s: base value needs an element", path)
		}
		out = leaves(t, v.Index(0), path+"[0]", out)
	default:
		out = append(out, leaf{path, v})
	}
	return out
}

// perturb changes one leaf to a different value of its kind.
func perturb(t *testing.T, l leaf) {
	switch v := l.v; v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int:
		v.SetInt(v.Int() + 1)
	case reflect.Float64:
		v.SetFloat(v.Float() + 0.25)
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Slice:
		if v.Type().Elem().Kind() != reflect.Float64 {
			t.Fatalf("%s: unsupported slice type %s", l.path, v.Type())
		}
		v.Set(reflect.Append(v, reflect.ValueOf(0.5)))
	default:
		t.Fatalf("%s: unsupported kind %s; key it and teach this guard to change it", l.path, v.Kind())
	}
}
