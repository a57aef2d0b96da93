package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand/v2"
	"strconv"
	"strings"
)

// The generator is a pure function of the workload seed. It uses only
// the standard library's PCG stream and this file's JSON writer, never
// repository code, so two commits given the same seed send byte-identical
// request sequences and record the same spec-sequence SHA-256.

// Working-set sizes, sized against the service's 1024-entry result cache
// (service.Options.CacheEntries default).
const (
	cacheEntries = 1024
	seqLen       = 32768 // light requests generated per workload; the cursor wraps
	hotPool      = 640   // hot-direct pool: fits the cache with room for fresh misses
	warmOps      = 256   // cold-routed warm-up requests, disjoint from the sequence
)

// tier is a network class: a Table 2 preset name or explicit
// characteristics.
type tier struct {
	name   string
	bw     float64
	netLat float64
	swLat  float64
}

type group struct {
	count, levels int
	icn1, ecn1    tier
}

// system is a heterogeneous cluster-of-clusters organization: a Table 1
// preset (optionally with an ICN2 upgrade) or explicit groups.
type system struct {
	preset string
	scale  float64 // icn2BandwidthScale; 0 leaves the field out
	ports  int
	icn2   tier
	groups []group
}

// nodes is N = Σ count·2(m/2)^n for explicit systems.
func (s system) nodes() int {
	switch s.preset {
	case "N=1120":
		return 1120
	case "N=544":
		return 544
	}
	n := 0
	for _, g := range s.groups {
		per := 2
		for l := 0; l < g.levels; l++ {
			per *= s.ports / 2
		}
		n += g.count * per
	}
	return n
}

// numGroups is how many failure-class groups the scenario loader sees.
func (s system) numGroups() int {
	switch s.preset {
	case "N=1120", "N=544":
		return 3
	}
	return len(s.groups)
}

func pick[T any](r *rand.Rand, xs ...T) T { return xs[r.IntN(len(xs))] }

// round3 keeps three significant digits, so number re-spellings have
// something to re-spell (1.23e-04 vs 0.000123).
func round3(f float64) float64 {
	v, _ := strconv.ParseFloat(strconv.FormatFloat(f, 'e', 2, 64), 64)
	return v
}

func logUniform(r *rand.Rand, lo, hi float64) float64 {
	return round3(math.Exp(math.Log(lo) + r.Float64()*(math.Log(hi)-math.Log(lo))))
}

func genTier(r *rand.Rand) tier {
	switch p := r.Float64(); {
	case p < 0.4:
		return tier{name: "net1"}
	case p < 0.7:
		return tier{name: "net2"}
	}
	return tier{
		bw:     float64(100 + 10*r.IntN(100)),
		netLat: pick(r, 0.005, 0.01, 0.02, 0.05),
		swLat:  pick(r, 0.01, 0.015, 0.02),
	}
}

// genExplicit draws a valid multi-group organization (C = 2(m/2)^n
// clusters) with minNodes ≤ N ≤ maxNodes.
func genExplicit(r *rand.Rand, minNodes, maxNodes int) system {
	for {
		s := system{ports: pick(r, 4, 8), icn2: genTier(r)}
		var cs []int
		var lo, hi int
		if s.ports == 4 {
			cs, lo, hi = []int{8, 16, 32}, 2, 6
		} else {
			cs, lo, hi = []int{8, 32}, 1, 3
		}
		c := pick(r, cs...)
		ng := 2 + r.IntN(3)
		// A random composition of c into ng positive counts.
		cuts := map[int]bool{}
		for len(cuts) < ng-1 {
			cuts[1+r.IntN(c-1)] = true
		}
		prev := 0
		for i := 1; i <= c; i++ {
			if cuts[i] || i == c {
				s.groups = append(s.groups, group{
					count:  i - prev,
					levels: lo + r.IntN(hi-lo+1),
					icn1:   genTier(r),
					ecn1:   genTier(r),
				})
				prev = i
			}
		}
		if n := s.nodes(); n >= minNodes && n <= maxNodes {
			return s
		}
	}
}

// genSystem draws the light-request system of class c (0–9): the two
// Table 1 presets (classes 0–1 N=1120, class 2 N=544) and explicit
// heterogeneous systems of up to about 1200 nodes (classes 3–9).
func genSystem(r *rand.Rand, c int) system {
	switch {
	case c < 2:
		return system{preset: "N=1120", scale: pick(r, 0.0, 0.0, 1.2, 1.5, 2)}
	case c < 3:
		return system{preset: "N=544", scale: pick(r, 0.0, 0.0, 1.2, 1.5, 2)}
	}
	return genExplicit(r, 200, 1200)
}

// reqSpec is one evaluate or sweep request.
type reqSpec struct {
	kind             string // "evaluate" or "sweep"
	sys              system
	flits, flitBytes int
	lambda           float64 // evaluate rate, or explicit sweep grid max
	points           int     // sweep grid points
	auto             bool    // sweep grid derived from the saturation point
}

// genRequest draws the i-th distinct light spec of a workload. The mix
// is stratified by i rather than drawn, so every seed gets the same
// shares: evaluate:4,sweep:1 in each block of five, the block's system
// class cycling through genSystem's ten, and sweeps in alternate runs of
// fifty specs on auto grids. Sweeps take a points-point grid.
func genRequest(r *rand.Rand, points, i int) reqSpec {
	q := reqSpec{
		sys:       genSystem(r, i/5%10),
		flits:     pick(r, 16, 32, 64),
		flitBytes: pick(r, 128, 256, 512),
	}
	if i%5 < 4 {
		q.kind = "evaluate"
		q.lambda = logUniform(r, 2e-5, 4e-4)
		return q
	}
	q.kind = "sweep"
	q.points = points
	if i/50%2 == 1 {
		q.auto = true
	} else {
		q.lambda = logUniform(r, 1e-4, 1e-3)
	}
	return q
}

// --- a small JSON writer with re-spellings --------------------------------

type kv struct {
	k string
	v any
}

// obj is an ordered JSON object; num a float field; rawJSON a document
// written verbatim. The writer also takes int, uint64, bool, string and
// []any.
type (
	obj     []kv
	num     float64
	rawJSON []byte
)

// spelling re-spells a document without changing its meaning: key
// order, number forms and whitespace.
type spelling struct {
	reverse bool // object keys in reverse order
	altNum  bool // floats in the other of exponent/plain notation
	pretty  bool // indented, spaced
}

// spellings[0] is canonical; the rest are the re-spellings duplicates
// may use.
var spellings = []spelling{{}, {reverse: true}, {altNum: true}, {pretty: true}, {true, true, true}}

func render(v any, sp spelling) []byte {
	var b strings.Builder
	writeJSON(&b, v, sp, 0)
	return []byte(b.String())
}

func writeJSON(b *strings.Builder, v any, sp spelling, depth int) {
	nl := func(d int) {
		if sp.pretty {
			b.WriteByte('\n')
			b.WriteString(strings.Repeat("  ", d))
		}
	}
	switch x := v.(type) {
	case obj:
		b.WriteByte('{')
		for i := range x {
			e := x[i]
			if sp.reverse {
				e = x[len(x)-1-i]
			}
			if i > 0 {
				b.WriteByte(',')
			}
			nl(depth + 1)
			b.WriteString(strconv.Quote(e.k))
			b.WriteByte(':')
			if sp.pretty {
				b.WriteByte(' ')
			}
			writeJSON(b, e.v, sp, depth+1)
		}
		if len(x) > 0 {
			nl(depth)
		}
		b.WriteByte('}')
	case []any:
		b.WriteByte('[')
		for i, e := range x {
			if i > 0 {
				b.WriteByte(',')
				if sp.pretty {
					b.WriteByte(' ')
				}
			}
			writeJSON(b, e, sp, depth+1)
		}
		b.WriteByte(']')
	case num:
		f := float64(x)
		s := strconv.FormatFloat(f, 'g', -1, 64)
		if sp.altNum {
			if strings.ContainsAny(s, "e") {
				s = strconv.FormatFloat(f, 'f', -1, 64)
			} else {
				s = strconv.FormatFloat(f, 'e', -1, 64)
			}
		}
		b.WriteString(s)
	case rawJSON:
		b.Write(x)
	case int:
		b.WriteString(strconv.Itoa(x))
	case uint64:
		b.WriteString(strconv.FormatUint(x, 10))
	case bool:
		b.WriteString(strconv.FormatBool(x))
	case string:
		b.WriteString(strconv.Quote(x))
	default:
		panic(fmt.Sprintf("perfbench: cannot render %T", v))
	}
}

func (t tier) doc() any {
	if t.name != "" {
		return t.name
	}
	return obj{{"bandwidth", num(t.bw)}, {"networkLatency", num(t.netLat)}, {"switchLatency", num(t.swLat)}}
}

func (s system) doc() obj {
	if s.preset != "" {
		o := obj{{"preset", s.preset}}
		if s.scale != 0 {
			o = append(o, kv{"icn2BandwidthScale", num(s.scale)})
		}
		return o
	}
	var gs []any
	for _, g := range s.groups {
		gs = append(gs, obj{{"count", g.count}, {"treeLevels", g.levels}, {"icn1", g.icn1.doc()}, {"ecn1", g.ecn1.doc()}})
	}
	return obj{{"ports", s.ports}, {"icn2", s.icn2.doc()}, {"clusters", gs}}
}

func (q reqSpec) doc() obj {
	o := obj{{"system", q.sys.doc()}, {"message", obj{{"flits", q.flits}, {"flitBytes", q.flitBytes}}}}
	switch {
	case q.kind == "evaluate":
		o = append(o, kv{"lambda", num(q.lambda)})
	case q.auto:
		o = append(o, kv{"lambda", obj{{"auto", true}, {"points", q.points}}})
	default:
		o = append(o, kv{"lambda", obj{{"max", num(q.lambda)}, {"points", q.points}}})
	}
	return o
}

// --- studies --------------------------------------------------------------

// studyKinds are the streaming studies the traced run replays, in
// replay order.
var studyKinds = []string{"performability", "optimize", "fleetsim", "batch", "campaign"}

// failureBlock builds a performability block over every group of sys;
// the cross-product state space is far beyond maxExact, so the engine
// evaluates about `samples` stratified states.
func failureBlock(r *rand.Rand, sys system, samples int) obj {
	var nodes []any
	for g := 0; g < sys.numGroups(); g++ {
		nodes = append(nodes, obj{{"group", g}, {"mttf", num(float64(2000 + 500*r.IntN(16)))},
			{"mttr", num(float64(24 + 12*r.IntN(5)))}, {"repairers", 1 + r.IntN(4)}})
	}
	return obj{
		{"nodes", nodes},
		{"icn2Switches", []any{obj{{"level", 0}, {"mttf", num(float64(30000 + 1000*r.IntN(20)))}, {"mttr", num(96)}}}},
		{"probe", obj{{"fraction", num(pick(r, 0.4, 0.5, 0.6))}}},
		{"slo", obj{{"minServedFraction", num(0.9)}}},
		{"states", obj{{"maxExact", 512}, {"samples", samples}}},
	}
}

func traffic(flits, flitBytes int, lmax float64, points int) obj {
	return obj{{"flits", flits}, {"flitBytes", []any{flitBytes}}, {"lambda", obj{{"max", num(lmax)}, {"points", points}}}}
}

// genStudy builds study id of the given kind on host sys. Every study
// carries its own seed and name, so no two share a cache entry.
func genStudy(r *rand.Rand, kind string, id int, seed uint64, sys system) *op {
	name := fmt.Sprintf("bench-%s-%d", kind, id)
	sseed := seed*1_000_003 + uint64(id) + 1
	var doc obj
	path := "/v1/" + kind
	switch kind {
	case "performability":
		doc = perfabDoc(r, name, sseed, sys, 300+25*r.IntN(9))
	case "fleetsim":
		doc = fleetDoc(r, name, sseed, sys, 600+50*r.IntN(9))
	case "optimize":
		doc = optimizeDoc(r, name, sseed)
	case "batch":
		// Fourteen light items, one performability and one fleetsim item:
		// a batch costs about as much as the other studies.
		var items []any
		for i := 0; i < 16; i++ {
			item := obj{{"id", strconv.Itoa(i)}}
			switch {
			case i < 14:
				q := genRequest(r, 32, i)
				item = append(item, kv{"kind", q.kind}, kv{"spec", q.doc()})
			case i == 14:
				item = append(item, kv{"kind", "performability"}, kv{"spec", perfabDoc(r, fmt.Sprintf("%s-%d", name, i), sseed, sys, 100)})
			default:
				item = append(item, kv{"kind", "fleetsim"}, kv{"spec", fleetDoc(r, fmt.Sprintf("%s-%d", name, i), sseed, sys, 100)})
			}
			items = append(items, item)
		}
		doc = obj{{"items", items}}
	case "campaign":
		doc = campaignDoc(r, name, sseed)
	default:
		panic("perfbench: unknown study kind " + kind)
	}
	return &op{kind: kind, path: path, body: render(doc, spellings[0]), heavy: true, stream: kind != "campaign"}
}

func perfabDoc(r *rand.Rand, name string, seed uint64, sys system, samples int) obj {
	return obj{{"name", name}, {"seed", seed}, {"system", sys.doc()},
		{"traffic", traffic(32, 256, 1e-3, 4)},
		{"performability", failureBlock(r, sys, samples)}}
}

// fleetDoc is a stochastic fleet simulation of horizon/2 epochs.
func fleetDoc(r *rand.Rand, name string, seed uint64, sys system, horizon int) obj {
	return obj{{"kind", "fleetsim"}, {"name", name}, {"seed", seed}, {"system", sys.doc()},
		{"traffic", traffic(32, 256, 1e-3, 4)}, {"performability", failureBlock(r, sys, 64)},
		{"fleetsim", obj{{"horizon", num(float64(horizon))}, {"epoch", num(2)}, {"stochastic", true}}}}
}

// optimizeDoc is a beam or anneal search over two group templates,
// bounded to a few thousand candidates.
func optimizeDoc(r *rand.Rand, name string, seed uint64) obj {
	method := pick(r, "beam", "anneal")
	search := obj{{"method", method}, {"maxCandidates", 3000 + 100*r.IntN(11)}}
	return obj{{"kind", "optimize"}, {"name", name}, {"seed", seed},
		{"space", obj{
			{"ports", []any{4}},
			{"icn2", []any{"net1", "net2", tier{bw: 1000, netLat: 0.008, swLat: 0.015}.doc()}},
			{"icn2Scale", []any{num(1), num(1.2), num(1.5), num(2), num(3)}},
			{"groups", []any{
				obj{{"counts", []any{0, 2, 4, 6, 8, 10, 12, 14, 16}}, {"treeLevels", []any{2, 3, 4}},
					{"icn1", []any{"net1", "net2"}}, {"ecn1", []any{"net1", "net2"}}},
				obj{{"counts", []any{0, 2, 4, 6, 8, 10, 12, 14, 16}}, {"treeLevels", []any{2, 3}},
					{"icn1", []any{"net1", "net2"}}, {"ecn1", []any{"net2"}}},
			}},
		}},
		{"message", obj{{"flits", 32}, {"flitBytes", 256}}},
		{"constraints", obj{{"minNodes", 64}, {"maxNodes", 1200},
			{"cost", obj{{"switchBase", num(400)}, {"switchPerBandwidth", num(1)}, {"linkBase", num(40)}, {"linkPerBandwidth", num(0.1)}}},
			{"maxCost", num(float64(400000 + 20000*r.IntN(11)))}}},
		{"objective", pick(r, "maxSaturation", "minLatency")},
		{"search", search},
	}
}

// campaignDoc is a short discrete-event campaign: an auto grid well
// below saturation, two simulated points with shrunken message counts.
func campaignDoc(r *rand.Rand, name string, seed uint64) obj {
	return obj{{"name", name}, {"seed", seed}, {"system", genExplicit(r, 100, 300).doc()},
		{"traffic", obj{{"flits", 32}, {"flitBytes", []any{256}},
			{"lambda", obj{{"auto", true}, {"points", 4}, {"autoFraction", num(0.5)}}}}},
		{"engines", obj{{"simulation", true}, {"simEvery", 2}, {"warmup", 500}, {"measure", 1500 + 250*r.IntN(5)}}},
	}
}

// --- plans ----------------------------------------------------------------

// op is one planned request. Ops sharing spec are the same request up to
// spelling, so they must carry identical results.
type op struct {
	kind   string
	path   string
	body   []byte
	spec   int  // result-equality class
	heavy  bool // a λ-sweep; the artifact summarizes sweeps apart
	stream bool // NDJSON response
}

// plan is a workload's generated input.
type plan struct {
	workload string
	seq      []*op // light requests, consumed in order
	pool     []*op // canonical pool spellings the set-up fills the cache with
	warm     []*op // warm-up requests outside the sequence
	hosts    []system
	sha      string
}

// specPool holds distinct light specs and their rendered spellings.
type specPool struct {
	specs  []reqSpec
	bodies map[[2]int]*op
}

func (p *specPool) add(q reqSpec) int {
	p.specs = append(p.specs, q)
	return len(p.specs) - 1
}

func (p *specPool) op(id, variant int) *op {
	k := [2]int{id, variant}
	if o, ok := p.bodies[k]; ok {
		return o
	}
	q := p.specs[id]
	o := &op{kind: q.kind, path: "/v1/" + q.kind, body: render(q.doc(), spellings[variant]), spec: id, heavy: q.kind == "sweep"}
	p.bodies[k] = o
	return o
}

func respelled(r *rand.Rand, share float64) int {
	if r.Float64() < share {
		return 1 + r.IntN(len(spellings)-1)
	}
	return 0
}

// newPlan generates the named workload's inputs from seed.
func newPlan(workload string, seed uint64) (*plan, error) {
	r := rand.New(rand.NewPCG(seed, 0x70657266)) // "perf"
	sp := &specPool{bodies: map[[2]int]*op{}}
	p := &plan{workload: workload}
	switch workload {
	case "hot-direct":
		// 95% of requests repeat a pool spec (30% of those re-spelled);
		// 5% are fresh specs computed once.
		for i := 0; i < hotPool; i++ {
			p.pool = append(p.pool, sp.op(sp.add(genRequest(r, 16, i)), 0))
		}
		for i := 0; i < seqLen; i++ {
			if r.Float64() < 0.95 {
				p.seq = append(p.seq, sp.op(r.IntN(hotPool), respelled(r, 0.3)))
			} else {
				p.seq = append(p.seq, sp.op(sp.add(genRequest(r, 16, len(sp.specs))), 0))
			}
		}
	case "cold-routed":
		// 70% fresh specs, 30% repeats of any earlier spec (a third of
		// them re-spelled): over 20k distinct specs, far beyond the
		// fleet's 3×1024 cache entries.
		for i := 0; i < seqLen; i++ {
			if len(sp.specs) > 0 && r.Float64() < 0.3 {
				p.seq = append(p.seq, sp.op(r.IntN(len(sp.specs)), respelled(r, 1.0/3)))
			} else {
				p.seq = append(p.seq, sp.op(sp.add(genRequest(r, 32, len(sp.specs))), 0))
			}
		}
		wr := rand.New(rand.NewPCG(seed, 0x7761726d)) // "warm"
		for i := 0; i < warmOps; i++ {
			p.warm = append(p.warm, sp.op(sp.add(genRequest(wr, 32, i)), 0))
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (valid: %s)", workload, strings.Join(workloadNames, ", "))
	}
	// Study hosts for the traced replay of hot-direct and cold-routed:
	// the first systems of the workload's own sequence.
	for _, o := range p.seq {
		if len(p.hosts) == len(studyKinds) {
			break
		}
		if s := sp.specs[o.spec].sys; s.preset == "" {
			p.hosts = append(p.hosts, s)
		}
	}
	h := sha256.New()
	for _, list := range [][]*op{p.pool, p.warm, p.seq} {
		for _, o := range list {
			fmt.Fprintf(h, "POST %s\n%s\n", o.path, o.body)
		}
	}
	p.sha = hex.EncodeToString(h.Sum(nil))
	return p, nil
}
