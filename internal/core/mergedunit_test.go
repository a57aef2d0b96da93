package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/ccnet/ccnet/internal/cluster"
)

// stageChain is the closure-driven form of the backward stage recursion
// shared by Eqs 13–14 and 26–29: stage K−1 has service M·lastService and
// no downstream wait; every earlier stage k has service M·service(k)
// plus the waits of all later stages, and contributes
// W_k = ½·eta(k)·T_k². It returns T_0. The production recursions
// (stageChainUniform, mergedUnit) are tested against it.
func stageChain(k int, flits float64, lastService float64,
	service func(int) float64, eta func(int) float64) float64 {
	t := flits * lastService
	wSum := 0.5 * eta(k-1) * t * t
	for s := k - 2; s >= 0; s-- {
		t = flits*service(s) + wSum
		w := 0.5 * eta(s) * t * t
		wSum += w
	}
	return t
}

// stageChain3 is stageChain specialized to one cell of the inter-cluster
// merged unit (Eqs 26–29): stages [0,lo) run on the source ECN1, [lo,hi)
// on the ICN2 (eta already includes Eq 28's relaxing factor), and
// [hi,k−1) on the destination ECN1. Identical arithmetic to the closure
// form; mergedUnit must reproduce it cell by cell.
func stageChain3(k, lo, hi int, flits, lastService float64,
	svcA, svcB, svcC, etaA, etaB, etaC float64) float64 {
	etaLast := etaC
	switch {
	case k-1 < lo:
		etaLast = etaA
	case k-1 < hi:
		etaLast = etaB
	}
	t := flits * lastService
	wSum := 0.5 * etaLast * t * t
	for s := k - 2; s >= 0; s-- {
		var sv, et float64
		switch {
		case s < lo:
			sv, et = svcA, etaA
		case s < hi:
			sv, et = svcB, etaB
		default:
			sv, et = svcC, etaC
		}
		t = flits*sv + wSum
		wSum += 0.5 * et * t * t
	}
	return t
}

// cellReference is Eq 20 computed the unfactored way: every (r, v, l)
// cell runs its own stageChain3 recursion, is weighted by pr·pv·pl taken
// from the distance distributions, and is summed in (r, v, l) order.
func cellReference(m *Model, cp int, lambdaG float64) float64 {
	pc := &m.pairs[cp]
	src := &m.cl[m.classRep[cp/m.nClasses]]
	dst := &m.cl[m.classRep[cp%m.nClasses]]
	M := float64(m.Msg.Flits)
	etaSrc := lambdaG * pc.etaSrcCof
	etaDst := lambdaG * pc.etaDstCof
	etaI2 := lambdaG * pc.etaI2Cof
	mult := 1
	if m.Opt.CalibratedECNCrossing {
		mult = 2
	}
	var sum float64
	for r := 1; r <= src.n; r++ {
		for v := 1; v <= dst.n; v++ {
			for l := 1; l <= m.nc; l++ {
				rl, vl := r*mult, v*mult
				t := stageChain3(rl+2*l+vl-1, rl, rl+2*l-1, M, dst.tcnE1,
					src.tcsE1, m.tcsI2, dst.tcsE1, etaSrc, etaI2, etaDst)
				sum += src.p[r-1] * dst.p[v-1] * m.pI2[l-1] * t
			}
		}
	}
	return sum
}

// fourPortSystem draws a 4-port system under an ICN2 of height nc
// (C = 2·2^nc clusters) whose clusters come in runs of random length,
// each run with a random tree height in [lo, hi] and random networks.
func fourPortSystem(r *rand.Rand, nc, lo, hi int) *cluster.System {
	sys := &cluster.System{Name: "four-port", Ports: 4, ICN2: randomNet(r)}
	for len(sys.Clusters) < 2<<nc {
		run := cluster.Config{TreeLevels: lo + r.Intn(hi-lo+1), ICN1: randomNet(r), ECN1: randomNet(r)}
		for n := 1 + r.Intn(4); n > 0 && len(sys.Clusters) < 2<<nc; n-- {
			sys.Clusters = append(sys.Clusters, run)
		}
	}
	return sys
}

// TestMergedUnitMatchesCellReference is the differential property test
// of the one merged-unit recurrence: for every pair class of random
// 4-port systems (tree heights 2–6 under ICN2 heights 2–4, and taller
// trees whose (v, l) chains overflow the stack bound), under every
// crossing and variant reading, at rates below and past saturation,
// mergedUnit must equal the per-cell stageChain3 sum bit for bit.
func TestMergedUnitMatchesCellReference(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	opts := []Options{
		{},
		{CalibratedECNCrossing: true},
		{Variant: PaperLiteral},
		{Variant: PaperLiteral, CalibratedECNCrossing: true, InvertRelaxFactor: true},
	}
	var classes, bigCells, heapChains int
	for trial := 0; trial < 24; trial++ {
		nc := 2 + trial%3
		lo, hi := 2, 6
		if trial%4 == 3 {
			// Trees of height ≥ 9 under an ICN2 of height 4 need ≥ 36
			// (v, l) chains, past maxStackChains.
			lo, hi, nc = 9, 12, 4
		}
		sys := fourPortSystem(r, nc, lo, hi)
		msg := randomMsg(r)
		for oi, opt := range opts {
			opt.GatewayStoreAndForward = r.Intn(2) == 0
			m, err := New(sys, msg, opt)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			sat := m.SaturationPoint(1.0, 1e-4)
			for _, frac := range [...]float64{0, 0.3, 0.9, 1.4} {
				l := frac * sat
				for cp := range m.pairs {
					pc := &m.pairs[cp]
					if pc.cells == nil {
						continue
					}
					got, want := m.mergedUnit(pc, l), cellReference(m, cp, l)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("trial %d opt %d λ=%g class pair %d (nr=%d nv=%d nc=%d): mergedUnit %v, reference %v",
							trial, oi, l, cp, pc.nr, pc.nv, m.nc, got, want)
					}
					classes++
					if len(pc.cells) > 32 {
						bigCells++
					}
					if pc.nv*m.nc > maxStackChains {
						heapChains++
					}
				}
			}
		}
	}
	if bigCells == 0 || heapChains == 0 {
		t.Fatalf("shapes too small: %d pair classes, %d above 32 cells, %d beyond the stack chain bound",
			classes, bigCells, heapChains)
	}
}

// perClusterReference is Evaluate without run reuse: every cluster's
// intra and inter terms are computed on their own, each cluster with a
// fresh pair scratch.
func perClusterReference(m *Model, lambdaG float64) *Result {
	res := &Result{Lambda: lambdaG, PerCluster: make([]ClusterResult, len(m.cl))}
	var intraWeight, interWeight float64
	for i := range m.cl {
		cr := &res.PerCluster[i]
		cr.U = m.cl[i].u
		m.intraCluster(lambdaG, i, cr)
		m.interCluster(lambdaG, i, cr, newPairScratch(m.nClasses))
		cr.Mean = (1-cr.U)*cr.LIn + cr.U*cr.LOut
		if math.IsInf(cr.LIn, 1) || math.IsInf(cr.LOut, 1) {
			res.Saturated = true
		}
		res.MeanLatency += float64(m.cl[i].nodes) / m.totalNodes * cr.Mean
		wIn := float64(m.cl[i].nodes) * (1 - cr.U)
		wOut := float64(m.cl[i].nodes) * cr.U
		res.MeanIntra += wIn * cr.LIn
		res.MeanInter += wOut * cr.LOut
		intraWeight += wIn
		interWeight += wOut
	}
	if intraWeight > 0 {
		res.MeanIntra /= intraWeight
	}
	if interWeight > 0 {
		res.MeanInter /= interWeight
	}
	if res.Saturated {
		res.MeanLatency = math.Inf(1)
		res.MeanIntra = math.Inf(1)
		res.MeanInter = math.Inf(1)
	}
	return res
}

// interleavedSystem draws a system whose clusters pick one of a few
// templates at random, so classes recur in runs and also reappear after
// other classes.
func interleavedSystem(r *rand.Rand) *cluster.System {
	sys := &cluster.System{Name: "interleaved", Ports: 4, ICN2: randomNet(r)}
	templates := make([]cluster.Config, 2+r.Intn(2))
	for i := range templates {
		templates[i] = cluster.Config{TreeLevels: 1 + r.Intn(4), ICN1: randomNet(r), ECN1: randomNet(r)}
	}
	for len(sys.Clusters) < 16 {
		sys.Clusters = append(sys.Clusters, templates[r.Intn(len(templates))])
	}
	return sys
}

// randomDegradation draws a failure state over sys: survivor counts
// from a small set (so equal-shaped clusters split into classes and
// rejoin them), distribution overrides shared between clusters of one
// tree height (shared slices keep them in one class), capacity losses
// and an ICN2 override.
func randomDegradation(r *rand.Rand, sys *cluster.System) *Degradation {
	nc, err := sys.ICN2Levels()
	if err != nil {
		panic(err)
	}
	deg := &Degradation{Clusters: make([]ClusterDegradation, len(sys.Clusters)), ICN2Levels: nc}
	dists := map[int][]float64{}
	for i, cc := range sys.Clusters {
		d := &deg.Clusters[i]
		d.Nodes = sys.ClusterNodes(i)
		if r.Intn(3) == 0 {
			d.Nodes -= r.Intn(2)
		}
		if r.Intn(3) == 0 {
			if dists[cc.TreeLevels] == nil {
				dists[cc.TreeLevels] = randDist(r, cc.TreeLevels)
			}
			d.Dist = dists[cc.TreeLevels]
		}
		if r.Intn(4) == 0 {
			d.ECNCapacity = 1.25
		}
	}
	if r.Intn(2) == 0 {
		deg.ICN2Dist = randDist(r, nc)
		deg.ICN2Capacity = 1 + r.Float64()
	}
	return deg
}

// TestEvaluateRunReuseMatchesPerCluster: Evaluate copies a cluster's
// terms from the cluster before it when both are of one class. Every
// ClusterResult and the Result means must equal the per-cluster
// reference bit for bit, on intact systems whose classes interleave and
// on degraded builds, across the stable range and past saturation.
func TestEvaluateRunReuseMatchesPerCluster(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	var reused, reappeared int
	for trial := 0; trial < 30; trial++ {
		sys := interleavedSystem(r)
		msg := randomMsg(r)
		opt := Options{GatewayStoreAndForward: trial%2 == 0, CalibratedECNCrossing: trial%3 == 0}
		var m *Model
		var err error
		if trial%2 == 1 {
			m, err = NewDegraded(sys, msg, opt, randomDegradation(r, sys))
		} else {
			m, err = New(sys, msg, opt)
		}
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		seen := map[int]bool{}
		for i, c := range m.classOf {
			if i > 0 && c == m.classOf[i-1] {
				reused++
			} else if seen[c] {
				reappeared++
			}
			seen[c] = true
		}
		sat := m.SaturationPoint(1.0, 1e-4)
		for _, frac := range [...]float64{0.1, 0.6, 0.99, 1.2} {
			l := frac * sat
			got, want := m.Evaluate(l), perClusterReference(m, l)
			if !reflect.DeepEqual(resultBits(got), resultBits(want)) {
				t.Fatalf("trial %d λ=%g: Evaluate differs from the per-cluster reference\n got %+v\nwant %+v",
					trial, l, got, want)
			}
		}
	}
	if reused == 0 || reappeared == 0 {
		t.Fatalf("class layouts too regular: %d reused clusters, %d reappearing classes", reused, reappeared)
	}
}

// TestSystem1120EvaluatesThreeRuns pins the shape run reuse serves:
// Table 1's N=1120 system lists its 32 clusters as three runs of one
// class each, so Evaluate computes three clusters' terms per λ.
func TestSystem1120EvaluatesThreeRuns(t *testing.T) {
	m := mustModel(t, cluster.System1120(), 32, 256, Options{})
	runs := 0
	for i, c := range m.classOf {
		if i == 0 || c != m.classOf[i-1] {
			runs++
		}
	}
	if len(m.classOf) != 32 || runs != 3 {
		t.Fatalf("%d clusters in %d runs, want 32 in 3", len(m.classOf), runs)
	}
}
