package optimize

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// sameCandResult compares two candidate evaluations at the bit level —
// float fields via Float64bits so NaN/±0 cannot hide behind ==.
func sameCandResult(a, b *candResult) bool {
	if a.id != b.id || a.feasible != b.feasible || a.reason != b.reason ||
		a.fingerprint != b.fingerprint || a.nodes != b.nodes || a.clusters != b.clusters {
		return false
	}
	fa := [...]float64{a.cost, a.saturation, a.latency, a.latencyLambda, a.objective, a.availability, a.expLatency}
	fb := [...]float64{b.cost, b.saturation, b.latency, b.latencyLambda, b.objective, b.availability, b.expLatency}
	for i := range fa {
		if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) {
			return false
		}
	}
	return true
}

// TestEvaluateScratchStateIrrelevant is the scratch-pooling contract
// stated on evaluate: a candidate scores bit-identically whatever the
// scratch's cache state. It walks a randomized axis-neighbor sequence
// (the beam/anneal move) through one warm scratch — whose precompute
// handle accumulates the walk's pair classes and distance tables — and
// re-scores every step with a cold scratch; any divergence would break
// the spec+seed → byte-identical report invariant under work stealing.
func TestEvaluateScratchStateIrrelevant(t *testing.T) {
	sp, err := Compile(mustParse(t, validSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(41))
	warm := sp.newScratch()
	digits := make([]int, sp.Dims())
	canon := make([]int, sp.Dims())

	sp.Digits(r.Uint64()%sp.Size(), digits)
	for step := 0; step < 60; step++ {
		d := r.Intn(sp.Dims())
		digits[d] = r.Intn(sp.radix[d])
		id := sp.Canonical(sp.ID(digits), canon)

		got := sp.evaluate(context.Background(), id, warm)
		want := sp.evaluate(context.Background(), id, sp.newScratch())
		if !sameCandResult(&got, &want) {
			t.Fatalf("step %d: candidate %d scores differently warm vs cold:\nwarm %+v\ncold %+v",
				step, id, got, want)
		}
	}
}
