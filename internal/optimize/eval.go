package optimize

import (
	"context"
	"math"

	"github.com/ccnet/ccnet/internal/cluster"
	"github.com/ccnet/ccnet/internal/core"
	"github.com/ccnet/ccnet/internal/netchar"
)

// infeasible reasons, indexing InfeasibleCounts.
const (
	infStructure    = iota // cluster count does not form an ICN2 tree (or no clusters)
	infNodes               // node count outside [minNodes, maxNodes]
	infCost                // over budget
	infSaturation          // saturates below minSaturation (or at any rate)
	infLatency             // saturated at the probe rate, or over maxLatency
	infAvailability        // below minAvailability, over maxExpectedLatency, or unservable under failures
)

// InfeasibleCounts breaks down why candidates were rejected.
type InfeasibleCounts struct {
	Structure    int `json:"structure"`
	Nodes        int `json:"nodes"`
	Cost         int `json:"cost"`
	Saturation   int `json:"saturation"`
	Latency      int `json:"latency"`
	Availability int `json:"availability"`
}

func (c *InfeasibleCounts) add(reason int) {
	switch reason {
	case infStructure:
		c.Structure++
	case infNodes:
		c.Nodes++
	case infCost:
		c.Cost++
	case infSaturation:
		c.Saturation++
	case infLatency:
		c.Latency++
	case infAvailability:
		c.Availability++
	}
}

func (c *InfeasibleCounts) total() int {
	return c.Structure + c.Nodes + c.Cost + c.Saturation + c.Latency + c.Availability
}

// candResult is one evaluated candidate. feasible=false carries the
// rejection reason; feasible results carry the metrics and objective.
type candResult struct {
	id       uint64
	feasible bool
	reason   int // inf* when infeasible
	// fingerprint identifies the physical system (empty for candidates
	// rejected structurally); the search counts each system once.
	fingerprint string

	nodes, clusters int
	cost            float64
	saturation      float64
	latency         float64
	latencyLambda   float64
	objective       float64

	// Performability metrics (set only when the spec carries a block).
	availability float64
	expLatency   float64
}

// satTolerance is the relative bisection tolerance for saturation
// points. Tight enough that the frontier metrics are meaningful, loose
// enough that one candidate costs ~15 Evaluate calls.
const satTolerance = 1e-4

// evaluate scores candidate id through sc's buffers and precompute
// handle; evaluate is safe for concurrent calls with distinct scratch,
// and the result is bit-identical whatever the scratch's cache state.
// The candidate must be canonical (Canonical(id) == id) for dedup
// accounting to hold, but evaluation itself does not care. ctx reaches
// the candidate's performability run; a result evaluated while ctx
// ended is meaningless, and the search discards it.
func (sp *Space) evaluate(ctx context.Context, id uint64, sc *evalScratch) candResult {
	res := candResult{id: id}
	co := &sp.spec.Constraints

	geo, ok := sp.geometry(id, sc.digits, sc.groups)
	sc.groups = geo.groups // keep the (possibly grown) buffer for reuse
	if !ok {
		res.reason = infStructure
		return res
	}
	if _, ok := icn2Levels(geo.k, geo.clusters); !ok {
		res.reason = infStructure
		return res
	}
	res.fingerprint = sc.fingerprint(&geo)
	res.nodes, res.clusters = geo.nodes, geo.clusters

	// Cheap pre-model constraints: size and budget.
	if geo.nodes < co.MinNodes || (co.MaxNodes > 0 && geo.nodes > co.MaxNodes) {
		res.reason = infNodes
		return res
	}
	res.cost = sp.cost(&geo)
	if co.MaxCost > 0 && res.cost > co.MaxCost {
		res.reason = infCost
		return res
	}

	// Build the analytical model and locate the saturation point. The
	// System is scratch-owned: the model built from it (and anything
	// else referencing it) must not outlive this call.
	sys := geo.system(sp.spec.Name, sc.sys)
	sc.sys = sys
	model, err := core.NewWith(sys, netchar.MessageSpec{
		Flits: sp.spec.Message.Flits, FlitBytes: sp.spec.Message.FlitBytes,
	}, sp.spec.Model.Options(false), sc.pre)
	if err != nil {
		// Structurally valid geometries can still be rejected by the
		// model layer (degenerate service times); count as structure.
		res.reason = infStructure
		return res
	}
	res.saturation = model.SaturationPoint(1.0, satTolerance)
	if res.saturation <= 0 || res.saturation < co.MinSaturation {
		res.reason = infSaturation
		return res
	}

	// Latency probe: at the fixed SLO rate, or at a fraction of the
	// candidate's own saturation point.
	res.latencyLambda = co.Lambda
	if res.latencyLambda == 0 {
		res.latencyLambda = co.latencyFraction() * res.saturation
	}
	ev := model.Evaluate(res.latencyLambda)
	if ev.Saturated || math.IsInf(ev.MeanLatency, 0) || math.IsNaN(ev.MeanLatency) {
		res.reason = infLatency
		return res
	}
	res.latency = ev.MeanLatency
	if co.MaxLatency > 0 && res.latency > co.MaxLatency {
		res.reason = infLatency
		return res
	}

	// Performability weighting: run the failure analysis and apply the
	// availability constraints.
	if sp.spec.Performability != nil {
		if !sp.evaluatePerf(ctx, id, sc.digits, sys, &res) {
			return res
		}
	}

	res.feasible = true
	res.objective = sp.objectiveValue(&res)
	return res
}

// objectiveValue orients the spec's objective as higher-is-better.
func (sp *Space) objectiveValue(r *candResult) float64 {
	switch sp.spec.objective() {
	case ObjMinLatency:
		return -r.latency
	case ObjMinCost:
		return -r.cost
	case ObjMinExpectedLatency:
		return -r.expLatency
	default: // ObjMaxSaturation
		return r.saturation
	}
}

// system materializes the geometry as a cluster.System directly (the
// hot path: no JSON round-trip through scenario.SystemSpec), reusing
// sys's cluster buffer when the caller provides one.
func (g *candGeometry) system(name string, sys *cluster.System) *cluster.System {
	if sys == nil {
		sys = &cluster.System{}
	}
	sys.Name, sys.Ports, sys.ICN2 = name, g.ports, g.icn2
	if cap(sys.Clusters) < g.clusters {
		sys.Clusters = make([]cluster.Config, 0, g.clusters)
	}
	sys.Clusters = sys.Clusters[:0]
	for _, grp := range g.groups {
		for i := 0; i < grp.count; i++ {
			sys.Clusters = append(sys.Clusters, cluster.Config{
				TreeLevels: grp.levels, ICN1: grp.icn1, ECN1: grp.ecn1,
			})
		}
	}
	return sys
}

// point converts a feasible result into its frontier form. The System
// section is left empty — frontier membership tests consume only the
// metrics, so the report builder materializes System for the surviving
// points instead of for every feasible candidate. With a performability
// block the Pareto latency metric is the expected latency, so cost
// trades against what the cluster delivers under failures rather than
// its fault-free best case.
func (sp *Space) point(r *candResult) Point {
	p := Point{
		ID:               r.id,
		Nodes:            r.nodes,
		Clusters:         r.clusters,
		Cost:             r.cost,
		SaturationLambda: r.saturation,
		Latency:          r.latency,
		LatencyLambda:    r.latencyLambda,
		Objective:        r.objective,
	}
	if sp.spec.Performability != nil {
		p.Latency = r.expLatency
		p.NominalLatency = r.latency
		p.Availability = r.availability
	}
	return p
}
