package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"github.com/ccnet/ccnet/internal/canon"
	"github.com/ccnet/ccnet/internal/cluster"
	"github.com/ccnet/ccnet/internal/core"
	"github.com/ccnet/ccnet/internal/fleetsim"
	"github.com/ccnet/ccnet/internal/netchar"
	"github.com/ccnet/ccnet/internal/optimize"
	"github.com/ccnet/ccnet/internal/perfab"
	"github.com/ccnet/ccnet/internal/scenario"
)

// modelJob holds the built model inputs evaluate and sweep share.
type modelJob struct {
	sys *cluster.System
	msg netchar.MessageSpec
	opt core.Options
}

// build validates the sections evaluate and sweep share, plus the
// request's own rate check lambdaErr, and builds the model inputs.
func (m *modelJob) build(sys *scenario.SystemSpec, msg MessageJSON, model *scenario.ModelSpec, sf bool, lambdaErr error) (err error) {
	var errs []error
	if err := sys.Validate(); err != nil {
		errs = append(errs, err)
	}
	if msg.Flits <= 0 {
		errs = append(errs, fmt.Errorf("message.flits: must be positive, got %d", msg.Flits))
	}
	if msg.FlitBytes <= 0 {
		errs = append(errs, fmt.Errorf("message.flitBytes: must be positive, got %d", msg.FlitBytes))
	}
	if err := model.Validate(); err != nil {
		errs = append(errs, err)
	}
	if lambdaErr != nil {
		errs = append(errs, lambdaErr)
	}
	if len(errs) > 0 {
		return badRequest(errors.Join(errs...))
	}
	if m.sys, err = sys.Build("request"); err != nil {
		return badRequest(err)
	}
	m.msg = netchar.MessageSpec{Flits: msg.Flits, FlitBytes: msg.FlitBytes}
	m.opt = model.Options(sf)
	return nil
}

// fields starts the key fields of a request of kind over the model.
func (m *modelJob) fields(kind string) *canon.Fields {
	return canon.ModelFields(kind, m.sys, m.msg, m.opt)
}

// evaluateJob is one POST /v1/evaluate body with its system built. It
// embeds the request so a parse costs one allocation for both.
type evaluateJob struct {
	EvaluateRequest
	modelJob
}

func parseEvaluate(r io.Reader, _ string) (job, error) {
	j := new(evaluateJob)
	if err := decodeJSON(r, &j.EvaluateRequest); err != nil {
		return nil, err
	}
	var lambdaErr error
	if l := j.Lambda; l <= 0 || math.IsNaN(l) || math.IsInf(l, 0) {
		lambdaErr = fmt.Errorf("lambda: must be a positive finite rate, got %v", l)
	}
	if err := j.build(&j.System, j.Message, &j.Model, j.StoreAndForward, lambdaErr); err != nil {
		return nil, err
	}
	return j, nil
}

func (j *evaluateJob) key() (canon.Key, error) {
	f := j.fields("evaluate")
	f.Float(j.Lambda)
	return f.Key()
}

func (j *evaluateJob) run(context.Context, int, func(any) error) ([]byte, error) {
	m, err := core.New(j.sys, j.msg, j.opt)
	if err != nil {
		return nil, badRequest(err)
	}
	return json.Marshal(EvaluateResult{System: systemInfo(j.sys), PointJSON: pointJSON(m.Evaluate(j.Lambda))})
}

// sweepJob is one POST /v1/sweep body with its system built and, for
// an explicit grid, its rates materialized.
type sweepJob struct {
	SweepRequest
	modelJob
	grid []float64 // nil for an auto grid
}

func parseSweep(r io.Reader, _ string) (job, error) {
	j := new(sweepJob)
	if err := decodeJSON(r, &j.SweepRequest); err != nil {
		return nil, err
	}
	if err := j.build(&j.System, j.Message, &j.Model, j.StoreAndForward, j.Lambda.Validate("lambda")); err != nil {
		return nil, err
	}
	// Explicit grids resolve without building any model and key on the
	// materialized rates. Auto grids would need the paper model's
	// saturation bisection just to materialize — so they key on the
	// resolved inputs instead (the grid is a pure function of them) and
	// defer materialization to run, keeping cache hits cheap on both
	// shapes.
	if !j.Lambda.Auto {
		spec := j.series()
		var err error
		if j.grid, err = spec.Grid(nil); err != nil {
			return nil, badRequest(err)
		}
	}
	return j, nil
}

// series is a synthetic one-series scenario that reuses the scenario
// engine's model construction and grid materialization (including auto
// grids).
func (j *sweepJob) series() scenario.Spec {
	return scenario.Spec{
		Name:   "sweep",
		System: j.System,
		Traffic: scenario.TrafficSpec{
			Flits:     j.Message.Flits,
			FlitBytes: []int{j.Message.FlitBytes},
			Lambda:    j.Lambda,
		},
		Model: j.Model,
	}
}

func (j *sweepJob) key() (canon.Key, error) {
	if j.Lambda.Auto {
		f := j.fields("sweep-auto")
		autoGridFields(f, j.Lambda)
		return f.Key()
	}
	f := j.fields("sweep")
	f.Floats(j.grid)
	return f.Key()
}

func (j *sweepJob) run(_ context.Context, workers int, _ func(any) error) ([]byte, error) {
	spec := j.series()
	g := j.grid
	var models []*core.Model
	// The served model's saturation point: an auto grid without S&F
	// serves the paper model it bisected for the grid, so it is known.
	sat := -1.0
	if g == nil { // auto grid: materialize from the paper model
		paper, err := spec.BuildModels(j.sys, false)
		if err != nil {
			return nil, badRequest(err)
		}
		p := paper[0].SaturationPoint(1.0, 1e-4)
		if g, err = spec.GridAt([]float64{p}); err != nil {
			return nil, badRequest(err)
		}
		if !j.StoreAndForward {
			models, sat = paper, p
		}
	}
	if models == nil {
		var err error
		if models, err = spec.BuildModels(j.sys, j.StoreAndForward); err != nil {
			return nil, badRequest(err)
		}
	}
	m := models[0]
	if sat < 0 {
		sat = m.SaturationPoint(1.0, 1e-4)
	}
	out := SweepResult{
		System:          systemInfo(j.sys),
		SaturationPoint: sat,
	}
	for _, res := range m.SweepParallel(g, workers) {
		out.Points = append(out.Points, pointJSON(res))
	}
	return json.Marshal(out)
}

// scenarioKey hashes a scenario spec under kind with the one default
// the runners apply themselves resolved, so "seed omitted" and
// "seed": 1 share a cache entry.
func scenarioKey(kind string, spec *scenario.Spec) (canon.Key, error) {
	norm := *spec
	if norm.Seed == 0 {
		norm.Seed = 1
	}
	return canon.Hash(kind, norm)
}

// scenarioParser parses a scenario spec body into the job mk builds
// from it.
func scenarioParser[J job](mk func(*scenario.Spec) (J, error)) func(io.Reader, string) (job, error) {
	return func(r io.Reader, name string) (job, error) {
		spec, err := scenario.Parse(r, name)
		if err != nil {
			return nil, badRequest(err)
		}
		j, err := mk(spec)
		if err != nil {
			return nil, err
		}
		return j, nil
	}
}

// campaignJob is one full scenario spec (POST /v1/campaign).
type campaignJob struct{ spec *scenario.Spec }

func newCampaignJob(spec *scenario.Spec) (*campaignJob, error) { return &campaignJob{spec}, nil }

func (j *campaignJob) key() (canon.Key, error) { return scenarioKey("campaign", j.spec) }

func (j *campaignJob) run(ctx context.Context, workers int, _ func(any) error) ([]byte, error) {
	runner := &scenario.Runner{Workers: workers}
	o := runner.RunContext(ctx, []*scenario.Spec{j.spec})[0]
	if o.Err != nil {
		if ctx.Err() != nil {
			return nil, o.Err // cancelled: not the spec's fault
		}
		return nil, badRequest(fmt.Errorf("scenario %s: %w", j.spec.Name, o.Err))
	}
	out := CampaignResult{
		Name:   o.Result.ID,
		Title:  o.Result.Title,
		System: systemInfo(o.Sys),
		Passed: o.Passed(),
		Notes:  o.Result.Notes,
	}
	for _, series := range o.Result.Series {
		cs := CampaignSeries{Label: series.Label}
		for _, p := range series.Points {
			cs.Points = append(cs.Points, CampaignPoint{
				Lambda:     p.Lambda,
				Analysis:   num(p.Analysis),
				AnalysisSF: num(p.AnalysisSF),
				Simulation: num(p.Simulation),
				SimCI:      num(p.SimCI),
			})
		}
		out.Series = append(out.Series, cs)
	}
	for _, a := range o.Assertions {
		out.Assertions = append(out.Assertions, AssertionJSON{
			Type: a.Spec.Type, Pass: a.Pass, Detail: a.Detail,
		})
	}
	return json.Marshal(out)
}

// report keeps an engine's report for the Run* caller and marshals it.
// An engine failure is the request's fault unless the computation was
// cancelled.
func report[R any](ctx context.Context, dst **R, rep *R, err error) ([]byte, error) {
	if err != nil {
		if ctx.Err() == nil {
			err = badRequest(err)
		}
		return nil, err
	}
	*dst = rep
	return json.Marshal(rep)
}

// optimizeJob is one design-space search spec (POST /v1/optimize). rep
// is set when run completes.
type optimizeJob struct {
	spec *optimize.SearchSpec
	rep  *optimize.Report
}

func parseOptimize(r io.Reader, name string) (job, error) {
	spec, err := optimize.Parse(r, name)
	if err != nil {
		return nil, badRequest(err)
	}
	return &optimizeJob{spec: spec}, nil
}

func (j *optimizeJob) key() (canon.Key, error) {
	norm := *j.spec
	if norm.Seed == 0 {
		norm.Seed = 1
	}
	return canon.Hash("optimize", norm)
}

func (j *optimizeJob) run(ctx context.Context, workers int, emit func(any) error) ([]byte, error) {
	eng := &optimize.Engine{Workers: workers}
	if emit != nil {
		eng.Progress = func(p optimize.Progress) { emit(OptimizeProgressLine{Kind: FrameProgress, Progress: p}) }
	}
	rep, err := eng.Run(ctx, j.spec)
	return report(ctx, &j.rep, rep, err)
}

// perfabJob is one scenario spec with its performability study built
// (POST /v1/performability). rep is set when run completes.
type perfabJob struct {
	spec  *scenario.Spec
	study *perfab.Study
	rep   *perfab.Report
}

// newPerfabJob builds the study, so structural problems only the
// builder can see (C = 2(m/2)^n) fail before a stream commits.
func newPerfabJob(spec *scenario.Spec) (*perfabJob, error) {
	study, err := spec.PerformabilityStudy()
	if err != nil {
		return nil, badRequest(err)
	}
	return &perfabJob{spec: spec, study: study}, nil
}

func (j *perfabJob) key() (canon.Key, error) { return scenarioKey("performability", j.spec) }

func (j *perfabJob) run(ctx context.Context, workers int, emit func(any) error) ([]byte, error) {
	eng := &perfab.Engine{Workers: workers}
	if emit != nil {
		eng.Progress = func(p perfab.Progress) { emit(PerfProgressLine{Kind: FrameProgress, Progress: p}) }
	}
	rep, err := eng.Run(ctx, j.study)
	return report(ctx, &j.rep, rep, err)
}

// fleetJob is one kind "fleetsim" scenario spec with its study built
// (POST /v1/fleetsim). rep is set when run completes.
type fleetJob struct {
	spec  *scenario.Spec
	study *fleetsim.Study
	rep   *fleetsim.Report
}

// newFleetJob builds the study, so structural problems fail before a
// stream commits.
func newFleetJob(spec *scenario.Spec) (*fleetJob, error) {
	study, err := spec.FleetStudy()
	if err != nil {
		return nil, badRequest(err)
	}
	return &fleetJob{spec: spec, study: study}, nil
}

func (j *fleetJob) key() (canon.Key, error) { return scenarioKey("fleetsim", j.spec) }

func (j *fleetJob) run(ctx context.Context, workers int, emit func(any) error) ([]byte, error) {
	eng := &fleetsim.Engine{Workers: workers}
	if emit != nil {
		eng.EpochReady = func(em fleetsim.EpochMetrics) { emit(FleetEpochLine{Kind: FrameProgress, EpochMetrics: em}) }
	}
	rep, err := eng.Run(ctx, j.study)
	return report(ctx, &j.rep, rep, err)
}
