package service

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"time"

	"github.com/ccnet/ccnet/internal/canon"
	"github.com/ccnet/ccnet/internal/fleetsim"
	"github.com/ccnet/ccnet/internal/reqtrace"
	"github.com/ccnet/ccnet/internal/scenario"
)

// fleetsimKey hashes the scenario spec with its defaults resolved, so
// "seed omitted" and "seed": 1 share a cache entry.
func fleetsimKey(spec *scenario.Spec) (canon.Key, error) {
	norm := *spec
	if norm.Seed == 0 {
		norm.Seed = 1
	}
	return canon.Hash("fleetsim", norm)
}

// fleetsimItem computes one fleet simulation through the cache without
// streaming epochs; the batch executor uses it.
func (s *Server) fleetsimItem(ctx context.Context, spec *scenario.Spec) (payload []byte, key canon.Key, class string, err error) {
	study, err := spec.FleetStudy()
	if err != nil {
		return nil, "", "", badRequest(err)
	}
	if key, err = fleetsimKey(spec); err != nil {
		return nil, "", "", err
	}
	payload, class, err = s.do(ctx, key, func() ([]byte, error) {
		eng := &fleetsim.Engine{Workers: s.workers()}
		rep, err := eng.Run(context.Background(), study)
		if err != nil {
			return nil, badRequest(err)
		}
		return json.Marshal(rep)
	})
	return payload, key, class, err
}

// RunFleetSim executes one fleet simulation, streaming NDJSON to w:
// epoch "progress" frames as the trajectory evaluates (flushed
// immediately when w is an http.Flusher), then one terminal "result"
// frame. A spec already answered is served from the canonical-spec
// result cache as a single result frame with cached=true, and
// concurrent identical specs coalesce onto one computation (late
// arrivals stream no epochs, just the shared result marked cached). The
// returned report is nil when this call did not run the simulation
// itself. `ccscen fleet -ndjson` and POST /v1/fleetsim share this path.
func (s *Server) RunFleetSim(ctx context.Context, spec *scenario.Spec, w io.Writer) (*fleetsim.Report, error) {
	study, err := spec.FleetStudy()
	if err != nil {
		s.fleetsims.Add(1)
		s.failures.Add(1)
		return nil, badRequest(err)
	}
	return s.runFleetSim(ctx, spec, study, w)
}

// runFleetSim is RunFleetSim with the study already built — the HTTP
// handler assembles it once for its pre-stream validation and hands it
// straight in.
func (s *Server) runFleetSim(ctx context.Context, spec *scenario.Spec, study *fleetsim.Study, w io.Writer) (*fleetsim.Report, error) {
	s.fleetsims.Add(1)
	st, done := s.newStream(ctx, "fleetsim", w)
	defer done()

	tr := reqtrace.FromContext(ctx)
	sp := tr.StartSpan("canon")
	key, err := fleetsimKey(spec)
	sp.EndErr(err)
	if err != nil {
		s.failures.Add(1)
		return nil, err
	}
	cs := tr.StartSpan("cache")
	if payload, ok := s.cache.Get(key); ok {
		cs.Attr(reqtrace.String("class", classHit)).End()
		setHitClass(w, classHit)
		return nil, st.emitResult(true, key, payload)
	}
	cs.End()

	var rep *fleetsim.Report
	flightStart := time.Now()
	payload, err, shared := s.flight.Do(string(key), func() ([]byte, error) {
		s.computes.Add(1)
		sp := tr.StartSpan("compute")
		defer sp.End()
		var streamErr error
		eng := &fleetsim.Engine{
			Workers: s.workers(),
			EpochReady: func(em fleetsim.EpochMetrics) {
				if streamErr != nil {
					return
				}
				// Client gone; keep computing for the sharers.
				streamErr = st.emit(FleetEpochLine{Kind: FrameProgress, EpochMetrics: em})
			},
		}
		r, err := eng.Run(ctx, study)
		if err != nil {
			sp.EndErr(err)
			return nil, err
		}
		b, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		rep = r
		s.cache.Put(key, b)
		return b, nil
	})
	if shared {
		s.coalesced.Add(1)
		tr.RecordSpan("wait", flightStart, time.Since(flightStart)).
			Attr(reqtrace.String("class", classCoalesced))
		setHitClass(w, classCoalesced)
	} else {
		setHitClass(w, classMiss)
	}
	if err != nil {
		s.failures.Add(1)
		tr.SetError(err.Error())
		// Streaming has begun; report the failure in-band.
		st.emitError(err)
		return nil, err
	}
	return rep, st.emitResult(shared, key, payload)
}

// handleFleetSim serves POST /v1/fleetsim: the body is a kind "fleetsim"
// scenario spec (performability + fleetsim sections), decoded and
// validated up front (problems are a 400 APIError), then the trajectory
// streams back as chunked NDJSON — epoch progress frames and a terminal
// result frame. A client that disconnects cancels the evaluation via
// the request context.
func (s *Server) handleFleetSim(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	sp := reqtrace.FromContext(r.Context()).StartSpan("decode")
	spec, err := scenario.Parse(r.Body, "request")
	sp.EndErr(err)
	if err != nil {
		s.fail(w, r, http.StatusBadRequest, badRequest(err))
		return
	}
	if spec.FleetSim == nil {
		s.fail(w, r, http.StatusBadRequest, badRequest(errors.New("fleetsim: section required")))
		return
	}
	// Structural problems only the builder can see (C = 2(m/2)^n) must
	// fail before the status line commits to streaming.
	study, err := spec.FleetStudy()
	if err != nil {
		s.fail(w, r, http.StatusBadRequest, badRequest(err))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	_, _ = s.runFleetSim(r.Context(), spec, study, w)
}
