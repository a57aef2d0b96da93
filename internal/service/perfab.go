package service

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"time"

	"github.com/ccnet/ccnet/internal/canon"
	"github.com/ccnet/ccnet/internal/perfab"
	"github.com/ccnet/ccnet/internal/reqtrace"
	"github.com/ccnet/ccnet/internal/scenario"
)

// perfabKey hashes the scenario spec with its defaults resolved, so
// "seed omitted" and "seed": 1 share a cache entry.
func perfabKey(spec *scenario.Spec) (canon.Key, error) {
	norm := *spec
	if norm.Seed == 0 {
		norm.Seed = 1
	}
	return canon.Hash("performability", norm)
}

// performability computes one performability analysis through the cache
// without streaming progress; the batch executor uses it.
func (s *Server) performability(ctx context.Context, spec *scenario.Spec) (payload []byte, key canon.Key, class string, err error) {
	study, err := spec.PerformabilityStudy()
	if err != nil {
		return nil, "", "", badRequest(err)
	}
	if key, err = perfabKey(spec); err != nil {
		return nil, "", "", err
	}
	payload, class, err = s.do(ctx, key, func() ([]byte, error) {
		eng := &perfab.Engine{Workers: s.workers()}
		rep, err := eng.Run(context.Background(), study)
		if err != nil {
			return nil, badRequest(err)
		}
		return json.Marshal(rep)
	})
	return payload, key, class, err
}

// RunPerformability executes one analysis, streaming NDJSON to w:
// "progress" frames while states evaluate (flushed immediately when w
// is an http.Flusher), then one terminal "result" frame. A spec already
// answered is served from the canonical-spec result cache as a single
// result frame with cached=true, and concurrent identical specs
// coalesce onto one computation (late arrivals stream no progress, just
// the shared result marked cached). The returned report is nil when
// this call did not run the analysis itself. `ccscen perf -ndjson` and
// POST /v1/performability share this path.
func (s *Server) RunPerformability(ctx context.Context, spec *scenario.Spec, w io.Writer) (*perfab.Report, error) {
	study, err := spec.PerformabilityStudy()
	if err != nil {
		s.perfabs.Add(1)
		s.failures.Add(1)
		return nil, badRequest(err)
	}
	return s.runPerformability(ctx, spec, study, w)
}

// runPerformability is RunPerformability with the study already built —
// the HTTP handler assembles it once for its pre-stream validation and
// hands it straight in.
func (s *Server) runPerformability(ctx context.Context, spec *scenario.Spec, study *perfab.Study, w io.Writer) (*perfab.Report, error) {
	s.perfabs.Add(1)
	st, done := s.newStream(ctx, "performability", w)
	defer done()

	tr := reqtrace.FromContext(ctx)
	sp := tr.StartSpan("canon")
	key, err := perfabKey(spec)
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

	var rep *perfab.Report
	flightStart := time.Now()
	payload, err, shared := s.flight.Do(string(key), func() ([]byte, error) {
		s.computes.Add(1)
		sp := tr.StartSpan("compute")
		defer sp.End()
		var progressErr error
		eng := &perfab.Engine{
			Workers: s.workers(),
			Progress: func(p perfab.Progress) {
				if progressErr != nil {
					return
				}
				// Client gone; keep computing for the sharers.
				progressErr = st.emit(PerfProgressLine{Kind: FrameProgress, Progress: p})
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

// handlePerformability serves POST /v1/performability: the body is a
// scenario spec with a performability block, decoded and validated up
// front (problems are a 400 APIError), then the analysis streams back
// as chunked NDJSON — progress frames and a terminal result frame. A
// client that disconnects cancels the analysis via the request context.
func (s *Server) handlePerformability(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	sp := reqtrace.FromContext(r.Context()).StartSpan("decode")
	spec, err := scenario.Parse(r.Body, "request")
	sp.EndErr(err)
	if err != nil {
		s.fail(w, r, http.StatusBadRequest, badRequest(err))
		return
	}
	if spec.Performability == nil {
		s.fail(w, r, http.StatusBadRequest, badRequest(errors.New("performability: section required")))
		return
	}
	// Structural problems only the builder can see (C = 2(m/2)^n) must
	// fail before the status line commits to streaming.
	study, err := spec.PerformabilityStudy()
	if err != nil {
		s.fail(w, r, http.StatusBadRequest, badRequest(err))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	_, _ = s.runPerformability(r.Context(), spec, study, w)
}
