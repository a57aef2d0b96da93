package service

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"time"

	"github.com/ccnet/ccnet/internal/canon"
	"github.com/ccnet/ccnet/internal/optimize"
	"github.com/ccnet/ccnet/internal/reqtrace"
)

// optimizeKey hashes the search spec with its defaults resolved, so
// "seed omitted" and "seed": 1 share a cache entry.
func optimizeKey(spec *optimize.SearchSpec) (canon.Key, error) {
	norm := *spec
	if norm.Seed == 0 {
		norm.Seed = 1
	}
	return canon.Hash("optimize", norm)
}

// RunOptimize executes one design-space search, streaming NDJSON to w:
// "progress" frames while the search runs (flushed immediately when w
// is an http.Flusher), then one terminal "result" frame. A spec already
// answered is served from the canonical-spec result cache as a single
// result frame with cached=true, and concurrent identical specs
// coalesce onto one computation (the late arrivals stream no progress,
// just the shared result marked cached). The returned report is nil
// when this call did not run the search itself. `ccscen optimize
// -ndjson` and POST /v1/optimize share this path.
func (s *Server) RunOptimize(ctx context.Context, spec *optimize.SearchSpec, w io.Writer) (*optimize.Report, error) {
	s.optimizes.Add(1)
	st, done := s.newStream(ctx, "optimize", w)
	defer done()

	tr := reqtrace.FromContext(ctx)
	sp := tr.StartSpan("canon")
	key, err := optimizeKey(spec)
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

	// Concurrent identical specs coalesce onto one search through the
	// same singleflight group the other endpoints use: the winning
	// caller runs the engine (and owns the progress stream); later
	// arrivals block without progress lines and share the result. If
	// the winner disconnects mid-search its context aborts the shared
	// computation — the sharers get the error frame and may retry
	// against a now-warm cache.
	var rep *optimize.Report
	flightStart := time.Now()
	payload, err, shared := s.flight.Do(string(key), func() ([]byte, error) {
		s.computes.Add(1)
		sp := tr.StartSpan("compute")
		defer sp.End()
		var progressErr error
		eng := &optimize.Engine{
			Workers: s.workers(),
			Progress: func(p optimize.Progress) {
				if progressErr != nil {
					return
				}
				// Client gone; keep computing for the sharers.
				progressErr = st.emit(OptimizeProgressLine{Kind: FrameProgress, Progress: p})
			},
		}
		r, err := eng.Run(ctx, spec)
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

// handleOptimize serves POST /v1/optimize: the spec is decoded and
// validated up front (problems are a 400 APIError), then the search
// streams back as chunked NDJSON — progress frames and a terminal
// result frame, exactly the RunOptimize format. A client that
// disconnects cancels the search via the request context.
func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	sp := reqtrace.FromContext(r.Context()).StartSpan("decode")
	spec, err := optimize.Parse(r.Body, "request")
	sp.EndErr(err)
	if err != nil {
		s.fail(w, r, http.StatusBadRequest, badRequest(err))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	_, _ = s.RunOptimize(r.Context(), spec, w)
}
