package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"github.com/ccnet/ccnet/internal/batch"
	"github.com/ccnet/ccnet/internal/canon"
	"github.com/ccnet/ccnet/internal/fleetsim"
	"github.com/ccnet/ccnet/internal/optimize"
	"github.com/ccnet/ccnet/internal/perfab"
	"github.com/ccnet/ccnet/internal/reqtrace"
	"github.com/ccnet/ccnet/internal/scenario"
)

// job is one compute request, decoded, validated and built by its
// endpoint's parse (the "decode" span). key derives its canonical cache
// key ("canon"); run computes its result payload ("compute"), passing
// progress frames to emit when emit is non-nil.
type job interface {
	key() (canon.Key, error)
	run(ctx context.Context, workers int, emit func(any) error) ([]byte, error)
}

// endpoint describes one compute kind: its name (the POST /v1/{name}
// route, the batch item kind, the request counter and metric label),
// whether it answers as an NDJSON stream rather than a JSON Envelope,
// whether batches accept it, and the parser that turns a body into a
// job, labelling its errors with name. Parse errors caused by the spec
// rather than its JSON are badRequest-tagged.
type endpoint struct {
	name   string
	stream bool
	batch  bool
	parse  func(r io.Reader, name string) (job, error)
}

// Indexes into endpoints and Server.requests.
const (
	epEvaluate = iota
	epSweep
	epCampaign
	epOptimize
	epPerformability
	epFleetSim
)

var endpoints = [...]endpoint{
	epEvaluate:       {name: "evaluate", batch: true, parse: parseEvaluate},
	epSweep:          {name: "sweep", batch: true, parse: parseSweep},
	epCampaign:       {name: "campaign", batch: true, parse: scenarioParser(newCampaignJob)},
	epOptimize:       {name: "optimize", stream: true, parse: parseOptimize},
	epPerformability: {name: "performability", stream: true, batch: true, parse: scenarioParser(newPerfabJob)},
	epFleetSim:       {name: "fleetsim", stream: true, batch: true, parse: scenarioParser(newFleetJob)},
}

// handle serves POST /v1/{name} for endpoints[i]: a streaming kind
// commits its 200 and streams NDJSON, the others answer one Envelope.
// The request is counted on entry, so invalid ones count too.
func (s *Server) handle(i int) http.HandlerFunc {
	ep := &endpoints[i]
	return func(w http.ResponseWriter, r *http.Request) {
		s.requests[i].Add(1)
		r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
		sp := reqtrace.FromContext(r.Context()).StartSpan("decode")
		j, err := ep.parse(r.Body, "request")
		sp.EndErr(err)
		if err != nil {
			s.fail(w, r, http.StatusBadRequest, err)
			return
		}
		if ep.stream {
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
			_ = s.stream(r.Context(), ep.name, j, w)
			return
		}
		payload, key, class, err := s.answer(r.Context(), j, nil)
		if err != nil {
			s.fail(w, r, statusFor(err), err)
			return
		}
		// X-Cache carries the hit class verbatim; the middleware reads
		// it back for the histogram label.
		w.Header().Set("X-Cache", class)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		if err := writeResult(w, "", cachedClass(class), key, payload); err != nil {
			s.writeErrors.Add(1)
		}
	}
}

// answer derives j's key, then answers from the cache, or computes
// through the singleflight group (so concurrent identical requests
// compute once) and caches the successful payload. class reports how
// the answer was produced: classHit (cache), classCoalesced (shared a
// concurrent identical computation) or classMiss (computed here). The
// stage spans land on the request's trace: "canon" for the key,
// "cache" for the lookup, "compute" on the caller that started the
// computation, "wait" on callers that coalesced onto it.
func (s *Server) answer(ctx context.Context, j job, emit func(any) error) ([]byte, canon.Key, string, error) {
	tr := reqtrace.FromContext(ctx)
	sp := tr.StartSpan("canon")
	key, err := j.key()
	sp.EndErr(err)
	if err != nil {
		return nil, "", "", err
	}
	cs := tr.StartSpan("cache")
	if v, ok := s.cache.Get(key); ok {
		cs.Attr(reqtrace.String("class", classHit)).End()
		return v, key, classHit, nil
	}
	cs.End()
	flightStart := time.Now()
	v, err, shared := s.flight.Do(ctx, string(key), func(ctx context.Context) ([]byte, error) {
		s.computes.Add(1)
		sp := tr.StartSpan("compute")
		v, err := j.run(ctx, s.workers(), emit)
		sp.EndErr(err)
		if err == nil {
			s.cache.Put(key, v)
		}
		return v, err
	})
	if shared {
		s.coalesced.Add(1)
		tr.RecordSpan("wait", flightStart, time.Since(flightStart)).
			Attr(reqtrace.String("class", classCoalesced))
		return v, key, classCoalesced, err
	}
	return v, key, classMiss, err
}

// stream answers j as NDJSON on w: progress frames while it computes,
// then one terminal "result" frame, or an "error" frame since the
// status line has already committed. A cached or coalesced answer is a
// single result frame with cached=true.
func (s *Server) stream(ctx context.Context, endpoint string, j job, w io.Writer) error {
	st, done := s.newStream(ctx, endpoint, w)
	defer done()
	payload, key, class, err := s.answer(ctx, j, st.emit)
	// The 200 went out before the cache was consulted, so the class
	// reaches the middleware on its writer rather than in X-Cache.
	// Other writers (ccscen's stdout) have no middleware.
	if sw, ok := w.(*statusWriter); ok {
		sw.hitClass = class
	}
	if err != nil {
		s.failures.Add(1)
		reqtrace.FromContext(ctx).SetError(err.Error())
		st.emitError(err)
		return err
	}
	return st.emitResult(cachedClass(class), key, payload)
}

// runStream counts one request of endpoints[i] from a caller that
// holds a parsed spec rather than a body, then streams j to w, or
// returns jerr (the error building j) without writing anything.
func (s *Server) runStream(ctx context.Context, i int, j job, jerr error, w io.Writer) error {
	s.requests[i].Add(1)
	if jerr != nil {
		s.failures.Add(1)
		return jerr
	}
	return s.stream(ctx, endpoints[i].name, j, w)
}

// RunOptimize streams one design-space search to w as POST /v1/optimize
// does (`ccscen optimize -ndjson`). The report is nil unless this call
// ran the search itself.
func (s *Server) RunOptimize(ctx context.Context, spec *optimize.SearchSpec, w io.Writer) (*optimize.Report, error) {
	j := &optimizeJob{spec: spec}
	if err := s.runStream(ctx, epOptimize, j, nil, w); err != nil {
		return nil, err
	}
	return j.rep, nil
}

// RunPerformability streams one performability analysis to w as POST
// /v1/performability does (`ccscen perf -ndjson`). The report is nil
// unless this call ran the analysis itself.
func (s *Server) RunPerformability(ctx context.Context, spec *scenario.Spec, w io.Writer) (*perfab.Report, error) {
	j, err := newPerfabJob(spec)
	if err = s.runStream(ctx, epPerformability, j, err, w); err != nil {
		return nil, err
	}
	return j.rep, nil
}

// RunFleetSim streams one fleet simulation to w as POST /v1/fleetsim
// does (`ccscen fleet -ndjson`). The report is nil unless this call ran
// the simulation itself.
func (s *Server) RunFleetSim(ctx context.Context, spec *scenario.Spec, w io.Writer) (*fleetsim.Report, error) {
	j, err := newFleetJob(spec)
	if err = s.runStream(ctx, epFleetSim, j, err, w); err != nil {
		return nil, err
	}
	return j.rep, nil
}

// execBatchItem answers one batch item through its kind's parser and
// the shared answer step, on the batch's context. Item errors come back
// in the Outcome, prefixed with the item's index; the batch itself
// never fails on one item.
func (s *Server) execBatchItem(ctx context.Context, index int, it batch.Item) batch.Outcome {
	name := fmt.Sprintf("item %d", index)
	payload, key, class, err := s.batchItem(ctx, name, it)
	if err != nil {
		s.failures.Add(1)
		return batch.Outcome{Err: fmt.Errorf("%s: %w", name, err)}
	}
	return batch.Outcome{Payload: payload, Key: string(key), Cached: cachedClass(class)}
}

// batchItem parses it with its kind's parser and answers it.
func (s *Server) batchItem(ctx context.Context, name string, it batch.Item) ([]byte, canon.Key, string, error) {
	if len(it.Spec) == 0 {
		return nil, "", "", badRequest(errors.New("spec: required"))
	}
	var valid []string
	for i := range endpoints {
		ep := &endpoints[i]
		if !ep.batch {
			continue
		}
		if ep.name == it.Kind {
			j, err := ep.parse(bytes.NewReader(it.Spec), name)
			if err != nil {
				return nil, "", "", badRequest(err)
			}
			return s.answer(ctx, j, nil)
		}
		valid = append(valid, ep.name)
	}
	return nil, "", "", badRequest(fmt.Errorf("kind: unknown kind %q (valid: %s)", it.Kind, strings.Join(valid, ", ")))
}
