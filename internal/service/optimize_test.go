package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ccnet/ccnet/internal/optimize"
)

// optimizeSpec is a small grid search (96 raw candidates) that finishes
// in milliseconds.
const optimizeSpec = `{
	"name": "svc-opt",
	"space": {
		"ports": [4],
		"icn2Scale": [1, 1.5],
		"groups": [{"counts": [0, 4, 8], "treeLevels": [1, 2], "icn1": ["net1", "net2"]}]
	},
	"message": {"flits": 16, "flitBytes": 128},
	"constraints": {"cost": {"switchBase": 10, "linkBase": 1}},
	"search": {"maxCandidates": 1000}
}`

// postOptimize sends the spec and returns the NDJSON lines.
func postOptimize(t *testing.T, h http.Handler, body string) (int, []string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/optimize", strings.NewReader(body)))
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	return rec.Code, lines
}

func TestOptimizeEndpoint(t *testing.T) {
	srv := New(Options{Workers: 2})
	h := srv.Handler()

	code, lines := postOptimize(t, h, optimizeSpec)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, strings.Join(lines, "\n"))
	}
	last := lines[len(lines)-1]
	var frontier ResultLine
	if err := json.Unmarshal([]byte(last), &frontier); err != nil {
		t.Fatalf("terminal line %q: %v", last, err)
	}
	if frontier.Kind != FrameResult || frontier.Cached || frontier.Key == "" {
		t.Fatalf("terminal line %+v", frontier)
	}
	var rep struct {
		Method   string            `json:"method"`
		Frontier []json.RawMessage `json:"frontier"`
	}
	if err := json.Unmarshal(frontier.Result, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Method != "grid" || len(rep.Frontier) == 0 {
		t.Fatalf("report %+v", rep)
	}
	// All preceding lines are progress updates.
	for _, l := range lines[:len(lines)-1] {
		var p OptimizeProgressLine
		if err := json.Unmarshal([]byte(l), &p); err != nil || p.Kind != FrameProgress {
			t.Fatalf("non-progress line %q (err %v)", l, err)
		}
	}

	// The repeat answers from the cache: one frontier line, same result.
	code, lines2 := postOptimize(t, h, optimizeSpec)
	if code != http.StatusOK {
		t.Fatalf("repeat status %d", code)
	}
	if len(lines2) != 1 {
		t.Fatalf("cached repeat streamed %d lines, want 1", len(lines2))
	}
	var cached ResultLine
	if err := json.Unmarshal([]byte(lines2[0]), &cached); err != nil {
		t.Fatal(err)
	}
	if !cached.Cached || cached.Key != frontier.Key {
		t.Fatalf("repeat not cached: %+v", cached)
	}
	if string(cached.Result) != string(frontier.Result) {
		t.Fatal("cached frontier differs from the computed one")
	}
	if got := srv.Computes(); got != 1 {
		t.Fatalf("computed %d times across both requests, want 1", got)
	}
}

func TestOptimizeEndpointRejectsBadSpecs(t *testing.T) {
	srv := New(Options{})
	h := srv.Handler()
	for name, body := range map[string]string{
		"badJSON":   `{`,
		"unknown":   `{"name": "x", "bogus": 1}`,
		"noSpace":   `{"name": "x", "message": {"flits": 1, "flitBytes": 1}}`,
		"badMethod": `{"name": "x", "space": {"ports": [4], "groups": [{"treeLevels": [1]}]}, "message": {"flits": 1, "flitBytes": 1}, "search": {"method": "?"}}`,
	} {
		t.Run(name, func(t *testing.T) {
			code, lines := postOptimize(t, h, body)
			if code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400 (%s)", code, strings.Join(lines, "\n"))
			}
		})
	}
}

// TestOptimizeCoalescesConcurrentSpecs: identical specs in flight at
// once compute one search; the late arrivals stream just the shared
// frontier line.
func TestOptimizeCoalescesConcurrentSpecs(t *testing.T) {
	srv := New(Options{Workers: 2})
	h := srv.Handler()
	const n = 4
	codes := make([]int, n)
	bodies := make([]string, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/optimize", strings.NewReader(optimizeSpec)))
			codes[i], bodies[i] = rec.Code, rec.Body.String()
		}(i)
	}
	wg.Wait()
	var frontiers []string
	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d", i, codes[i])
		}
		lines := strings.Split(strings.TrimSpace(bodies[i]), "\n")
		last := lines[len(lines)-1]
		var f ResultLine
		if err := json.Unmarshal([]byte(last), &f); err != nil || f.Kind != FrameResult {
			t.Fatalf("request %d terminal line %q (err %v)", i, last, err)
		}
		frontiers = append(frontiers, string(f.Result))
	}
	for i := 1; i < n; i++ {
		if frontiers[i] != frontiers[0] {
			t.Fatalf("request %d frontier differs from request 0", i)
		}
	}
	// Exactly one search ran; everyone else hit the cache or coalesced.
	if got := srv.Computes(); got != 1 {
		t.Fatalf("computed %d searches for %d concurrent identical specs", got, n)
	}
}

// TestOptimizeSeedDefaultSharesCacheEntry: "seed omitted" and "seed": 1
// must hash identically.
func TestOptimizeSeedDefaultSharesCacheEntry(t *testing.T) {
	srv := New(Options{Workers: 2})
	h := srv.Handler()
	if code, _ := postOptimize(t, h, optimizeSpec); code != http.StatusOK {
		t.Fatal("first request failed")
	}
	withSeed := strings.Replace(optimizeSpec, `"name": "svc-opt",`, `"name": "svc-opt", "seed": 1,`, 1)
	code, lines := postOptimize(t, h, withSeed)
	if code != http.StatusOK {
		t.Fatal("second request failed")
	}
	if len(lines) != 1 || !strings.Contains(lines[0], `"cached":true`) {
		t.Fatalf("seed:1 did not share the seedless cache entry:\n%s", strings.Join(lines, "\n"))
	}
}

// slowOptimizeSpec is a grid of 5200 candidates, evaluated in two
// waves of up to 4096: the engine reports progress while absorbing the
// first wave, and checks its context before evaluating the second.
const slowOptimizeSpec = `{
	"name": "svc-opt-slow",
	"space": {
		"ports": [4, 8],
		"icn2Scale": [1, 1.25, 1.5, 1.75, 2, 2.25, 2.5, 3],
		"groups": [
			{"counts": [0, 2, 4, 8, 16], "treeLevels": [1, 2, 3], "icn1": ["net1", "net2"]},
			{"counts": [0, 2, 4, 8], "treeLevels": [1, 2], "icn1": ["net1", "net2"]}
		]
	},
	"message": {"flits": 16, "flitBytes": 128},
	"search": {"method": "grid", "maxCandidates": 100000}
}`

// stalledWriter is a client that stopped reading: its first write
// closes entered, and every write blocks until release, then fails.
// Given to the caller that starts a search, it holds the search inside
// its first progress frame.
type stalledWriter struct {
	entered, release chan struct{}
	once             sync.Once
}

func newStalledWriter() *stalledWriter {
	return &stalledWriter{entered: make(chan struct{}), release: make(chan struct{})}
}

func (w *stalledWriter) Write([]byte) (int, error) {
	w.once.Do(func() { close(w.entered) })
	<-w.release
	return 0, errors.New("client hung up")
}

// waiting reports how many callers wait on key's flight.
func (g *flightGroup) waiting(key string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c := g.m[key]; c != nil {
		return c.waiters
	}
	return 0
}

// waitFor polls cond until it holds, failing the test after 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// coalescedSearch is a slow search whose first caller's client stalls
// inside the first progress frame, with a second caller coalesced onto
// it. done1 and done2 receive each caller's RunOptimize error.
type coalescedSearch struct {
	key              string
	cancel1, cancel2 context.CancelFunc
	w1               *stalledWriter
	out2             strings.Builder
	done1, done2     chan error
}

func startCoalescedSearch(t *testing.T, srv *Server) *coalescedSearch {
	t.Helper()
	spec := mustParseOptimize(t, slowOptimizeSpec)
	key, err := (&optimizeJob{spec: spec}).key()
	if err != nil {
		t.Fatal(err)
	}
	cs := &coalescedSearch{key: string(key), w1: newStalledWriter(), done1: make(chan error, 1), done2: make(chan error, 1)}
	ctx1, cancel1 := context.WithCancel(context.Background())
	ctx2, cancel2 := context.WithCancel(context.Background())
	cs.cancel1, cs.cancel2 = cancel1, cancel2
	go func() {
		_, err := srv.RunOptimize(ctx1, spec, cs.w1)
		cs.done1 <- err
	}()
	<-cs.w1.entered
	go func() {
		_, err := srv.RunOptimize(ctx2, spec, &cs.out2)
		cs.done2 <- err
	}()
	waitFor(t, "the second caller to coalesce", func() bool { return srv.flight.waiting(cs.key) == 2 })
	return cs
}

// TestCoalescedOptimizeSurvivesFirstCallerCancel: the caller that
// started a search hangs up; the caller coalesced onto it still gets
// the result, from the one computation.
func TestCoalescedOptimizeSurvivesFirstCallerCancel(t *testing.T) {
	srv := New(Options{Workers: 1})
	cs := startCoalescedSearch(t, srv)
	defer cs.cancel2()
	cs.cancel1()
	waitFor(t, "the first caller to stop waiting", func() bool { return srv.flight.waiting(cs.key) == 1 })
	close(cs.w1.release) // the search leaves its first progress frame
	if err := <-cs.done1; err == nil {
		t.Error("the caller that hung up reported no error")
	}
	if err := <-cs.done2; err != nil {
		t.Fatalf("coalesced caller: %v\n%s", err, cs.out2.String())
	}
	lines := strings.Split(strings.TrimSpace(cs.out2.String()), "\n")
	var res ResultLine
	if len(lines) != 1 || json.Unmarshal([]byte(lines[0]), &res) != nil || res.Kind != FrameResult || !res.Cached {
		t.Fatalf("coalesced caller streamed %q, want one shared result frame", cs.out2.String())
	}
	if got := srv.Computes(); got != 1 {
		t.Errorf("computed %d times, want 1", got)
	}
}

// TestCoalescedOptimizeAllCancelStopsEngine: when every caller hangs
// up, the search is cancelled and forgotten, so a later request starts
// a fresh one instead of joining it, and the cancelled engine returns.
func TestCoalescedOptimizeAllCancelStopsEngine(t *testing.T) {
	baseline := runtime.NumGoroutine()
	srv := New(Options{Workers: 1})
	cs := startCoalescedSearch(t, srv)
	cs.cancel2()
	if err := <-cs.done2; err == nil {
		t.Error("the coalesced caller that hung up reported no error")
	}
	cs.cancel1()
	waitFor(t, "the cancelled flight to be forgotten", func() bool { return srv.flight.Inflight() == 0 })

	// The cancelled engine is still held in its progress frame; a new
	// request must compute on its own.
	var out strings.Builder
	rep, err := srv.RunOptimize(context.Background(), mustParseOptimize(t, slowOptimizeSpec), &out)
	if err != nil || rep == nil {
		t.Fatalf("request after the cancellation: report %v, err %v\n%s", rep, err, out.String())
	}
	if !strings.Contains(out.String(), `"kind":"result","cached":false`) {
		t.Fatalf("request after the cancellation was not computed afresh:\n%s", out.String())
	}
	if got := srv.Computes(); got != 2 {
		t.Errorf("computed %d times, want 2", got)
	}

	close(cs.w1.release)
	if err := <-cs.done1; err == nil {
		t.Error("the first caller that hung up reported no error")
	}
	waitFor(t, "the cancelled engine to return", func() bool { return runtime.NumGoroutine() <= baseline })
	if n := srv.flight.Inflight(); n != 0 {
		t.Errorf("Inflight() = %d after every search ended", n)
	}
}

func mustParseOptimize(t *testing.T, body string) *optimize.SearchSpec {
	t.Helper()
	spec, err := optimize.Parse(strings.NewReader(body), "test")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}
