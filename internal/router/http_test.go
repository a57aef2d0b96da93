package router

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ccnet/ccnet/internal/reqtrace"
	"github.com/ccnet/ccnet/internal/service"
)

// echoBackend is a minimal replica: 200s every request with a JSON
// body, its own Server-Timing entry, and the headers the router
// mirrors. It records the routed key header it last saw.
func echoBackend(id string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Cache", "miss")
		w.Header().Set(service.ShardHeader, id)
		w.Header().Set("Server-Timing", "compute;dur=0.100")
		w.Write([]byte(`{"ok":true}` + "\n"))
	})
}

// startRouter builds a router over the given backends and serves it.
// The cleanup tears everything down.
func startRouter(t *testing.T, opt Options, backends ...http.Handler) (*Router, string) {
	t.Helper()
	reps := make([]Replica, len(backends))
	for i, h := range backends {
		srv := httptest.NewServer(h)
		t.Cleanup(srv.Close)
		reps[i] = Replica{ID: "r" + string(rune('0'+i)), URL: srv.URL}
	}
	opt.Replicas = reps
	r, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	front := httptest.NewServer(r.Handler())
	t.Cleanup(front.Close)
	return r, front.URL
}

func TestHandlerKeyedTraced(t *testing.T) {
	_, base := startRouter(t, Options{
		Tracer: reqtrace.New(reqtrace.Options{Component: "router", Seed: 1}),
	}, echoBackend("r0"), echoBackend("r1"))

	resp, err := http.Post(base+"/v1/evaluate", "application/json", strings.NewReader(`{"a":1}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/evaluate = %d", resp.StatusCode)
	}
	if resp.Header.Get(service.RequestIDHeader) == "" {
		t.Error("router did not mint an X-Request-Id")
	}
	if resp.Header.Get(service.ShardHeader) == "" {
		t.Error("response lost the shard header")
	}
	st := strings.Join(resp.Header.Values("Server-Timing"), ", ")
	for _, want := range []string{"compute;dur=", "rt_route;dur=", "rt_upstream;dur="} {
		if !strings.Contains(st, want) {
			t.Errorf("Server-Timing %q missing %q", st, want)
		}
	}

	// The trace was exported with the spans the forward recorded.
	tresp, err := http.Get(base + "/v1/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	var spans []string
	sc := bufio.NewScanner(tresp.Body)
	for sc.Scan() {
		var line struct {
			Spans []struct {
				Name string `json:"name"`
			} `json:"spans"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("trace line %q: %v", sc.Text(), err)
		}
		for _, sp := range line.Spans {
			spans = append(spans, sp.Name)
		}
	}
	for _, want := range []string{"canon", "ring", "attempt", "stream"} {
		found := false
		for _, n := range spans {
			found = found || n == want
		}
		if !found {
			t.Errorf("exported spans %v missing %q", spans, want)
		}
	}
}

func TestHandlerErrors(t *testing.T) {
	_, base := startRouter(t, Options{}, echoBackend("r0"))

	cases := []struct {
		name, method, path, body string
		want                     int
	}{
		{"invalid JSON", http.MethodPost, "/v1/evaluate", "{not json", http.StatusBadRequest},
		{"wrong method", http.MethodGet, "/v1/evaluate", "", http.StatusMethodNotAllowed},
		{"unknown path", http.MethodGet, "/v1/nope", "", http.StatusNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, base+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var ae service.APIError
			if err := json.NewDecoder(resp.Body).Decode(&ae); err != nil {
				t.Fatalf("error body: %v", err)
			}
			if resp.StatusCode != tc.want {
				t.Errorf("%s %s = %d, want %d", tc.method, tc.path, resp.StatusCode, tc.want)
			}
			if ae.RequestID == "" {
				t.Error("error envelope lost the request id")
			}
		})
	}
}

func TestHandlerKeylessAndHealthz(t *testing.T) {
	_, base := startRouter(t, Options{}, echoBackend("r0"), echoBackend("r1"))
	for _, path := range []string{"/v1/version", "/v1/stats"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", path, resp.StatusCode)
		}
	}
	resp, err := http.Get(base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc RouterHealth
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || doc.Healthy != 2 || len(doc.Replicas) != 2 {
		t.Fatalf("healthz = %d %+v", resp.StatusCode, doc)
	}
	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	body, _ := io.ReadAll(mresp.Body)
	if mresp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ccrouter_") {
		t.Fatalf("metrics = %d", mresp.StatusCode)
	}
}

// TestForwardRetriesDeadReplica points one replica URL at a dead port:
// whichever order the walk visits, every keyless request must still be
// answered by the live one within the retry budget.
func TestForwardRetriesDeadReplica(t *testing.T) {
	live := httptest.NewServer(echoBackend("r0"))
	defer live.Close()
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	r, err := New(Options{
		Replicas: []Replica{
			{ID: "r0", URL: live.URL},
			{ID: "r1", URL: deadURL},
		},
		RetryBackoff: time.Millisecond,
		FailAfter:    1000, // keep the dead one nominally healthy so the walk keeps trying it
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	front := httptest.NewServer(r.Handler())
	defer front.Close()

	for i := 0; i < 4; i++ {
		resp, err := http.Get(front.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d = %d, want the live replica to answer", i, resp.StatusCode)
		}
	}
}

// TestForwardAllDown exhausts the budget against dead replicas and
// expects the typed 503.
func TestForwardAllDown(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	r, err := New(Options{
		Replicas:     []Replica{{ID: "r0", URL: deadURL}},
		RetryBackoff: time.Millisecond,
		FailAfter:    1,
		Tracer:       reqtrace.New(reqtrace.Options{Component: "router", Seed: 1}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	front := httptest.NewServer(r.Handler())
	defer front.Close()

	for _, path := range []string{"/v1/evaluate", "/v1/evaluate"} { // second run hits the allDown fallback
		resp, err := http.Post(front.URL+path, "application/json", strings.NewReader(`{}`))
		if err != nil {
			t.Fatal(err)
		}
		var ae service.APIError
		json.NewDecoder(resp.Body).Decode(&ae)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable || ae.Code != service.CodeShardUnavailable {
			t.Fatalf("POST %s = %d %+v, want 503 shard_unavailable", path, resp.StatusCode, ae)
		}
	}
	if st := r.opt.Tracer.Stats(); st.Errored == 0 {
		t.Error("unavailable requests should export errored traces")
	}

	// With every replica down, the router's own healthz degrades too.
	hresp, err := http.Get(front.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz with fleet down = %d, want 503", hresp.StatusCode)
	}
}

// TestMidStreamErrorFrame aborts an NDJSON stream after one frame and
// expects the router's in-band error frame on the tail.
func TestMidStreamErrorFrame(t *testing.T) {
	backend := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Write([]byte(`{"kind":"progress"}` + "\n"))
		w.(http.Flusher).Flush()
		panic(http.ErrAbortHandler) // sever the stream mid-response
	})
	_, base := startRouter(t, Options{
		Tracer: reqtrace.New(reqtrace.Options{Component: "router", Seed: 1}),
	}, backend)

	resp, err := http.Post(base+"/v1/optimize", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want the committed 200", resp.StatusCode)
	}
	if !strings.Contains(string(body), service.FrameError) ||
		!strings.Contains(string(body), "mid-stream") {
		t.Fatalf("stream tail %q missing the in-band error frame", body)
	}
}

// TestStartProbing drives the active prober through a down/up cycle.
func TestStartProbing(t *testing.T) {
	var up atomic.Bool
	up.Store(true)
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !up.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer backend.Close()

	r, err := New(Options{
		Replicas:      []Replica{{ID: "r0", URL: backend.URL}},
		ProbeInterval: 10 * time.Millisecond,
		FailAfter:     1,
		RiseAfter:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.Start()
	r.Start() // idempotent

	waitHealth := func(want bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			if _, ok := r.Pick("k"); ok == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("replica never became healthy=%v", want)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitHealth(true)
	up.Store(false)
	waitHealth(false)
	up.Store(true)
	waitHealth(true)
}

func TestFormatMillis(t *testing.T) {
	if got := formatMillis(1500 * time.Microsecond); got != "1.500" {
		t.Errorf("formatMillis(1.5ms) = %q", got)
	}
	if got := formatMillis(-time.Millisecond); got != "0.000" {
		t.Errorf("formatMillis(negative) = %q, want clamped to 0.000", got)
	}
}

// countingWriter is an http.ResponseWriter that keeps the body and
// counts flushes.
type countingWriter struct {
	h       http.Header
	body    []byte
	flushes int
}

func (w *countingWriter) Header() http.Header { return w.h }
func (w *countingWriter) WriteHeader(int)     {}
func (w *countingWriter) Write(p []byte) (int, error) {
	w.body = append(w.body, p...)
	return len(p), nil
}
func (w *countingWriter) Flush() { w.flushes++ }

// frameReader yields one NDJSON frame per Read, like a replica stream
// that flushes each progress line.
type frameReader struct{ frames []string }

func (r *frameReader) Read(p []byte) (int, error) {
	if len(r.frames) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.frames[0])
	r.frames = r.frames[1:]
	return n, nil
}

// TestCopyFlushReusesBuffers: forwarding a response body must not cost
// a fresh 32 KiB copy buffer per forward. Allocated bytes per forward
// stay far below one buffer (the pool may drop an entry now and then,
// and does so on purpose under the race detector, so the bound is half
// a buffer, not zero), the body arrives intact, and a streamed body is
// still flushed once per frame.
func TestCopyFlushReusesBuffers(t *testing.T) {
	const forwards = 200
	payload := strings.Repeat(`{"ok":true}`, 10) + "\n"
	w := &countingWriter{h: http.Header{}, body: make([]byte, 0, 64)}
	copyFlush(w, strings.NewReader(payload), false) // warm the pool
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < forwards; i++ {
		w.body = w.body[:0]
		if err := copyFlush(w, strings.NewReader(payload), false); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if perForward := (after.TotalAlloc - before.TotalAlloc) / forwards; perForward >= 16<<10 {
		t.Fatalf("copyFlush allocates %d bytes per forward; want well under one 32 KiB buffer", perForward)
	}
	if string(w.body) != payload || w.flushes != 0 {
		t.Fatalf("non-streaming copy: body %q, %d flushes; want the payload and none", w.body, w.flushes)
	}

	frames := []string{`{"kind":"progress","n":1}` + "\n", `{"kind":"progress","n":2}` + "\n", `{"kind":"result"}` + "\n"}
	sw := &countingWriter{h: http.Header{}}
	if err := copyFlush(sw, &frameReader{frames: append([]string(nil), frames...)}, true); err != nil {
		t.Fatal(err)
	}
	if string(sw.body) != strings.Join(frames, "") || sw.flushes != len(frames) {
		t.Fatalf("stream copy: body %q, %d flushes; want every frame, one flush each", sw.body, sw.flushes)
	}
}
