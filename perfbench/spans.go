package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call the benchmark made into a layer's exported
// function. Spans of one replayed input share trace; parent is the span
// that made the call (0 for a root).
type span struct {
	trace, id, parent int
	name              string
	start, end        time.Duration // since the recorder started
}

// recorder keeps spans in memory until the run writes them out. The
// replay is single-goroutine, so it takes no lock.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// do times f as span name under parent and returns the new span's id,
// which f's own calls may use as their parent.
func (r *recorder) do(trace, parent int, name string, f func(id int)) {
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{trace: trace, id: id, parent: parent, name: name, start: time.Since(r.t0)})
	f(id)
	r.spans[id-1].end = time.Since(r.t0)
}

// self is each span's duration minus the part of its interval covered
// by its children.
func (r *recorder) self() []time.Duration {
	kids := map[int][]span{}
	for _, s := range r.spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	out := make([]time.Duration, len(r.spans))
	for i, s := range r.spans {
		cs := kids[s.id]
		sort.Slice(cs, func(a, b int) bool { return cs[a].start < cs[b].start })
		covered, reach := time.Duration(0), s.start
		for _, c := range cs {
			lo, hi := max(c.start, reach), min(c.end, s.end)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[i] = s.end - s.start - covered
	}
	return out
}

// spanAgg summarizes the spans of one name.
type spanAgg struct {
	Count  int     `json:"count"`
	MeanUs float64 `json:"meanUs"`
	SelfUs float64 `json:"meanSelfUs"`
	SumMs  float64 `json:"sumMs"`
}

func (r *recorder) summary() map[string]spanAgg {
	self := r.self()
	out := map[string]spanAgg{}
	for i, s := range r.spans {
		a := out[s.name]
		a.Count++
		a.SumMs += float64(s.end-s.start) / 1e6
		a.SelfUs += float64(self[i]) / 1e3
		out[s.name] = a
	}
	for k, a := range out {
		a.MeanUs = a.SumMs * 1e3 / float64(a.Count)
		a.SelfUs /= float64(a.Count)
		out[k] = a
	}
	return out
}

// write stores the spans as NDJSON, one span a line.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	self := r.self()
	for i, s := range r.spans {
		if err := enc.Encode(map[string]any{
			"trace": s.trace, "span": s.id, "parent": s.parent, "name": s.name,
			"startUs": s.start.Microseconds(), "durUs": (s.end - s.start).Microseconds(), "selfUs": self[i].Microseconds(),
		}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
