package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"

	"github.com/ccnet/ccnet/internal/service"
)

// checker holds the first answer to every spec and rejects answers that
// differ from it. verify then re-answers each spec in process, on a
// server at Workers: 1 with no socket, and compares.
type checker struct {
	mu    sync.Mutex
	first map[int][32]byte
	ops   map[int]*op
}

func newChecker() *checker {
	return &checker{first: map[int][32]byte{}, ops: map[int]*op{}}
}

// record compares d with the first answer to spec.
func (c *checker) record(spec int, d [32]byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	prev, ok := c.first[spec]
	if !ok {
		c.first[spec] = d
		return nil
	}
	if prev != d {
		return errMismatch
	}
	return nil
}

// remember keeps o as the op to replay for its spec.
func (c *checker) remember(o *op) {
	c.mu.Lock()
	if _, ok := c.ops[o.spec]; !ok {
		c.ops[o.spec] = o
	}
	c.mu.Unlock()
}

// inproc answers o through h without a socket.
func inproc(h http.Handler, o *op) (int, []byte) {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, o.path, bytes.NewReader(o.body))
	req.Header.Set("Content-Type", "application/json")
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// verify re-answers every recorded spec on fresh Workers: 1 servers,
// spread over workers goroutines, and returns how many specs it checked
// and how many answers disagreed, with the first messages.
func (c *checker) verify(workers int) (checked, bad int, msgs []string) {
	c.mu.Lock()
	specs := make([]int, 0, len(c.first))
	for s := range c.first {
		if c.ops[s] != nil {
			specs = append(specs, s)
		}
	}
	c.mu.Unlock()
	sort.Ints(specs)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := service.New(service.Options{Workers: 1}).Handler()
			for i := w; i < len(specs); i += workers {
				o := c.ops[specs[i]]
				status, body := inproc(h, o)
				d, err := digest(o, status, body)
				if err == nil && d != c.first[o.spec] {
					err = fmt.Errorf("%s spec %d: in-process Workers: 1 answer differs from the served one", o.path, o.spec)
				}
				if err != nil {
					mu.Lock()
					bad++
					if len(msgs) < 5 {
						msgs = append(msgs, err.Error())
					}
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	return len(specs), bad, msgs
}
