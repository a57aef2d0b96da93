package service

import (
	"context"
	"fmt"
	"sync"
)

// flightGroup coalesces concurrent computations of the same canonical
// key: the first caller runs fn, later callers with the same key wait
// for its result. Unlike a cache, nothing is retained once the flight
// lands — the result cache in front of the group handles reuse across
// time; the group only collapses the concurrent window where a result
// is still being computed.
//
// The computation belongs to the flight, not to the caller running it:
// fn gets a context that keeps that caller's values (trace, request ID)
// but not its cancellation. Every caller, the one running fn included,
// leaves the flight when its own context ends; fn's context is
// cancelled when the last one has left, and the next caller for the key
// starts afresh rather than join the cancelled flight.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flightCall
}

type flightCall struct {
	done    chan struct{} // closed once val and err are set
	val     []byte
	err     error
	waiters int // callers still in the flight; guarded by flightGroup.mu
	cancel  context.CancelFunc
}

// Do runs fn under key, returning its payload, error, and whether this
// caller shared another caller's in-flight computation instead of
// running fn itself. A caller whose ctx is already done starts nothing.
// A sharing caller whose ctx ends returns the context's cause at once;
// the caller running fn returns when fn does, which is soon after the
// flight is cancelled if fn honours its context.
func (g *flightGroup) Do(ctx context.Context, key string, fn func(context.Context) ([]byte, error)) (val []byte, err error, shared bool) {
	if ctx.Err() != nil {
		return nil, context.Cause(ctx), false
	}
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[string]*flightCall)
	}
	if c, ok := g.m[key]; ok {
		c.waiters++
		g.mu.Unlock()
		select {
		case <-c.done:
			return c.val, c.err, true
		case <-ctx.Done():
			g.leave(key, c)
			return nil, context.Cause(ctx), true
		}
	}
	fctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	c := &flightCall{done: make(chan struct{}), waiters: 1, cancel: cancel}
	g.m[key] = c
	g.mu.Unlock()

	stop := context.AfterFunc(ctx, func() { g.leave(key, c) })
	// The flight must land even if fn panics — otherwise its waiters
	// would hang. The panic becomes an error delivered to all callers
	// (for the HTTP server that is a 500, which beats a hung endpoint).
	defer func() {
		stop()
		if r := recover(); r != nil {
			c.err = fmt.Errorf("service: compute panicked: %v", r)
		}
		g.mu.Lock()
		g.land(key, c)
		g.mu.Unlock()
		close(c.done)
		val, err = c.val, c.err
	}()
	c.val, c.err = fn(fctx)
	return c.val, c.err, false
}

// leave takes one caller out of c, cancelling the flight when it was
// the last.
func (g *flightGroup) leave(key string, c *flightCall) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c.waiters--; c.waiters == 0 {
		g.land(key, c)
	}
}

// land cancels c's computation and removes c from the group, unless a
// newer flight already holds key. The caller holds g.mu, so no caller
// can join c between its last waiter leaving and its removal.
func (g *flightGroup) land(key string, c *flightCall) {
	c.cancel()
	if g.m[key] == c {
		delete(g.m, key)
	}
}

// Inflight reports how many distinct keys are currently being computed
// for at least one waiting caller.
func (g *flightGroup) Inflight() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.m)
}
