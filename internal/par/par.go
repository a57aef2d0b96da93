// Package par is ccnet's one parallel loop: every engine that fans
// independent evaluations out over goroutines — λ-grid sweeps, design
// candidates and annealing chains, availability states, simulation jobs
// and batch items — runs them through For, and folds their results in
// index order through its done callback where order matters. Results
// therefore never depend on the worker count or on scheduling.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// For runs work(i) for every i in [0, n) on up to workers goroutines;
// workers <= 0 means GOMAXPROCS. Calls to work may overlap and finish in
// any order. Without done, a single worker runs on the caller's
// goroutine.
//
// When done is non-nil, For calls it on the caller's goroutine with
// 0, 1, 2, … in order, each as soon as work has finished for that index
// and every index before it, while later items still compute; work then
// always runs on other goroutines, even with one worker.
//
// For stops handing out indices when ctx ends or done returns an error,
// waits for the work already started, and returns done's error or
// context.Cause(ctx). It returns nil when every index has run (and been
// passed to done).
func For(ctx context.Context, n, workers int, work func(i int), done func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	if workers <= 1 && done == nil {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return context.Cause(ctx)
			}
			work(i)
		}
		return nil
	}

	// One heap object holds everything the workers share.
	l := &loop{ctx: ctx, n: n, work: work}
	if done != nil {
		l.finished = make([]atomic.Bool, n)
		l.wake = make(chan struct{}, 1)
	}
	l.wg.Add(workers)
	for range workers {
		go l.run()
	}
	if done == nil {
		l.wg.Wait()
		if l.cut.Load() {
			return context.Cause(ctx)
		}
		return nil
	}
	defer l.wg.Wait()
	for i := 0; i < n; i++ {
		for !l.finished[i].Load() && ctx.Err() == nil {
			select {
			case <-l.wake:
			case <-ctx.Done():
			}
		}
		if ctx.Err() != nil {
			return context.Cause(ctx)
		}
		if err := done(i); err != nil {
			l.next.Store(int64(n)) // hand out no further indices
			return err
		}
	}
	return nil
}

// loop is the state one For call shares with its workers.
type loop struct {
	ctx  context.Context
	n    int
	work func(int)
	next atomic.Int64
	cut  atomic.Bool // a worker refused an index because ctx ended
	wg   sync.WaitGroup
	// finished[i] is set once work(i) has returned; each completion
	// leaves a token in wake (capacity 1) so the ordered emitter can
	// sleep until something finishes. Both are nil without done.
	finished []atomic.Bool
	wake     chan struct{}
}

func (l *loop) run() {
	defer l.wg.Done()
	for {
		i := int(l.next.Add(1)) - 1
		if i >= l.n {
			return
		}
		if l.ctx.Err() != nil {
			l.cut.Store(true)
			return
		}
		l.work(i)
		if l.finished != nil {
			l.finished[i].Store(true)
			select {
			case l.wake <- struct{}{}:
			default:
			}
		}
	}
}
