package par

import (
	"bytes"
	"context"
	"errors"
	"math/rand/v2"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"
)

// TestForOrder: done sees 0…n−1 exactly once each, in order, and only
// after work for that index has finished, whatever the worker count and
// however long each item takes.
func TestForOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		for _, n := range []int{0, 1, 1000} {
			delays := make([]time.Duration, n)
			r := rand.New(rand.NewPCG(uint64(workers), uint64(n)))
			for i := range delays {
				if r.IntN(4) == 0 {
					delays[i] = time.Duration(r.IntN(200)) * time.Microsecond
				}
			}
			ran := make([]bool, n)
			next := 0
			err := For(context.Background(), n, workers, func(i int) {
				time.Sleep(delays[i])
				ran[i] = true
			}, func(i int) error {
				if i != next {
					t.Fatalf("workers=%d n=%d: done(%d), want done(%d)", workers, n, i, next)
				}
				if !ran[i] {
					t.Fatalf("workers=%d n=%d: done(%d) before its work finished", workers, n, i)
				}
				next++
				return nil
			})
			if err != nil {
				t.Fatalf("workers=%d n=%d: %v", workers, n, err)
			}
			if next != n {
				t.Fatalf("workers=%d n=%d: done saw %d indices", workers, n, next)
			}
		}
	}
}

// TestForWithoutDoneRunsEveryIndex: without done every index runs
// exactly once at any worker count, including the GOMAXPROCS default.
func TestForWithoutDoneRunsEveryIndex(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 3, 64} {
		const n = 500
		var counts [n]atomic.Int32
		if err := For(context.Background(), n, workers, func(i int) { counts[i].Add(1) }, nil); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

// TestForDoneErrorStops: an error from done stops the handing out of
// indices — at most the items workers had already taken still start —
// and For returns that error once the work in flight has finished.
func TestForDoneErrorStops(t *testing.T) {
	const n, workers, failAt = 1000, 4, 10
	boom := errors.New("emit failed")
	var stopped atomic.Bool
	var started, late, active atomic.Int32
	err := For(context.Background(), n, workers, func(i int) {
		active.Add(1)
		defer active.Add(-1)
		started.Add(1)
		if stopped.Load() {
			late.Add(1)
		}
		time.Sleep(100 * time.Microsecond)
	}, func(i int) error {
		if i == failAt {
			stopped.Store(true)
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the done error", err)
	}
	if a := active.Load(); a != 0 {
		t.Fatalf("%d work calls still running after For returned", a)
	}
	if l := late.Load(); l > workers {
		t.Fatalf("%d items started after done failed, want <= %d", l, workers)
	}
	if s := started.Load(); s >= n {
		t.Fatalf("all %d items ran despite the done error", s)
	}
}

// TestForCancelStops: cancelling ctx stops new work with or without
// done, and For returns the context's cause after the work in flight
// has finished.
func TestForCancelStops(t *testing.T) {
	cause := errors.New("client went away")
	for _, ordered := range []bool{false, true} {
		for _, workers := range []int{1, 4} {
			const n, cancelAt = 1000, 10
			ctx, cancel := context.WithCancelCause(context.Background())
			var started, late, active atomic.Int32
			var cancelled atomic.Bool
			work := func(i int) {
				active.Add(1)
				defer active.Add(-1)
				started.Add(1)
				if cancelled.Load() {
					late.Add(1)
				}
				if i == cancelAt {
					cancelled.Store(true)
					cancel(cause)
				}
				time.Sleep(50 * time.Microsecond)
			}
			var done func(int) error
			if ordered {
				done = func(i int) error {
					if i > cancelAt {
						t.Errorf("ordered=%v workers=%d: done(%d) after cancellation", ordered, workers, i)
					}
					return nil
				}
			}
			err := For(ctx, n, workers, work, done)
			cancel(nil)
			if !errors.Is(err, cause) {
				t.Fatalf("ordered=%v workers=%d: err = %v, want the cause", ordered, workers, err)
			}
			if a := active.Load(); a != 0 {
				t.Fatalf("ordered=%v workers=%d: %d work calls still running after For returned", ordered, workers, a)
			}
			if l := late.Load(); l > int32(workers) {
				t.Fatalf("ordered=%v workers=%d: %d items started after cancellation", ordered, workers, l)
			}
			if s := started.Load(); s >= n {
				t.Fatalf("ordered=%v workers=%d: all %d items ran despite cancellation", ordered, workers, s)
			}
		}
	}
}

// TestForLeavesNoGoroutines: after For returns — normally, on a done
// error or on cancellation — the goroutine count is back at its
// baseline.
func TestForLeavesNoGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	noop := func(int) {}
	fail := func(int) error { return errors.New("stop") }
	_ = For(context.Background(), 100, 8, noop, nil)
	_ = For(context.Background(), 100, 8, noop, func(int) error { return nil })
	_ = For(context.Background(), 100, 8, noop, fail)
	_ = For(ctx, 100, 8, noop, nil)
	_ = For(ctx, 100, 8, noop, fail)
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines outlive For (baseline %d)", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestForOneWorkerInline: without done, a single worker runs every item
// on the caller's goroutine; with done, work always runs on another
// goroutine so that emission overlaps it.
func TestForOneWorkerInline(t *testing.T) {
	caller := goid()
	if err := For(context.Background(), 3, 1, func(int) {
		if g := goid(); g != caller {
			t.Errorf("work ran on goroutine %d, want the caller's %d", g, caller)
		}
	}, nil); err != nil {
		t.Fatal(err)
	}
	if err := For(context.Background(), 3, 1, func(int) {
		if goid() == caller {
			t.Error("with done set, work ran on the caller's goroutine")
		}
	}, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
}

// goid returns the current goroutine's ID from its stack header
// ("goroutine 7 [running]:").
func goid() uint64 {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	buf = bytes.TrimPrefix(buf, []byte("goroutine "))
	id, err := strconv.ParseUint(string(buf[:bytes.IndexByte(buf, ' ')]), 10, 64)
	if err != nil {
		panic(err)
	}
	return id
}
