// Package batch is the streaming bulk-evaluation engine: a batch of
// heterogeneous work items (evaluate, sweep and campaign specs, mixed
// freely) is sharded across a bounded worker pool and the results are
// emitted incrementally, one per completed item, in the batch's own item
// order — so a client reading the stream sees result i as soon as items
// 0…i have finished, while later items are still computing.
//
// The engine is deliberately generic: it knows nothing about the model
// or the HTTP service. The executor callback (internal/service supplies
// one that consults the canonical-spec result cache per item) maps an
// Item to an Outcome; the engine owns scheduling, ordering, cancellation
// and the terminal summary. cmd/ccserved exposes it as POST /v1/batch,
// cmd/ccscen as `ccscen batch`.
package batch

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"github.com/ccnet/ccnet/internal/par"
)

// MaxItems bounds one batch; a request this size streams for a while but
// cannot exhaust the server (each item is itself bounded by the service
// layer's body limits).
const MaxItems = 10000

// Item is one unit of work: a kind discriminator and the kind's own
// request document, carried opaquely.
type Item struct {
	// ID is an optional client-chosen label echoed in the item's result
	// line; items are always also identified by index.
	ID string `json:"id,omitempty"`
	// Kind selects the executor: "evaluate", "sweep", "campaign",
	// "performability" or "fleetsim".
	Kind string `json:"kind"`
	// Spec is the kind's request body, verbatim: an evaluate/sweep
	// request object or a full scenario spec.
	Spec json.RawMessage `json:"spec"`
}

// Outcome is one executed item.
type Outcome struct {
	Index   int
	ID      string
	Kind    string
	Payload json.RawMessage // result document; nil when Err is set
	Key     string          // canonical cache key, when the executor has one
	Cached  bool            // answered from cache or coalesced
	Err     error
	Elapsed time.Duration
	// QueueWait is how long the item sat in the batch before a worker
	// picked it up (time from Run start to Exec start).
	QueueWait time.Duration
}

// Exec computes one item. It must be safe for concurrent calls and
// should honor ctx promptly for long computations.
type Exec func(ctx context.Context, index int, it Item) Outcome

// Summary is the terminal accounting of one batch run. CacheHits and
// CacheMisses partition the successful items (failed items consult no
// cache), so a client can verify spec-dedup across the batch itself —
// the per-process /v1/stats counters cannot distinguish one batch's
// hits from another's.
type Summary struct {
	Items       int `json:"items"`
	Emitted     int `json:"emitted"`
	Succeeded   int `json:"succeeded"`
	Failed      int `json:"failed"`
	CacheHits   int `json:"cacheHits"`
	CacheMisses int `json:"cacheMisses"`
	// HitRate is CacheHits/(CacheHits+CacheMisses); 0 when no item
	// succeeded.
	HitRate  float64 `json:"cacheHitRate"`
	Canceled bool    `json:"canceled"`
	WallSecs float64 `json:"wallSeconds"`
}

// Engine runs batches. The zero value is not usable; set Exec.
type Engine struct {
	// Workers bounds concurrent Exec calls; <= 0 means GOMAXPROCS.
	Workers int
	// Exec computes one item (required).
	Exec Exec
}

// Run shards items across the worker pool and emits every outcome in
// item order as soon as it — and all earlier items — have completed.
// Emission order is deterministic (always index 0, 1, 2, …) regardless
// of worker count or scheduling.
//
// When ctx is canceled, or emit returns an error (a streaming client
// hung up), workers stop picking up new items, in-flight items finish,
// and Run returns the cause with a summary of what was emitted. A
// canceled run emits no further outcomes after the cause.
func (e *Engine) Run(ctx context.Context, items []Item, emit func(Outcome) error) (Summary, error) {
	start := time.Now()
	sum := Summary{Items: len(items)}
	if e.Exec == nil {
		return sum, fmt.Errorf("batch: Engine.Exec is nil")
	}
	if len(items) > MaxItems {
		return sum, fmt.Errorf("batch: %d items exceed the %d-item limit", len(items), MaxItems)
	}

	// A derived context lets an emit failure stop the items in flight
	// the same way caller cancellation does.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	outcomes := make([]Outcome, len(items))
	err := par.For(ctx, len(items), e.Workers, func(i int) {
		t0 := time.Now()
		o := e.Exec(ctx, i, items[i])
		o.Index = i
		o.QueueWait = t0.Sub(start)
		if o.ID == "" {
			o.ID = items[i].ID
		}
		if o.Kind == "" {
			o.Kind = items[i].Kind
		}
		o.Elapsed = time.Since(t0)
		outcomes[i] = o
	}, func(i int) error {
		o := &outcomes[i]
		if err := emit(*o); err != nil {
			cancel()
			return fmt.Errorf("batch: emit item %d: %w", i, err)
		}
		sum.Emitted++
		if o.Err != nil {
			sum.Failed++
		} else {
			sum.Succeeded++
			if o.Cached {
				sum.CacheHits++
			} else {
				sum.CacheMisses++
			}
		}
		return nil
	})
	sum.WallSecs = time.Since(start).Seconds()
	if err != nil {
		sum.Canceled = true
		return sum, err
	}
	if answered := sum.CacheHits + sum.CacheMisses; answered > 0 {
		sum.HitRate = float64(sum.CacheHits) / float64(answered)
	}
	return sum, nil
}
