package engine

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"dwqa/internal/obs"
)

// Admission control for the serving layer (DESIGN.md §8): a bounded
// in-flight gate in front of every request-shaped entry point (AskAll,
// AskOLAP, HarvestAll and the HTTP handlers over them).
//
// The gate is a classic semaphore-plus-short-queue: up to maxInflight
// requests run at once; up to maxQueue more may wait for a slot, but
// only as long as their deadline allows; anything beyond that is shed
// immediately with ErrShed. Shedding at the door is what keeps latency
// bounded under overload — a request that would only time out in the
// queue is cheaper for everyone as an instant 429 the client can back
// off from and retry.

// Serving admission sizing (dwqa serve sets it; see Config). MaxInflight is deliberately larger than the
// worker pool (requests also spend time in coalescing, cache hits and
// encoding), and the queue absorbs short arrival bursts without letting
// a sustained overload build unbounded latency.
const (
	DefaultMaxInflight = 64
	DefaultMaxQueue    = 128
)

// ErrShed reports that the engine was saturated — MaxInflight requests
// running and MaxQueue more already waiting — and this request was
// rejected without being processed. The HTTP layer maps it to
// 429 Too Many Requests with a Retry-After hint.
var ErrShed = errors.New("engine: overloaded, request shed")

// gate is the admission semaphore. A nil slots channel means admission
// control is disabled (every acquire succeeds immediately).
type gate struct {
	slots    chan struct{}
	maxQueue int64

	queued   atomic.Int64
	inflight atomic.Int64
	// shed counts rejected requests; queueWait observes how long
	// saturated requests waited for a slot — only the slow (queued)
	// path reads the clock, the uncontended fast path never does. Both
	// are cells of the engine's metrics registry.
	shed      *obs.Counter
	queueWait *obs.Histogram
}

// newGate builds a gate admitting maxInflight concurrent requests with a
// wait queue of maxQueue. maxInflight ≤ 0 disables admission control;
// maxQueue ≤ 0 means no queue (immediate shed once saturated).
func newGate(maxInflight, maxQueue int, shed *obs.Counter, queueWait *obs.Histogram) *gate {
	g := &gate{shed: shed, queueWait: queueWait}
	if maxInflight <= 0 {
		return g
	}
	g.slots = make(chan struct{}, maxInflight)
	g.maxQueue = int64(max(maxQueue, 0))
	return g
}

// acquire admits the request or rejects it: ErrShed when the gate and
// its queue are full, ctx.Err() when the deadline expires while queued.
// Every successful acquire must be paired with a release.
func (g *gate) acquire(ctx context.Context) error {
	if g.slots == nil {
		g.inflight.Add(1)
		return nil
	}
	// Fast path: a slot is free right now.
	select {
	case g.slots <- struct{}{}:
		g.inflight.Add(1)
		return nil
	default:
	}
	// Saturated: wait in the bounded queue, deadline-aware. The queue
	// length is enforced optimistically with an atomic counter — a brief
	// overshoot under a stampede sheds slightly late, never admits extra.
	if g.queued.Add(1) > g.maxQueue {
		g.queued.Add(-1)
		g.shed.Inc()
		return ErrShed
	}
	defer g.queued.Add(-1)
	waitStart := time.Now()
	select {
	case g.slots <- struct{}{}:
		g.queueWait.Observe(time.Since(waitStart))
		g.inflight.Add(1)
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// release returns the request's slot.
func (g *gate) release() {
	g.inflight.Add(-1)
	if g.slots != nil {
		<-g.slots
	}
}

// Inflight returns the number of currently admitted requests.
func (g *gate) Inflight() int64 { return g.inflight.Load() }

// Queued returns the number of requests currently waiting for a slot.
func (g *gate) Queued() int64 { return g.queued.Load() }

// Capacity returns the admission limit (0 when admission control is
// disabled).
func (g *gate) Capacity() int { return cap(g.slots) }

// Shed returns how many requests have been rejected with ErrShed.
func (g *gate) Shed() uint64 { return g.shed.Value() }
