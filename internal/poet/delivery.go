package poet

import (
	"fmt"
	"slices"
	"sync"

	"ocep/internal/event"
	"ocep/internal/telemetry"
)

// This file implements the asynchronous fan-out delivery pipeline: each
// batch subscriber owns a bounded queue fed by the collector's delivery
// loop and drained, in batches, by a dedicated consumer goroutine. The
// linearization order is preserved per subscriber (the queue is FIFO and
// has a single consumer), so every monitor still observes a causally
// consistent stream; only the coupling between ingestion and monitor
// evaluation is removed.
//
// Because consumers run outside the collector's lock, they must never
// observe collector-side mutation of published events. Two consequences
// shape the implementation:
//
//   - The queue stores a private shallow copy of every event. The vector
//     clock is immutable after delivery and stays shared; the copy exists
//     because the collector back-patches a send's Partner field when the
//     matching receive is delivered, which would race with a concurrent
//     reader of the original.
//   - A receive-like copy carries its Partner (assigned before
//     publication); consumers that need the send side's Partner re-apply
//     the back-patch against their own copies (core.Matcher.Feed does
//     this when it owns its store, as does the TCP wire client).

// BackpressurePolicy selects what the collector does when a batch
// subscriber's queue is full.
type BackpressurePolicy int

const (
	// BackpressureBlock makes Report wait (after releasing the collector
	// lock, so handlers and other readers keep running) until the slow
	// subscriber drains back under its queue depth. No event is lost;
	// ingestion is throttled to the slowest blocking subscriber.
	BackpressureBlock BackpressurePolicy = iota
	// BackpressureDrop discards the event for that subscriber and
	// increments its Dropped counter. Ingestion never stalls; the
	// subscriber's stream has gaps, so this policy is only for consumers
	// that tolerate a gapped stream. A matcher-backed monitor is not one
	// of them — its store requires each trace's events to arrive
	// gap-free, so ocep.NewMonitor rejects this policy, and the TCP
	// server disconnects a monitor connection at the first drop rather
	// than stream past the gap.
	BackpressureDrop
)

func (p BackpressurePolicy) String() string {
	switch p {
	case BackpressureBlock:
		return "block"
	case BackpressureDrop:
		return "drop"
	}
	return "unknown"
}

// Default queue sizing; see AsyncOptions.
const (
	DefaultQueueDepth = 1024
	DefaultMaxBatch   = 256
)

// AsyncOptions configures one batch subscription.
type AsyncOptions struct {
	// QueueDepth bounds the subscriber's delivery queue (default
	// DefaultQueueDepth). Under BackpressureBlock the bound is soft: a
	// Report that finds the queue full still enqueues (delivery cascades
	// are atomic) and then waits for the drain, so the instantaneous
	// depth can exceed QueueDepth by the cascade length.
	QueueDepth int
	// MaxBatch caps the events handed to the handler per call (default
	// DefaultMaxBatch). Larger batches amortize handoff overhead; smaller
	// ones bound handler latency.
	MaxBatch int
	// Policy selects the full-queue behaviour.
	Policy BackpressurePolicy
	// OnTrace, when non-nil, is called on the consumer goroutine before
	// the first event of each trace is handed over, with the trace's
	// collector ID and registered name — the in-process analogue of the
	// wire protocol's trace announcements. Replayed traces are announced
	// too.
	OnTrace func(t event.TraceID, name string)
}

func (o AsyncOptions) norm() AsyncOptions {
	if o.QueueDepth <= 0 {
		o.QueueDepth = DefaultQueueDepth
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = DefaultMaxBatch
	}
	return o
}

// BatchHandler consumes one cut batch of the delivery stream, in
// linearization order. It runs on the subscription's own goroutine, never
// under the collector's lock: unlike a synchronous Handler it may call
// the collector's and its monitor's read methods freely.
type BatchHandler func(batch []*event.Event)

// DeliveryStats are one batch subscription's cumulative counters.
type DeliveryStats struct {
	// Enqueued counts events accepted into the queue.
	Enqueued int
	// Handled counts events the handler has consumed.
	Handled int
	// Dropped counts events discarded under BackpressureDrop.
	Dropped int
	// Batches counts handler invocations.
	Batches int
	// Queued is the current queue depth (Enqueued - Handled).
	Queued int
	// MaxQueued is the high-water mark of the queue depth.
	MaxQueued int
}

// traceAnn is a pending trace announcement for one queue.
type traceAnn struct {
	id   event.TraceID
	name string
}

// queueMetrics are the delivery-pipeline instruments shared by every
// queue of one collector (the counters aggregate over subscribers;
// per-subscriber numbers remain available via DeliveryStats). All nil
// when the collector is uninstrumented — each write is a nil-safe
// no-op. A queue copies the struct at creation, so instrument before
// subscribing.
type queueMetrics struct {
	enqueued  *telemetry.Counter
	handled   *telemetry.Counter
	dropped   *telemetry.Counter
	batches   *telemetry.Counter
	batchSize *telemetry.Histogram
}

// queue is one subscriber's bounded delivery queue: multiple producers
// (Report calls, under the collector lock), one consumer goroutine.
type queue struct {
	handler  BatchHandler
	onTrace  func(event.TraceID, string)
	depth    int
	maxBatch int
	policy   BackpressurePolicy
	tel      queueMetrics

	mu   sync.Mutex
	cond *sync.Cond // broadcast on enqueue, batch completion, and close
	buf  fifo[*event.Event]
	slab event.Slab // backs the private copies in buf
	anns []traceAnn
	// announced[t] marks traces whose announcement is queued or done.
	announced []bool
	enqueued  int
	handled   int
	dropped   int
	batches   int
	maxQueued int
	closed    bool
	done      chan struct{}
}

func newQueue(h BatchHandler, opts AsyncOptions, tel queueMetrics) *queue {
	opts = opts.norm()
	q := &queue{
		handler:  h,
		onTrace:  opts.OnTrace,
		depth:    opts.QueueDepth,
		maxBatch: opts.MaxBatch,
		policy:   opts.Policy,
		tel:      tel,
		done:     make(chan struct{}),
	}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push enqueues a private copy of e. Called with the collector lock held
// (name lookups on the collector store are only safe there); the queue
// has its own lock, so the critical section is short and never blocks.
func (q *queue) push(e *event.Event, name string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	// Announce the trace even when the event itself is dropped: names are
	// metadata, and a later surviving event of the trace must match
	// process attributes correctly.
	annAdded := false
	if t := int(e.ID.Trace); q.onTrace != nil {
		for t >= len(q.announced) {
			q.announced = append(q.announced, false)
		}
		if !q.announced[t] {
			q.announced[t] = true
			q.anns = append(q.anns, traceAnn{e.ID.Trace, name})
			annAdded = true
		}
	}
	if q.policy == BackpressureDrop && q.buf.len() >= q.depth {
		q.dropped++
		q.tel.dropped.Inc()
		if annAdded {
			// The announcement must still reach the consumer even though
			// its event was dropped.
			q.cond.Broadcast()
		}
		return
	}
	cp := q.slab.New()
	*cp = *e
	q.buf.push(cp)
	q.enqueued++
	q.tel.enqueued.Inc()
	if q.buf.len() > q.maxQueued {
		q.maxQueued = q.buf.len()
	}
	q.cond.Broadcast()
}

// overDepth reports whether a blocking producer should wait for this
// queue. Called under q.mu's own locking.
func (q *queue) overDepth() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.policy == BackpressureBlock && !q.closed && q.buf.len() > q.depth
}

// waitSpace blocks until the queue is back at or under its depth (or
// closed). Must be called WITHOUT the collector lock held.
func (q *queue) waitSpace() {
	q.mu.Lock()
	defer q.mu.Unlock()
	for !q.closed && q.buf.len() > q.depth {
		q.cond.Wait()
	}
}

// run is the consumer loop: cut a batch, hand it over, repeat. On close
// it drains the remaining buffer — and any pending trace announcements —
// before exiting, so Close is a deterministic end state: every accepted
// event has been handled and every announced trace has reached OnTrace.
// Announcements also wake the consumer on their own: a trace whose first
// event was dropped under BackpressureDrop must not wait for an
// unrelated later event (or the close) to be announced.
func (q *queue) run() {
	defer close(q.done)
	for {
		q.mu.Lock()
		for q.buf.len() == 0 && len(q.anns) == 0 && !q.closed {
			q.cond.Wait()
		}
		if q.buf.len() == 0 && len(q.anns) == 0 && q.closed {
			q.mu.Unlock()
			return
		}
		// A cut copies out the batch and pops it; the rest stays put.
		n := min(q.buf.len(), q.maxBatch)
		batch := make([]*event.Event, n)
		for i := 0; i < n; {
			i += copy(batch[i:], q.buf.span(i))
		}
		q.buf.pop(n)
		anns := q.anns
		q.anns = nil
		q.mu.Unlock()

		for _, a := range anns {
			q.onTrace(a.id, a.name)
		}
		if n > 0 {
			q.handler(batch)
			q.tel.handled.Add(int64(n))
			q.tel.batches.Inc()
			q.tel.batchSize.Observe(int64(n))
		}

		q.mu.Lock()
		q.handled += n
		if n > 0 {
			q.batches++
		}
		q.cond.Broadcast()
		q.mu.Unlock()
	}
}

// flush blocks until every event enqueued before the call has been
// handled. Must not be called from the subscription's own handler.
func (q *queue) flush() {
	q.mu.Lock()
	defer q.mu.Unlock()
	target := q.enqueued
	for q.handled < target {
		q.cond.Wait()
	}
}

// close stops the queue: no further events are accepted, the consumer
// drains what is buffered and exits. Idempotent; blocks until the
// consumer goroutine has finished.
func (q *queue) close() {
	q.mu.Lock()
	if !q.closed {
		q.closed = true
		q.cond.Broadcast()
	}
	q.mu.Unlock()
	<-q.done
}

func (q *queue) stats() DeliveryStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return DeliveryStats{
		Enqueued:  q.enqueued,
		Handled:   q.handled,
		Dropped:   q.dropped,
		Batches:   q.batches,
		Queued:    q.buf.len(),
		MaxQueued: q.maxQueued,
	}
}

// SubscribeBatch registers an asynchronous batch subscriber: deliveries
// are enqueued (as private event copies) and consumed by a dedicated
// goroutine that invokes h with batches cut from the queue. Events
// delivered before the subscription are not replayed; use
// SubscribeBatchReplay for a complete linearization. Cancel the
// subscription (or Close the collector) to stop the goroutine; both drain
// the queue first.
func (c *Collector) SubscribeBatch(h BatchHandler, opts AsyncOptions) *Subscription {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.subscribeBatchLocked(h, opts, -1)
}

// SubscribeBatchReplay atomically seeds the queue with every
// already-delivered event and then registers the subscription, so the
// consumer observes one complete, gap-free linearization no matter when
// it joins. The replayed backlog is exempt from the queue depth (it is
// enqueued in one atomic step); backpressure applies from the first live
// delivery on. Under SetRetention only the retained suffix is replayed —
// consumers that need the full stream from event 0 (a matcher store
// does) must use SubscribeBatchReplayFrom, which rejects an evicted
// offset instead of handing over a gapped stream.
func (c *Collector) SubscribeBatchReplay(h BatchHandler, opts AsyncOptions) *Subscription {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.subscribeBatchLocked(h, opts, 0)
}

// SubscribeBatchReplayFrom is SubscribeBatchReplay for a resuming
// consumer: only the linearization suffix from offset on (the number of
// events the consumer has already observed) is replayed. It fails when
// offset exceeds the delivered count — the consumer is ahead of this
// collector, which means it is talking to a different (e.g. restarted)
// instance and must not be handed a stream with a silent gap — and when
// offset falls below the retention trim point (SetRetention evicted the
// requested suffix; replaying past the hole would be an equally silent
// gap).
func (c *Collector) SubscribeBatchReplayFrom(offset int, h BatchHandler, opts AsyncOptions) (*Subscription, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if offset < 0 || offset > c.trimmedFrom+len(c.order) {
		return nil, fmt.Errorf("poet: resume offset %d out of range (delivered %d)", offset, c.trimmedFrom+len(c.order))
	}
	if offset < c.trimmedFrom {
		return nil, fmt.Errorf("poet: resume offset %d was evicted by retention (oldest retained event is %d)", offset, c.trimmedFrom)
	}
	return c.subscribeBatchLocked(h, opts, offset-c.trimmedFrom), nil
}

// subscribeBatchLocked registers a batch subscription, replaying the
// linearization from replayFrom (replayFrom == delivered count means no
// replay; use a negative value to skip replay entirely).
func (c *Collector) subscribeBatchLocked(h BatchHandler, opts AsyncOptions, replayFrom int) *Subscription {
	q := newQueue(h, opts, c.tel.queues)
	if replayFrom >= 0 {
		// Seeding bypasses the drop policy: the backlog is part of the
		// atomic replay contract.
		saved := q.policy
		q.policy = BackpressureBlock
		for _, e := range c.order[replayFrom:] {
			q.push(e, c.store.TraceName(e.ID.Trace))
		}
		q.policy = saved
	}
	go q.run()
	return c.subscribeLocked(nil, q)
}

// Flush blocks until every async subscriber has handled everything
// delivered before the call. Synchronous handlers need no flushing (they
// run on the delivery path). Must not be called from a handler.
func (c *Collector) Flush() {
	for _, q := range c.asyncQueues() {
		q.flush()
	}
}

// Close cancels every async subscription, draining each queue and
// stopping its consumer goroutine. Synchronous subscriptions and the
// collector's ingestion state are untouched; reporting may continue.
// Idempotent.
func (c *Collector) Close() {
	c.mu.Lock()
	var queues []*queue
	c.subs = slices.DeleteFunc(c.subs, func(s subscriber) bool {
		if s.q != nil {
			queues = append(queues, s.q)
		}
		return s.q != nil
	})
	c.mu.Unlock()
	for _, q := range queues {
		q.close()
	}
}

// asyncQueues snapshots the registered queues outside the collector lock.
func (c *Collector) asyncQueues() []*queue {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []*queue
	for _, s := range c.subs {
		if s.q != nil {
			out = append(out, s.q)
		}
	}
	return out
}
