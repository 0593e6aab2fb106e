package poet

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"time"

	"ocep/internal/event"
	"ocep/internal/telemetry"
)

// Asynchronous delivery. A batch subscriber is a cursor: a position in
// the collector's delivery log (Collector.order). Ingestion only appends
// to the log and wakes the subscribers once per Report; each consumer
// goroutine cuts its next span of the log under the collector lock, once
// per batch, and hands the collector's own events to its handler outside
// the lock. Every subscriber reads the one linearization, and a resume is
// a position, not a copy of history. Two rules make that safe:
//
//   - A span of the log stays valid: an append writes past every span,
//     and a regrowth or a retention trim builds a new array. A trim never
//     passes a cursor's floor, but a Drop cursor holds back no more than
//     its depth: one lagging further skips to the oldest retained event,
//     so a stuck Drop handler pins at most depth events.
//   - A delivered event is immutable but for a send-like event's Partner,
//     which the collector writes under its lock when the receive is
//     delivered: outside the lock only readablePartner reads it, and
//     consumers re-apply the back-patch (core.Matcher.Feed, MonitorClient).

// readablePartner is e.Partner as read outside the collector's lock.
func readablePartner(e *event.Event) event.ID {
	if isSendLike(e.Kind) {
		return event.ID{}
	}
	return e.Partner
}

// BackpressurePolicy selects what the collector does when a batch
// subscriber lags more than its depth behind the delivery head.
type BackpressurePolicy int

const (
	// BackpressureBlock makes Report wait (without the collector lock)
	// until the subscriber is back within its depth. No event is lost;
	// ingestion is throttled to the slowest blocking subscriber.
	BackpressureBlock BackpressurePolicy = iota
	// BackpressureDrop skips a subscriber that lags more than its depth
	// ahead to within depth of the head, counting the skipped (oldest
	// unhanded) events in Dropped; retention holds back no more of the
	// log for it. Ingestion never stalls, but the stream has gaps: a matcher-backed monitor cannot take them, so
	// ocep.NewMonitor rejects this policy, and the TCP server disconnects
	// a monitor connection at its first drop.
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

// Default subscription sizing; see AsyncOptions.
const (
	DefaultQueueDepth = 1024
	DefaultMaxBatch   = 256
)

// AsyncOptions configures one batch subscription.
type AsyncOptions struct {
	// QueueDepth bounds the subscriber's lag, the delivered events not yet
	// handed over (default DefaultQueueDepth). Under BackpressureBlock the
	// bound is soft: a Report's cascade is delivered whole, then it waits.
	QueueDepth int
	// MaxBatch caps the events handed to the handler per call (default
	// DefaultMaxBatch): larger amortizes handoff, smaller bounds latency.
	MaxBatch int
	// Policy selects what happens past the depth.
	Policy BackpressurePolicy
	// OnTrace, when non-nil, is called on the consumer goroutine before
	// the first event of each trace is handed over (or skipped, unless
	// retention evicted it first), with the trace's ID and name: the
	// wire's trace announcements.
	OnTrace func(t event.TraceID, name string)
}

// BatchHandler consumes one cut batch of the delivery stream, in
// linearization order, on the subscription's own goroutine and outside
// the collector's lock: it may call the collector's read methods. The
// events are the collector's own: it must not modify them, nor read a
// send-like event's Partner (see CopyBatch).
type BatchHandler func(batch []*event.Event)

// DeliveryStats are one batch subscription's cumulative counters.
type DeliveryStats struct {
	// Enqueued counts the events delivered since the subscription's start
	// (a replayed backlog included), less the skipped ones.
	Enqueued int
	// Handled counts events the handler has consumed.
	Handled int
	// Dropped counts events skipped under BackpressureDrop.
	Dropped int
	// Batches counts handler invocations.
	Batches int
	// Queued is the current lag: delivered events not yet handed over.
	Queued int
	// MaxQueued is the high-water mark of the lag.
	MaxQueued int
}

// traceAnn is a trace announcement: its ID and registered name.
type traceAnn struct {
	id   event.TraceID
	name string
}

// queueMetrics are the delivery instruments, summed over subscriptions
// (nil, a no-op, when uninstrumented); each subscription copies them.
type queueMetrics struct {
	enqueued, handled, dropped, batches *telemetry.Counter
	batchSize                           *telemetry.Histogram
}

// cursor is one batch subscriber's position in the delivery log,
// counted in delivered events from the first, as resume offsets are.
type cursor struct {
	c        *Collector
	handler  BatchHandler
	onTrace  func(event.TraceID, string)
	depth    int
	maxBatch int
	policy   BackpressurePolicy
	tel      queueMetrics
	done     chan struct{}

	// Under the collector's mu: seen ends the last cut (below next after a
	// skip); floor is the first event the consumer may still read.
	seen, floor int
	// Written under the collector's mu and mu, read under either: Stats
	// takes only mu, as a synchronous handler calling it holds the other.
	// next is the next event to hand over, stop the head at close.
	mu                                sync.Mutex
	start, next, stop                 int
	closed                            bool
	handled, dropped, batches, maxLag int
	// The consumer's own: the traces announced, and a cut's new ones.
	announced []bool
	anns      []traceAnn
}

// headLocked is the end of the cursor's stream.
func (cur *cursor) headLocked() int {
	if cur.closed {
		return cur.stop
	}
	return cur.c.delivered
}

// run is the consumer loop: cut a span, announce its new traces, hand
// the batch over. Closed, it drains up to stop first, so Cancel is a
// deterministic end state.
func (cur *cursor) run() {
	c := cur.c
	defer close(cur.done)
	c.mu.Lock()
	for {
		for cur.seen == cur.headLocked() && !cur.closed {
			c.fresh.Wait()
		}
		head := cur.headLocked()
		if cur.seen == head {
			c.cursors = slices.DeleteFunc(c.cursors, func(x *cursor) bool { return x == cur })
			c.mu.Unlock()
			return
		}
		end := min(head, cur.next+cur.maxBatch)
		span := c.order[cur.seen-c.trimmedFrom : end-c.trimmedFrom]
		batch := span[cur.next-cur.seen:]
		anns := cur.newTracesLocked(span)
		cur.seen = end
		cur.mu.Lock()
		cur.next = end
		cur.mu.Unlock()
		c.mu.Unlock()

		for _, a := range anns {
			cur.onTrace(a.id, a.name)
		}
		n := int64(len(batch)) // > 0: seen < head keeps next < head
		cur.tel.enqueued.Add(n)
		cur.handler(batch)
		cur.tel.handled.Add(n)
		cur.tel.batches.Inc()
		cur.tel.batchSize.Observe(n)

		c.mu.Lock()
		cur.mu.Lock()
		cur.handled += len(batch)
		cur.batches++
		cur.mu.Unlock()
		cur.floor = cur.seen
		c.drained.Broadcast()
	}
}

// newTracesLocked names, for OnTrace, the traces span shows the
// subscriber first: the cut's lock hold does every lookup.
func (cur *cursor) newTracesLocked(span []*event.Event) []traceAnn {
	cur.anns = cur.anns[:0]
	for _, e := range span {
		t := int(e.ID.Trace)
		if cur.onTrace == nil || t < len(cur.announced) && cur.announced[t] {
			continue
		}
		cur.announced = append(cur.announced, make([]bool, max(0, t+1-len(cur.announced)))...)
		cur.announced[t] = true
		cur.anns = append(cur.anns, traceAnn{e.ID.Trace, cur.c.store.TraceName(e.ID.Trace)})
	}
	return cur.anns
}

// flushLocked waits until the handler has consumed everything before
// target, or everything the cursor will hand over if it closes first.
func (cur *cursor) flushLocked(target int) {
	for cur.floor < min(target, cur.headLocked()) {
		cur.c.drained.Wait()
	}
}

// close stops the cursor at the current head and waits for the consumer
// to drain up to it. Idempotent.
func (cur *cursor) close() {
	c := cur.c
	c.mu.Lock()
	if !cur.closed {
		cur.mu.Lock()
		cur.closed, cur.stop = true, c.delivered
		cur.mu.Unlock()
		c.fresh.Broadcast()
		c.drained.Broadcast() // a Report waiting on this cursor
	}
	c.mu.Unlock()
	<-cur.done
}

// stats reads the counters without the collector's lock.
func (cur *cursor) stats() DeliveryStats {
	cur.mu.Lock()
	defer cur.mu.Unlock()
	head := cur.stop
	if !cur.closed {
		head = int(cur.c.head.Load())
	}
	return DeliveryStats{
		Enqueued:  head - cur.start - cur.dropped,
		Handled:   cur.handled,
		Dropped:   cur.dropped,
		Batches:   cur.batches,
		Queued:    head - cur.next,
		MaxQueued: cur.maxLag,
	}
}

// paceLocked ends each ingesting call: it wakes the consumers if the head
// moved past before, skips each Drop cursor lagging past its depth, and
// reports whether a Block cursor does.
func (c *Collector) paceLocked(before int) (lagging bool) {
	if len(c.cursors) == 0 {
		return false
	}
	if c.delivered > before {
		c.head.Store(int64(c.delivered)) // before any next moves past it
		c.fresh.Broadcast()
	}
	for _, cur := range c.cursors {
		if cur.closed {
			continue
		}
		lag := c.delivered - cur.next
		skip := 0
		if lag > cur.depth && cur.policy == BackpressureDrop {
			skip, lag = lag-cur.depth, cur.depth
		}
		if skip > 0 || lag > cur.maxLag {
			cur.skipLocked(skip, lag)
		}
		lagging = lagging || lag > cur.depth
	}
	return lagging
}

// skipEvictedLocked moves each Drop cursor a retention trim passed (it
// lagged past its depth) to the oldest retained event.
func (c *Collector) skipEvictedLocked() {
	for _, cur := range c.cursors {
		if cur.seen < c.trimmedFrom {
			cur.seen = c.trimmedFrom
			cur.skipLocked(max(0, c.trimmedFrom-cur.next), 0)
		}
	}
}

// skipLocked moves the cursor n events ahead, counting them dropped, and
// raises its lag's high-water mark to lag.
func (cur *cursor) skipLocked(n, lag int) {
	cur.tel.dropped.Add(int64(n))
	cur.mu.Lock()
	cur.next += n
	cur.dropped += n
	cur.maxLag = max(cur.maxLag, lag)
	cur.mu.Unlock()
}

// awaitCursors blocks until no Block cursor lags past its depth.
func (c *Collector) awaitCursors() {
	start := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	for slices.ContainsFunc(c.cursors, func(cur *cursor) bool {
		return !cur.closed && cur.policy == BackpressureBlock && c.delivered-cur.next > cur.depth
	}) {
		c.drained.Wait()
	}
	c.tel.blockedNs.Add(time.Since(start).Nanoseconds())
}

// SubscribeBatch registers an asynchronous batch subscriber: a cursor at
// the delivery head whose goroutine invokes h with batches cut from the
// delivery log. Use SubscribeBatchReplay to see earlier events too.
// Cancel (or Close the collector) to stop the goroutine; both drain it.
func (c *Collector) SubscribeBatch(h BatchHandler, opts AsyncOptions) *Subscription {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.subscribeBatchLocked(h, opts, c.delivered)
}

// SubscribeBatchReplay is SubscribeBatch with the cursor at the first
// retained event, so the consumer observes one gap-free linearization
// whenever it joins. Nothing is copied: the backlog is the cursor's lag,
// subject to backpressure from the next Report on. Under SetRetention
// that is only the retained suffix; a consumer that needs event 0 uses
// SubscribeBatchReplayFrom, which rejects an evicted offset.
func (c *Collector) SubscribeBatchReplay(h BatchHandler, opts AsyncOptions) *Subscription {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.subscribeBatchLocked(h, opts, c.trimmedFrom)
}

// SubscribeBatchReplayFrom is SubscribeBatchReplay for a resuming
// consumer: the cursor starts at offset, the events it already observed.
// It fails when offset exceeds the delivered count (the consumer saw a
// different, e.g. restarted, collector) or falls below the retention
// trim point: either would be a silent gap.
func (c *Collector) SubscribeBatchReplayFrom(offset int, h BatchHandler, opts AsyncOptions) (*Subscription, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if offset < 0 || offset > c.delivered {
		return nil, fmt.Errorf("poet: resume offset %d out of range (delivered %d)", offset, c.delivered)
	}
	if offset < c.trimmedFrom {
		return nil, fmt.Errorf("poet: resume offset %d was evicted by retention (oldest retained event is %d)", offset, c.trimmedFrom)
	}
	return c.subscribeBatchLocked(h, opts, offset), nil
}

// subscribeBatchLocked registers a cursor at delivery position from.
func (c *Collector) subscribeBatchLocked(h BatchHandler, opts AsyncOptions, from int) *Subscription {
	cur := &cursor{
		c: c, handler: h, onTrace: opts.OnTrace, policy: opts.Policy, tel: c.tel.queues,
		depth: cmp.Or(max(opts.QueueDepth, 0), DefaultQueueDepth), done: make(chan struct{}),
		start: from, next: from, seen: from, floor: from, maxLag: c.delivered - from,
		maxBatch: cmp.Or(max(opts.MaxBatch, 0), DefaultMaxBatch),
	}
	c.cursors = append(c.cursors, cur)
	c.head.Store(int64(c.delivered))
	go cur.run()
	return &Subscription{c: c, cur: cur}
}

// Flush blocks until every async subscriber has handled everything
// delivered before the call. Synchronous handlers need no flushing (they
// run on the delivery path). Must not be called from a handler.
func (c *Collector) Flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	target := c.delivered
	for _, cur := range slices.Clone(c.cursors) {
		cur.flushLocked(target)
	}
}

// Close cancels every async subscription, draining each cursor and
// stopping its goroutine. Synchronous subscriptions and ingestion are
// untouched. Idempotent.
func (c *Collector) Close() {
	c.mu.Lock()
	cursors := slices.Clone(c.cursors)
	c.mu.Unlock()
	for _, cur := range cursors {
		cur.close()
	}
}
