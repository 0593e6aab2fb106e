package poet

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"ocep/internal/event"
	"ocep/internal/telemetry"
)

// Outbound streams. Every log the collector hands out is read through a
// cursor: a position in the log and a floor (the end of the last span
// its consumer finished), moved by one goroutine that cuts the next span
// under the collector lock and hands it over outside it. The delivery
// log (Collector.log) is read by batch subscribers and monitor
// sessions, the journal by replica sessions, the shard export index by
// peer shards. Appends wake the cursors through the collector's fresh
// cond, once per ingesting call; a consumer's progress wakes its waiters
// through drained. Three rules make that safe:
//
//   - A span stays valid: an append writes past every span, and no
//     record moves. A trim never passes a subscriber's floor.
//   - A delivered event is immutable but for a send-like event's Partner,
//     which the collector writes under its lock when the receive is
//     delivered: outside the lock only readablePartner reads it, and
//     consumers re-apply the back-patch (core.Matcher.Feed, MonitorClient).
//   - A derived stream — monitor or export — hands a span over only once
//     the stable watermark covers the ingest count its cut was taken at
//     (see awaitStable): no consumer that outlives the collector sees a
//     prefix recovery or promotion would not reproduce. The replica
//     stream is what moves that watermark, so it reads the journal head.

// readablePartner is e.Partner as read outside the collector's lock.
func readablePartner(e *event.Event) event.Ref {
	if isSendLike(e.Kind) {
		return event.Ref{}
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
	// BackpressureDrop evicts a subscriber that lags more than its depth:
	// it has been handed a gap-free prefix, gets nothing more, and
	// DeliveryStats.Dropped counts what it lagged behind by. Ingestion
	// never stalls and retention holds nothing back for it. A matcher
	// needs the whole stream, so ocep.NewMonitor rejects this policy; the
	// TCP server disconnects the evicted monitor, which resumes from its
	// offset.
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
	// the first event of each trace is handed over, with the trace's ID
	// and name: the wire's trace announcements.
	OnTrace func(t event.TraceID, name string)
}

// BatchHandler consumes one cut batch of the delivery stream, in
// linearization order, on the subscription's own goroutine and outside
// the collector's lock: it may call the collector's read methods. The
// events are the collector's own: it must not modify them, nor read a
// send-like event's Partner (see CopyBatch). The slice is the cursor's,
// refilled for the next batch once the handler returns: a handler that
// keeps the pointers past its return copies them out.
type BatchHandler func(batch []*event.Event)

// DeliveryStats are one batch subscription's cumulative counters.
type DeliveryStats struct {
	// Enqueued counts the events delivered since the subscription's start
	// (a replayed backlog included), up to its eviction.
	Enqueued int
	// Handled counts events the handler has consumed.
	Handled int
	// Dropped is how far a BackpressureDrop subscriber lagged behind when
	// it was evicted: delivered events it was never handed. 0 until then.
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

// errLagging ends a BackpressureDrop cursor that lags past its depth.
var errLagging = errors.New("poet: subscriber lagged past its queue depth; evicted")

// cursor is one reader of one of the collector's logs, its positions
// counted in records from the log's first (for the delivery log, in
// delivered events, as resume offsets are).
type cursor struct {
	c *Collector
	// head is the log's length, and cut takes the records from seen toward
	// end — at most one batch, or a chunk's worth — and returns the
	// position past them. Both run under the collector's mu.
	head func() int
	cut  func(from, end int) int
	// hand gives what cut took to the consumer, outside the lock; an error
	// ends the cursor.
	hand func() error
	// stable holds each span back until the stable watermark covers its cut.
	stable bool
	done   chan struct{}
	// floor is the first record the consumer may still read (under the
	// collector's mu).
	floor int
	// A batch subscription's pacing (see paceLocked); zero for the others.
	depth  int
	policy BackpressurePolicy
	tel    queueMetrics
	// Written under the collector's mu and mu, read under either: Stats
	// takes only mu, as a synchronous handler calling it holds the other.
	// seen ends the last cut, stop is the head at close, err why the
	// cursor ended before it (nil for a close).
	mu                                sync.Mutex
	start, seen, stop                 int
	closed                            bool
	err                               error
	handled, batches, dropped, maxLag int
}

// endLocked is the end of the cursor's stream.
func (cur *cursor) endLocked() int {
	if cur.closed {
		return cur.stop
	}
	return cur.head()
}

// run is the consumer loop: cut a span, wait for it to be stable if the
// stream is derived, hand it over. Closed, it drains up to stop first,
// so a close is a deterministic end state.
func (cur *cursor) run() {
	c := cur.c
	defer close(cur.done)
	c.mu.Lock()
	for {
		for cur.seen >= cur.endLocked() && !cur.closed {
			c.fresh.Wait()
		}
		end := cur.endLocked()
		if cur.seen >= end { // a journal or export span may run past a stop
			c.cursors = slices.DeleteFunc(c.cursors, func(x *cursor) bool { return x == cur })
			c.mu.Unlock()
			return
		}
		end = cur.cut(cur.seen, end)
		cur.mu.Lock()
		cur.seen = end
		cur.mu.Unlock()
		at := c.markLocked()
		c.mu.Unlock()

		var err error
		if cur.stable {
			_, err = c.awaitStable(at, -1)
		}
		if err == nil {
			err = cur.hand()
		}

		c.mu.Lock()
		if err != nil {
			cur.closeLocked(cur.seen, err)
		}
		cur.floor = cur.seen
		c.drained.Broadcast()
	}
}

// closeLocked stops the cursor at position stop, err saying why if it
// ends early: an error also cuts short a close's drain. Idempotent.
func (cur *cursor) closeLocked(stop int, err error) {
	if cur.closed && (err == nil || cur.err != nil) {
		return
	}
	cur.mu.Lock()
	cur.closed, cur.stop, cur.err = true, stop, err
	cur.mu.Unlock()
	cur.c.fresh.Broadcast()
	cur.c.drained.Broadcast() // a Report waiting on this cursor
}

// close stops the cursor at the current head and waits for the consumer
// to drain up to it; it returns the error the cursor ended with, if it
// ended early. Idempotent.
func (cur *cursor) close() error {
	c := cur.c
	c.mu.Lock()
	cur.closeLocked(cur.head(), nil)
	c.mu.Unlock()
	<-cur.done
	return cur.err
}

// flushLocked waits until the handler has consumed everything before
// target, or everything the cursor will hand over if it closes first.
func (cur *cursor) flushLocked(target int) {
	for cur.floor < min(target, cur.endLocked()) {
		cur.c.drained.Wait()
	}
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
		Enqueued:  head - cur.start,
		Handled:   cur.handled,
		Dropped:   cur.dropped,
		Batches:   cur.batches,
		Queued:    head - cur.seen,
		MaxQueued: cur.maxLag,
	}
}

// tail starts a cursor's consumer at position from; a subscription
// calls it in the critical section that registers the cursor.
func (c *Collector) tail(cur *cursor, from int) *cursor {
	cur.c, cur.done = c, make(chan struct{})
	cur.start, cur.seen, cur.floor = from, from, from
	go cur.run()
	return cur
}

// paceLocked ends each ingesting call: it wakes the cursors, evicts each
// Drop subscriber lagging past its depth, and reports whether a Block
// one does.
func (c *Collector) paceLocked() (lagging bool) {
	c.fresh.Broadcast()
	if len(c.cursors) == 0 {
		return false
	}
	c.head.Store(int64(c.delivered)) // before any seen moves past it
	evicted := false
	for _, cur := range c.cursors {
		if cur.closed {
			continue
		}
		lag := c.delivered - cur.seen
		if lag > cur.maxLag {
			cur.mu.Lock()
			cur.maxLag = lag
			cur.mu.Unlock()
		}
		if lag > cur.depth && cur.policy == BackpressureDrop {
			// The consumer is handed what it has cut and nothing more; it
			// reads no further, so it pins neither retention nor Flush.
			cur.tel.dropped.Add(int64(lag))
			cur.mu.Lock()
			cur.dropped = lag
			cur.mu.Unlock()
			cur.closeLocked(cur.seen, fmt.Errorf("%w (%d events behind, depth %d)", errLagging, lag, cur.depth))
			evicted = true
		}
		lagging = lagging || lag > cur.depth && !cur.closed
	}
	if evicted {
		c.cursors = slices.DeleteFunc(c.cursors, func(cur *cursor) bool { return cur.err != nil })
	}
	return lagging
}

// awaitCursors blocks until no Block cursor lags past its depth.
func (c *Collector) awaitCursors() {
	start := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	for slices.ContainsFunc(c.cursors, func(cur *cursor) bool {
		return !cur.closed && cur.policy == BackpressureBlock && c.delivered-cur.seen > cur.depth
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
	return c.subscribeBatchLocked(c.delivered, opts, false, opts.OnTrace != nil, handlerOf(h, opts.OnTrace))
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
	return c.subscribeBatchLocked(c.trimmedFrom, opts, false, opts.OnTrace != nil, handlerOf(h, opts.OnTrace))
}

// SubscribeBatchReplayFrom is SubscribeBatchReplay for a resuming
// consumer: the cursor starts at offset, the events it already observed.
// It fails when offset exceeds the delivered count (the consumer saw a
// different, e.g. restarted, collector) or falls below the retention
// trim point: either would be a silent gap.
func (c *Collector) SubscribeBatchReplayFrom(offset int, h BatchHandler, opts AsyncOptions) (*Subscription, error) {
	return c.subscribeFrom(offset, opts, false, opts.OnTrace != nil, handlerOf(h, opts.OnTrace))
}

// handlerOf adapts a BatchHandler and its OnTrace to a cursor's handoff.
func handlerOf(h BatchHandler, onTrace func(event.TraceID, string)) func([]traceAnn, []*event.Event) error {
	return func(anns []traceAnn, batch []*event.Event) error {
		for _, a := range anns {
			onTrace(a.id, a.name)
		}
		h(batch)
		return nil
	}
}

// subscribeFrom validates a resume offset and registers a subscriber there.
func (c *Collector) subscribeFrom(offset int, opts AsyncOptions, stable, announce bool, h func([]traceAnn, []*event.Event) error) (*Subscription, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch d := c.durable; {
	case offset > c.delivered && d != nil && (d.recovery.DiscardedRecords > 0 || d.recovery.SnapshotTruncated):
		// A recovered collector may legitimately be behind a consumer that
		// outlived it: say so, instead of implying the consumer is confused.
		return nil, fmt.Errorf("poet: cannot resume from offset %d: crash recovery rebuilt only %d events (%d WAL records discarded); the requested suffix no longer exists",
			offset, c.delivered, d.recovery.DiscardedRecords)
	case offset < 0 || offset > c.delivered:
		return nil, fmt.Errorf("poet: cannot resume from offset %d (delivered %d): this collector did not produce that stream", offset, c.delivered)
	case offset < c.trimmedFrom:
		return nil, fmt.Errorf("poet: cannot resume from offset %d: retention evicted events below %d; the requested suffix no longer exists", offset, c.trimmedFrom)
	}
	return c.subscribeBatchLocked(offset, opts, stable, announce, h), nil
}

// subscribeBatchLocked registers a cursor over the delivery log at
// position from, its spans held back until stable if stable is set. h
// gets each cut batch and, if announce is set, the traces it shows the
// subscriber first: the cut's lock hold does every name lookup.
func (c *Collector) subscribeBatchLocked(from int, opts AsyncOptions, stable, announce bool, h func([]traceAnn, []*event.Event) error) *Subscription {
	maxBatch := cmp.Or(max(opts.MaxBatch, 0), DefaultMaxBatch)
	var (
		batch     []*event.Event
		announced []bool
		anns      []traceAnn
	)
	cur := &cursor{
		depth: cmp.Or(max(opts.QueueDepth, 0), DefaultQueueDepth), policy: opts.Policy,
		tel: c.tel.queues, stable: stable, maxLag: c.delivered - from,
		head: func() int { return c.delivered },
	}
	cur.cut = func(from, end int) int {
		end = min(end, from+maxBatch)
		batch, anns = batch[:0], anns[:0]
		for p := from; p < end; p++ {
			e := c.log.At(p - c.trimmedFrom)
			batch = append(batch, e)
			if t := int(e.ID.Trace); announce && (t >= len(announced) || !announced[t]) {
				announced = append(announced, make([]bool, max(0, t+1-len(announced)))...)
				announced[t] = true
				anns = append(anns, traceAnn{e.ID.Trace, c.store.TraceName(e.ID.Trace)})
			}
		}
		return end
	}
	cur.hand = func() error {
		n := int64(len(batch)) // > 0: a cut is never empty
		cur.tel.enqueued.Add(n)
		err := h(anns, batch)
		cur.tel.handled.Add(n)
		cur.tel.batches.Inc()
		cur.tel.batchSize.Observe(n)
		cur.mu.Lock()
		cur.handled += len(batch)
		cur.batches++
		cur.mu.Unlock()
		return err
	}
	c.cursors = append(c.cursors, cur)
	c.head.Store(int64(c.delivered))
	return &Subscription{c: c, cur: c.tail(cur, from)}
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

// The stable watermark: a record is stable once it is durable under the
// fsync policy and every attached replica has confirmed it. Recovery
// and promotion both reproduce the stable prefix — a downward-closed cut
// of the causal order, since the journal is ingestion-ordered and every
// delivered event's causal past was ingested before it — so it is all a
// derived stream may show a consumer that outlives this collector, and
// all a reporter may be told to prune. A replica holds it back only
// while attached: one that detaches (the server's peer timeout evicts a
// hung one) lifts the hold, the warm-standby trade documented in
// replication.go.

// mark names a position in the record stream: the ingest count and the
// WAL append position, taken together under the collector's mu. The WAL
// position is 0 unless the fsync policy is SyncAlways: the weaker ones
// trade the durability half away.
type mark struct {
	ingests int
	wal     int64
	d       *Durability
}

func (c *Collector) markLocked() mark {
	m := mark{ingests: c.ingests, d: c.durable}
	if m.d != nil && m.d.policy == SyncAlways {
		m.wal = m.d.log.Appended()
	}
	return m
}

// replicatedLocked reports whether every attached replica has confirmed
// the first n event records.
func (c *Collector) replicatedLocked(n int) bool {
	return len(c.repl.confirmed) == 0 || c.repl.minConfirmed() >= n
}

// awaitStable blocks until m is stable or wait elapses (a negative wait
// never does) and reports whether it is; the error is a broken WAL's.
func (c *Collector) awaitStable(m mark, wait time.Duration) (bool, error) {
	if m.wal > 0 {
		if err := m.d.log.Commit(m.wal); err != nil {
			return false, fmt.Errorf("durability barrier: %w", err)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.awaitLocked(wait, func() bool { return c.replicatedLocked(m.ingests) }), nil
}

// awaitLocked waits on fresh, mu held, until ok holds or wait elapses (a
// negative wait never does) and reports whether ok holds. Whatever ok
// reads broadcasts fresh when it changes; so does the deadline timer.
func (c *Collector) awaitLocked(wait time.Duration, ok func() bool) bool {
	if ok() {
		return true // before the timer's flag, which the heap holds
	}
	expired := false
	if wait >= 0 {
		t := time.AfterFunc(wait, func() {
			c.mu.Lock()
			expired = true
			c.fresh.Broadcast()
			c.mu.Unlock()
		})
		defer t.Stop()
	}
	for !expired && !ok() {
		c.fresh.Wait()
	}
	return ok()
}
