// Package poet reimplements, in Go, the slice of the Partial-Order Event
// Tracer (POET) that OCEP builds on (Section V-A of the paper): a
// target-system-independent collector that ingests raw instrumented
// events from the traces of a distributed application, reconstructs the
// causal partial order, assigns vector timestamps (in the collector, not
// in the application), and streams the events to monitor clients in a
// linearization of the partial order. It also provides POET's dump and
// reload features and a TCP server/client pair.
package poet

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ocep/internal/event"
	"ocep/internal/fifo"
	"ocep/internal/telemetry"
	"ocep/internal/vclock"
)

// RawEvent is one instrumented action reported by a target process
// before causality reconstruction.
type RawEvent struct {
	// Trace is the reporting trace's name (process, thread, or passive
	// entity such as a semaphore).
	Trace string
	// Seq is the 1-based position of the event within its trace.
	Seq int
	// Kind is the communication role.
	Kind event.Kind
	// Type and Text are the pattern-matchable attributes.
	Type, Text string
	// MsgID pairs a send-like event (KindSend, KindSyncRelease) with
	// its receive-like partner (KindReceive, KindSyncAcquire). Zero for
	// internal events.
	MsgID uint64
}

func isSendLike(k event.Kind) bool {
	return k == event.KindSend || k == event.KindSyncRelease
}

func isRecvLike(k event.Kind) bool {
	return k == event.KindReceive || k == event.KindSyncAcquire
}

// Handler consumes delivered events. Handlers are invoked in delivery
// order — for one event, in subscription order — while the collector's
// lock is held: they must be fast and must not call back into the
// Collector. Use SubscribeBatch for a handler
// that runs off the delivery path (its own goroutine, batched, with a
// bounded lag and a backpressure policy).
type Handler func(*event.Event)

// ErrStaleEvent reports a raw event at or before an already-delivered or
// already-buffered position of its trace.
var ErrStaleEvent = errors.New("poet: stale or duplicate raw event")

// ErrOverloaded reports a raw event refused by admission control: the
// reporting trace already has the configured maximum of buffered
// out-of-order events (SetAdmissionLimit). The event was not ingested;
// the reporter should back off and retransmit (the wire server does this
// transparently, shedding load onto the reporter's bounded buffer).
var ErrOverloaded = errors.New("poet: collector overloaded")

// Refusals of what an event cannot hold: an Event keeps its kind in one
// byte and its partner in an event.Ref, and a timestamp counts in int32.
var (
	// ErrEventKind reports a kind above event.KindSyncRelease.
	ErrEventKind = errors.New("poet: unknown event kind")
	// ErrSeqRange reports a sequence number above math.MaxInt32.
	ErrSeqRange = errors.New("poet: sequence number out of range")
	// ErrTooManyTraces reports the trace that would reach
	// event.MaxTraces.
	ErrTooManyTraces = errors.New("poet: too many traces")
)

// Collector ingests raw events, reconstructs causality, and delivers
// stamped events in a linearization of the partial order. It is safe for
// concurrent use by multiple reporting goroutines.
type Collector struct {
	mu    sync.Mutex
	store *event.Store
	// stamps[t] is the stamp of trace t's latest delivered event, the
	// zero Stamp before its first. Its join clock is the trace's last
	// receive's: the next event shares it unless it joins again, so a
	// trace pins at most one join clock (and the slab chunk it was carved
	// from) beyond what retention keeps.
	stamps []vclock.Stamp
	// nextSeq[t] is the next sequence number trace t will deliver.
	nextSeq []int
	// pending[t] holds the raw events that arrived ahead of trace t's
	// delivery point, in Seq order (see held.go).
	pending []heldQueue
	// registered[t] marks a trace registered here: a sharded store leaves
	// holes for the IDs its peers home.
	registered []bool
	// sends is the MsgID table, a word per MsgID seen (see sendRemote).
	sends msgTable
	// recvWait maps a MsgID to traces whose delivery head waits for it;
	// waitFree holds the lists woken sends emptied, for the next waiter.
	recvWait map[uint64][]event.TraceID
	waitFree [][]event.TraceID
	// heldRemote records when a sharded collector first held a receive
	// on a MsgID no local sender has claimed — the send should arrive
	// via the cross-shard exchange, so its age measures exchange health
	// (the stall watchdog's held-event gauges read it).
	heldRemote map[uint64]time.Time
	// subs lists the synchronous handlers in subscription order, the
	// order one event reaches them in.
	subs        []subscriber
	nextHandler int
	delivered   int
	// cursors are the batch subscribers (delivery.go). fresh wakes every
	// cursor when a log grows, and the stable-watermark waiters when it
	// moves; drained wakes a cursor's waiters when its consumer moves.
	// head is delivered, for DeliveryStats.
	cursors        []*cursor
	fresh, drained sync.Cond
	head           atomic.Int64
	// slab backs the join clocks.
	slab event.Slab
	// log is the linearization clients (and cursors) read and the
	// delivered events' storage at once: each is carved in place, in
	// chunks that never move. log.At(0) is delivery number trimmedFrom.
	log fifo.Queue[event.Event]
	// open holds, under retention, the sends delivered since the last
	// trim and those still unmatched before it: all a trim must keep.
	open []event.ID
	// journal, when non-nil, is the ingestion-ordered log of every
	// accepted record that dumps, the WAL and replica sessions read
	// (see journal.go). nil until EnableReplicationLog.
	journal *journal
	rec     []byte // recordLocked's encoding of the last record; its readers copy it
	// retain, when positive, bounds log.Len(): SetRetention trims the
	// linearization log (and compacts the store) once it exceeds the
	// bound by a quarter. 0 means keep everything.
	retain int
	// trimmedFrom is the number of delivered events trimmed off the front
	// of the log by retention.
	trimmedFrom int
	// evictedEvents counts events evicted by retention (log trims).
	evictedEvents int
	// compactedEvents counts events released from the store by retention.
	compactedEvents int
	// admission, when positive, caps the buffered out-of-order events per
	// trace: a Report that would exceed it fails with ErrOverloaded.
	admission int
	// durable, when non-nil, write-ahead-logs every journal record (see
	// durable.go): the WAL is the journal's disk image. Appends happen
	// under mu so the orders agree; the durability barrier (fsync) runs
	// after mu is released.
	durable *Durability
	// ingests counts successfully ingested events (delivered + buffered
	// pending): the event-record position replication offsets are
	// expressed in. Equals journal.events() when a journal is kept.
	ingests int
	// repl tracks what the attached replica sessions have confirmed (see
	// replication.go).
	repl replState
	// replAckWait bounds how long acksFor waits for the stable watermark
	// before withholding the ack for one interval (reporters simply
	// retry); zero means defaultReplAckWait.
	replAckWait time.Duration
	// sharded, when true, makes this collector one shard of a tier:
	// trace IDs are striped across shards (a trace homed here gets a
	// global ID congruent to shardID mod numShards), delivered sends are
	// exported for peer shards, and a receive whose send was delivered
	// on a peer is stamped from remote (see shard.go).
	sharded            bool
	shardID, numShards int
	// shardLocals counts the traces homed on this shard; the next one
	// gets global ID shardID + numShards*shardLocals.
	shardLocals int
	// remote holds each send delivered on a peer shard, supplied by
	// SupplyRemoteSend; its MsgID's word in sends indexes it, and so
	// does the journal's recRemote record of it.
	remote fifo.Queue[shardExport]
	// exports is the cross-shard export log peer shards tail — an index
	// of the delivered sends, not a view of the journal: a record needs
	// the send's stamp, which exists only after delivery. A fifo nobody
	// pops, so a record is written once and never copied as it grows.
	exports fifo.Queue[shardExport]
	// tel holds the collector's telemetry instruments. All fields are
	// nil until InstrumentMetrics attaches a registry; every write is a
	// nil-safe no-op, so the uninstrumented hot path pays only nil
	// checks.
	tel collectorMetrics
}

// collectorMetrics groups the collector's instruments so they can be
// snapshotted into each batch subscription when it is created.
type collectorMetrics struct {
	ingested     *telemetry.Counter
	stale        *telemetry.Counter
	rejected     *telemetry.Counter
	overloaded   *telemetry.Counter
	delivered    *telemetry.Counter
	evicted      *telemetry.Counter
	walEventRecs *telemetry.Counter
	walTraceRecs *telemetry.Counter
	blockedNs    *telemetry.Counter
	shardExports *telemetry.Counter
	shardRemote  *telemetry.Counter
	stampBases   *telemetry.Counter
	queues       queueMetrics
}

// InstrumentMetrics registers the collector's metrics with reg and
// turns instrumentation on. Call it once, at wiring time — before
// reporting begins and before subscriptions are created (each batch
// subscription snapshots the instruments when it is created). A nil
// registry leaves the collector uninstrumented.
func (c *Collector) InstrumentMetrics(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	c.mu.Lock()
	c.tel = collectorMetrics{
		ingested:     reg.Counter("poet_ingested_events_total", "Raw events accepted by the collector."),
		stale:        reg.Counter("poet_stale_reports_total", "Reports rejected as stale or duplicate (idempotent retransmit no-ops)."),
		rejected:     reg.Counter("poet_rejected_reports_total", "Reports rejected as malformed (bad sequence, missing message id, duplicate message id)."),
		overloaded:   reg.Counter("poet_overloaded_reports_total", "Reports refused by admission control (ErrOverloaded)."),
		delivered:    reg.Counter("poet_delivered_events_total", "Events stamped and published in linearization order."),
		evicted:      reg.Counter("poet_retention_evicted_total", "Delivered events evicted from the linearization log by SetRetention."),
		walEventRecs: reg.Counter("poet_wal_event_records_total", "Event records appended to the write-ahead log."),
		walTraceRecs: reg.Counter("poet_wal_trace_records_total", "Trace-registration records appended to the write-ahead log."),
		blockedNs:    reg.Counter("poet_delivery_blocked_ns_total", "Nanoseconds Report spent blocked on lagging batch subscribers (BackpressureBlock)."),
		shardExports: reg.Counter("poet_shard_exports_total", "Send events appended to the cross-shard export log."),
		shardRemote:  reg.Counter("poet_shard_remote_sends_total", "Fresh peer-shard send records applied by SupplyRemoteSend."),
		stampBases:   reg.Counter("poet_stamp_bases_total", "Join clocks materialised: one per delivered receive or acquire; every other event shares its trace's."),
		queues: queueMetrics{
			enqueued:  reg.Counter("poet_delivery_enqueued_total", "Events cut into batches for subscriber handlers (summed over subscribers)."),
			handled:   reg.Counter("poet_delivery_handled_total", "Events consumed by batch subscriber handlers."),
			dropped:   reg.Counter("poet_delivery_dropped_total", "Delivered events BackpressureDrop subscribers lagged behind when they were evicted."),
			batches:   reg.Counter("poet_delivery_batches_total", "Batch handler invocations."),
			batchSize: reg.Histogram("poet_delivery_batch_size", "Events per cut batch handed to subscriber handlers."),
		},
	}
	d := c.durable
	c.mu.Unlock()
	if d != nil {
		d.InstrumentMetrics(reg)
	}
	reg.GaugeFunc("poet_pending_events", "Buffered raw events awaiting causal predecessors.", func() int64 {
		return int64(c.Pending())
	})
	reg.GaugeFunc("poet_shard_held_events", "Receives held because their send has not arrived from a peer shard (0 when unsharded).", func() int64 {
		return int64(c.ShardStats().HeldEvents)
	})
	reg.GaugeFunc("poet_shard_oldest_held_ms", "Age in milliseconds of the longest-held cross-shard receive (0 when none).", func() int64 {
		return c.ShardStats().OldestHeld.Milliseconds()
	})
	reg.GaugeFunc("poet_traces", "Registered traces.", func() int64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return int64(c.store.NumTraces())
	})
	reg.GaugeFunc("poet_delivery_queue_depth", "Delivered events not yet handed to batch subscribers, summed over subscribers (their lag).", func() int64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		n := 0
		for _, cur := range c.cursors {
			n += cur.endLocked() - cur.seen
		}
		return int64(n)
	})
	reg.GaugeFunc("poet_retained_events", "Delivered events currently retained in the linearization log (equals delivered when retention is off).", func() int64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return int64(c.log.Len())
	})
	reg.GaugeFunc("poet_journal_bytes", "Bytes the journal holds: every accepted record as the WAL encodes it, in 32 KiB chunks (0 without a journal).", func() int64 {
		return int64(c.ReplicationStats().JournalBytes)
	})
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	c := &Collector{
		store:    event.NewStore(),
		recvWait: make(map[uint64][]event.TraceID),
	}
	c.fresh.L, c.drained.L = &c.mu, &c.mu
	return c
}

// SetRetention bounds the collector's memory: once more than keepEvents
// (plus a quarter, to amortize the trims) delivered events are held, the
// oldest are evicted from the linearization log and released from the
// event store. Eviction is watermark-based — each trim drops back to
// keepEvents — and never touches an unmatched send (its receive still
// needs the send's vector clock), so causality reconstruction is exact
// regardless of the bound.
//
// Nor does it release an event a synchronously attached monitor still
// holds as a candidate (SubscribeReplayPinned): such a monitor matches
// as one with a store of its own would, and pins no more than its
// histories hold. Only MaxHistoryPerTrace (ocep.WithHistoryCap) bounds
// those histories: a synchronous monitor or MonitorSet member without
// it keeps every candidate event of the store, so retention releases
// nothing on the traces its leaves match (TestSyncMonitorUnderRetention
// shows such a trace left uncompacted).
//
// Consequences of eviction, all surfaced loudly rather than silently:
// monitor resumes (SubscribeBatchReplayFrom) below the trim point are
// rejected; queries for evicted events return "unknown event". Only the
// delivery index can trim: the journal and the shard export log are read
// from record zero, so retention refuses a collector that keeps either
// (and EnableReplicationLog, OpenDurable and EnableSharding refuse a
// retaining collector). keepEvents <= 0 disables retention.
func (c *Collector) SetRetention(keepEvents int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if keepEvents <= 0 {
		c.retain = 0
		return nil
	}
	switch {
	case c.journal != nil:
		return errors.New("poet: retention is incompatible with the journal (dumps, the write-ahead log and replicas read it from record zero)")
	case c.sharded:
		return errors.New("poet: retention is incompatible with sharding (peer shards re-stream the export log from record zero)")
	}
	c.retain = keepEvents
	// Forget the matched sends but for their MsgIDs and list the open
	// ones (deliver does both under retention; sends that predate it are
	// swept once, here).
	c.open = c.open[:0]
	c.sends.each(func(msgID, w uint64) {
		if e := c.store.Get(sendOf(w)); e != nil && e.Partner.IsZero() {
			c.open = append(c.open, e.ID)
		} else if uint32(w) != 0 {
			c.sends.set(msgID, sendMatched)
		}
	})
	c.maybeTrimLocked()
	return nil
}

// SetAdmissionLimit caps the out-of-order events buffered per trace:
// a Report that finds its trace already holding maxPendingPerTrace
// undeliverable events fails with ErrOverloaded instead of buffering
// without bound; the reporter retransmits it once the backlog drains
// (see WireStats.LoadSheds). It binds reporters only: recovery, reload
// and replication are never refused for load. n <= 0 disables it.
func (c *Collector) SetAdmissionLimit(maxPendingPerTrace int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if maxPendingPerTrace < 0 {
		maxPendingPerTrace = 0
	}
	c.admission = maxPendingPerTrace
}

// RetentionStats summarizes the effect of SetRetention.
type RetentionStats struct {
	// KeepEvents is the configured bound (0 when retention is off).
	KeepEvents int
	// TrimmedFrom is the delivery number of the oldest retained event:
	// events 0..TrimmedFrom-1 of the linearization have been evicted.
	TrimmedFrom int
	// Evicted counts events evicted from the linearization log.
	Evicted int
	// StoreCompacted counts events released from the event store (lags
	// Evicted by the open-send watermark, per-trace clamping and the
	// candidates of synchronously attached monitors).
	StoreCompacted int
	// Retained is the current length of the linearization log.
	Retained int
}

// RetentionStats returns the collector's cumulative retention counters.
func (c *Collector) RetentionStats() RetentionStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return RetentionStats{
		KeepEvents:     c.retain,
		TrimmedFrom:    c.trimmedFrom,
		Evicted:        c.evictedEvents,
		StoreCompacted: c.compactedEvents,
		Retained:       c.log.Len(),
	}
}

// maybeTrimLocked evicts the oldest delivered events once the
// linearization log exceeds the retention bound by a quarter (the
// hysteresis keeps trims amortized instead of per-delivery), never past
// a subscriber's floor (an evicted one no longer counts). The store is
// compacted along with the log, clamped per trace so no unmatched send —
// still needed to stamp its future receive — and no event a pinned
// subscriber still reads is released.
func (c *Collector) maybeTrimLocked() {
	if c.retain <= 0 || c.log.Len() <= c.retain+c.retain/4 {
		return
	}
	drop := c.log.Len() - c.retain
	for _, cur := range c.cursors {
		drop = min(drop, cur.floor-c.trimmedFrom)
	}
	if drop <= c.retain/4 {
		return
	}
	// The linearization holds each trace's events in trace order, so the
	// dropped prefix covers a per-trace prefix: the highest index per
	// trace tells the store how far it may compact.
	keepFrom := make(map[event.TraceID]int)
	for i := 0; i < drop; i++ {
		if id := c.log.At(i).ID; id.Index+1 > keepFrom[id.Trace] {
			keepFrom[id.Trace] = id.Index + 1
		}
	}
	// The store may still hold a dropped event, so the log forgets it
	// uncleared; a chunk goes once nothing points into it.
	c.log.Drop(drop)
	c.trimmedFrom += drop
	c.evictedEvents += drop
	c.tel.evicted.Add(int64(drop))
	// Unmatched sends pin the store: a receive delivered later merges the
	// send's vector clock via store.Get. A matched one leaves open here.
	open := c.open[:0]
	for _, id := range c.open {
		if e := c.store.Get(id); e != nil && e.Partner.IsZero() {
			open = append(open, id)
			if limit, ok := keepFrom[id.Trace]; ok && id.Index < limit {
				keepFrom[id.Trace] = id.Index
			}
		}
	}
	c.open = open
	for t, from := range keepFrom {
		for _, s := range c.subs {
			if s.floor != nil {
				from = min(from, s.floor(t))
			}
		}
		c.compactedEvents += c.store.CompactTrace(t, from)
	}
}

// Durable returns the attached durability subsystem, or nil.
func (c *Collector) Durable() *Durability {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.durable
}

// Store exposes the collector's event store. The store grows concurrently
// with delivery; readers must coordinate with the collector's clients
// (the usual arrangement is to read it only from handler context or
// after Drained).
func (c *Collector) Store() *event.Store { return c.store }

// subscriber is a synchronous handler and its subscription ID; floor,
// when set, pins the store for it (see SubscribeReplayPinned).
type subscriber struct {
	id    int
	h     Handler
	floor func(event.TraceID) int
}

// Subscription identifies a registered handler, or the cursor of a batch
// subscription (see delivery.go), so it can be cancelled.
type Subscription struct {
	c   *Collector
	id  int
	cur *cursor
}

// Cancel removes the handler. For a batch subscription it also drains
// the cursor and stops the consumer goroutine before returning, so the
// handler has observed every event delivered before the cancellation.
// Safe to call more than once.
func (s *Subscription) Cancel() {
	if s.cur != nil {
		s.cur.close()
		return
	}
	s.c.mu.Lock()
	s.c.subs = slices.DeleteFunc(s.c.subs, func(x subscriber) bool { return x.id == s.id })
	s.c.mu.Unlock()
}

// Flush blocks until the subscription's handler has consumed every event
// delivered before the call. A no-op for synchronous subscriptions (their
// handlers run on the delivery path). Must not be called from the
// handler itself.
func (s *Subscription) Flush() {
	if s.cur != nil {
		s.c.mu.Lock()
		s.cur.flushLocked(s.c.delivered)
		s.c.mu.Unlock()
	}
}

// Stats returns the delivery counters of a batch subscription (zero for
// a synchronous one).
func (s *Subscription) Stats() DeliveryStats {
	if s.cur == nil {
		return DeliveryStats{}
	}
	return s.cur.stats()
}

// Subscribe registers a delivery handler. Events delivered before the
// subscription are not replayed; subscribe before reporting begins or
// use SubscribeReplay.
func (c *Collector) Subscribe(h Handler) *Subscription {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.subscribeLocked(h)
}

// subscribeLocked appends a synchronous handler.
func (c *Collector) subscribeLocked(h Handler) *Subscription {
	s := subscriber{id: c.nextHandler, h: h}
	c.nextHandler++
	c.subs = append(c.subs, s)
	return &Subscription{c: c, id: s.id}
}

// SubscribeReplay atomically replays every already-delivered event to h
// (in delivery order) and then registers h for future deliveries, so the
// handler observes one complete linearization no matter when it joins.
// Under SetRetention the replay covers only the retained suffix.
func (c *Collector) SubscribeReplay(h Handler) *Subscription {
	return c.SubscribeReplayPinned(h, nil)
}

// SubscribeReplayPinned is SubscribeReplay for a handler that reads the
// events it was handed again later, through the store, as a matcher on
// the collector's store does: retention releases no event of trace t at
// or above floor(t), which runs under the collector lock and returns
// math.MaxInt when the handler reads none.
func (c *Collector) SubscribeReplayPinned(h Handler, floor func(event.TraceID) int) *Subscription {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := 0; i < c.log.Len(); i++ {
		h(c.log.At(i))
	}
	s := c.subscribeLocked(h)
	c.subs[len(c.subs)-1].floor = floor
	return s
}

// Ordered returns the delivered events in delivery order (the retained
// suffix, when SetRetention has trimmed the front), in a fresh slice.
// The events are the collector's own: callers must not modify them, and
// should read them only once reporting has quiesced.
func (c *Collector) Ordered() []*event.Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*event.Event, c.log.Len())
	for i := range out {
		out[i] = c.log.At(i)
	}
	return out
}

// RegisterTrace pre-registers a trace name and returns its ID, so that
// trace numbering (and so vector-clock positions) is deterministic
// regardless of event arrival interleaving. It fails with
// ErrTooManyTraces, registering nothing, for a trace that would reach
// event.MaxTraces, and with the write-ahead log's error when the
// registration could not be logged.
func (c *Collector) RegisterTrace(name string) (event.TraceID, error) {
	if err := c.apply(RawEvent{Trace: name}); err != nil {
		return 0, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	id, _ := c.store.TraceByName(name)
	return id, nil
}

func (c *Collector) ensureTrace(name string) (event.TraceID, error) {
	id, known := c.store.TraceByName(name)
	if !known {
		id = event.TraceID(c.store.NumTraces())
		if c.sharded {
			// Striped global IDs: every shard numbers its home traces in
			// its own residue class mod numShards, so IDs (and therefore
			// vector-clock positions) never collide across shards and a
			// merged monitor sees one coherent coordinate space. The
			// store tolerates the holes left for peer-homed traces.
			id = event.TraceID(c.shardID + c.numShards*c.shardLocals)
		}
		if id >= event.MaxTraces {
			return 0, fmt.Errorf("poet: trace %q would be trace %d, limit %d: %w", name, id, event.MaxTraces, ErrTooManyTraces)
		}
		if c.sharded {
			c.shardLocals++
			c.store.NameTrace(id, name)
		} else {
			c.store.RegisterTrace(name)
		}
	}
	for int(id) >= len(c.stamps) {
		c.stamps = append(c.stamps, vclock.Stamp{})
		c.nextSeq = append(c.nextSeq, 1)
		c.pending = append(c.pending, heldQueue{})
		c.registered = append(c.registered, false)
	}
	c.registered[id] = true
	return id, nil
}

// Delivered returns the number of events delivered so far.
func (c *Collector) Delivered() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.delivered
}

// AckFor returns the highest seq s such that events 1..s of the named
// trace have all been ingested — delivered, or buffered awaiting causal
// partners. 0 for an unknown trace. This is the position the wire
// protocol acknowledges to reporters: a reporter may discard everything
// at or below it.
func (c *Collector) AckFor(name string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ackForLocked(name)
}

func (c *Collector) ackForLocked(name string) int {
	t, ok := c.store.TraceByName(name)
	if !ok || int(t) >= len(c.nextSeq) {
		return 0
	}
	return c.nextSeq[t] - 1 + c.pending[t].run(c.nextSeq[t])
}

// acksFor snapshots the ack positions of the named traces in one
// critical section, marking the record stream there, and releases them
// once that mark is stable (delivery.go): under `-fsync always` a
// reporter never prunes an event a crash could lose, and a promoted
// standby holds every event a reporter was told to prune. If the mark is
// not stable within replAckWait, or the WAL is broken, the acks are
// withheld for this interval (the empty frame still heartbeats the
// reporter, which retains and retransmits) and retried on the next tick.
func (c *Collector) acksFor(names []string) []traceAck {
	if len(names) == 0 {
		return nil
	}
	c.mu.Lock()
	out := make([]traceAck, 0, len(names))
	for _, n := range names {
		out = append(out, traceAck{Trace: n, Seq: c.ackForLocked(n)})
	}
	m, wait := c.markLocked(), cmp.Or(c.replAckWait, defaultReplAckWait)
	c.mu.Unlock()
	if ok, err := c.awaitStable(m, wait); !ok || err != nil {
		return nil
	}
	return out
}

// IngestCount returns the number of events successfully ingested
// (delivered plus buffered pending): the position replication offsets
// are expressed in. After a durable recovery it equals the number of
// event records replayed, which is why a recovered standby can name its
// exact resume point.
func (c *Collector) IngestCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ingests
}

// Pending returns the number of buffered, not-yet-deliverable raw events.
func (c *Collector) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pendingLocked()
}

func (c *Collector) pendingLocked() int {
	n := 0
	for i := range c.pending {
		n += c.pending[i].len()
	}
	return n
}

// Drained reports whether every reported event has been delivered.
func (c *Collector) Drained() bool { return c.Pending() == 0 }

// TraceStat summarizes one trace's collection state.
type TraceStat struct {
	// Name is the registered trace name.
	Name string
	// Delivered is the number of delivered events.
	Delivered int
	// Comm is the number of delivered communication events.
	Comm int
	// Buffered is the number of raw events waiting for delivery.
	Buffered int
}

// TraceStats returns per-trace collection statistics in trace order.
func (c *Collector) TraceStats() []TraceStat {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]TraceStat, c.store.NumTraces())
	for t := range out {
		tid := event.TraceID(t)
		out[t] = TraceStat{
			Name:      c.store.TraceName(tid),
			Delivered: c.store.Len(tid),
			Comm:      c.store.CommCount(tid),
		}
		if t < len(c.pending) {
			out[t].Buffered = c.pending[t].len()
		}
	}
	return out
}

// Report ingests one raw event from a reporter. Events of one trace may
// arrive ahead of the trace's delivery point (they are buffered), but
// never at or before it. Delivery cascades: everything the new event
// unblocks is delivered before Report returns. Report is the one path
// admission control (SetAdmissionLimit) binds: a reporter's event may
// be refused for load, a record the tier already accepted never is.
//
// When a BackpressureBlock batch subscriber lags past its depth, Report
// waits — after releasing the collector lock, so readers and subscribers
// keep running — until it catches up, throttling ingestion to the
// slowest blocking subscriber.
func (c *Collector) Report(raw RawEvent) error {
	c.mu.Lock()
	return c.applyLocked(&raw, c.admission)
}

// apply ingests a record the tier has accepted once (recovery, reload, a
// standby's stream, RegisterTrace): an event, or at Seq 0 a trace
// registration. No admission limit refuses it, so a rebuilt stream is
// the stream that was observed; a stale event is refused as by Report.
func (c *Collector) apply(raw RawEvent) error {
	c.mu.Lock()
	if raw.Seq != 0 {
		return c.applyLocked(&raw, 0)
	}
	_, known := c.store.TraceByName(raw.Trace)
	if _, err := c.ensureTrace(raw.Trace); err != nil {
		c.mu.Unlock()
		return err
	}
	var w walTicket
	if !known {
		// Recorded in order with events, or trace numbering would differ
		// on a replica or after recovery; an event's own record implies
		// its trace's.
		w = c.recordLocked(&raw)
		c.fresh.Broadcast() // the journal grew
	}
	c.mu.Unlock()
	return w.commit()
}

// applyLocked ingests an event under limit, the admission cap (0 for
// none), and releases mu.
func (c *Collector) applyLocked(raw *RawEvent, limit int) error {
	err := c.ingestLocked(raw, limit)
	var w walTicket
	switch {
	case err == nil:
		w = c.recordLocked(raw)
		c.maybeTrimLocked()
	case errors.Is(err, ErrStaleEvent):
		c.tel.stale.Inc()
	case errors.Is(err, ErrOverloaded):
		c.tel.overloaded.Inc()
	default:
		c.tel.rejected.Inc()
	}
	lagging := c.paceLocked()
	c.mu.Unlock()
	if walErr := w.commit(); walErr != nil {
		// The event is ingested in memory but its durability is not
		// guaranteed; fail the Report so the reporter (and operator) see
		// the broken disk instead of silently losing the tail on the
		// next crash. Acks are withheld too (see acksFor).
		return fmt.Errorf("poet: write-ahead log: %w", walErr)
	}
	if lagging {
		c.awaitCursors()
	}
	return err
}

func (c *Collector) ingestLocked(raw *RawEvent, limit int) error {
	switch {
	case raw.Seq < 1:
		return fmt.Errorf("poet: event on %q has sequence %d: %w", raw.Trace, raw.Seq, ErrStaleEvent)
	case raw.Seq > math.MaxInt32:
		return fmt.Errorf("poet: event on %q has sequence %d: %w", raw.Trace, raw.Seq, ErrSeqRange)
	case raw.Kind > event.KindSyncRelease:
		return fmt.Errorf("poet: event %q/%d has kind %d: %w", raw.Trace, raw.Seq, raw.Kind, ErrEventKind)
	case isRecvLike(raw.Kind) && raw.MsgID == 0:
		return fmt.Errorf("poet: receive on %q/%d has no message id", raw.Trace, raw.Seq)
	}
	t, err := c.ensureTrace(raw.Trace)
	if err != nil {
		return err
	}
	if raw.Seq < c.nextSeq[t] {
		return fmt.Errorf("poet: event %q/%d already delivered: %w", raw.Trace, raw.Seq, ErrStaleEvent)
	}
	if _, dup := c.pending[t].search(raw.Seq); dup {
		return fmt.Errorf("poet: event %q/%d already buffered: %w", raw.Trace, raw.Seq, ErrStaleEvent)
	}
	// Admission control: never refuse the trace's delivery head (it is
	// what drains the backlog — refusing it would wedge the trace), but
	// an out-of-order event beyond the per-trace buffer cap is shed back
	// to the reporter, which retains and retransmits it.
	if limit > 0 && raw.Seq != c.nextSeq[t] && c.pending[t].len() >= limit {
		return fmt.Errorf("poet: trace %q has %d buffered events awaiting causal predecessors: %w",
			raw.Trace, c.pending[t].len(), ErrOverloaded)
	}
	if isSendLike(raw.Kind) && raw.MsgID != 0 {
		w := c.sends.get(raw.MsgID)
		if w != 0 && localSeen(w) {
			return fmt.Errorf("poet: duplicate message id %d from %q/%d", raw.MsgID, raw.Trace, raw.Seq)
		}
		c.sends.set(raw.MsgID, w|sendLocal)
		// The sender turned out to be local after all: any receive held
		// on it is waiting on local delivery order, not a peer shard.
		delete(c.heldRemote, raw.MsgID)
	}
	head := raw
	if raw.Seq != c.nextSeq[t] || isRecvLike(raw.Kind) && !c.hasSendLocked(raw.MsgID) {
		// Not deliverable on arrival: only such an event is buffered.
		c.pending[t].insert(*raw)
		head = nil
	}
	c.drain(t, head)
	return nil
}

// drain delivers everything deliverable starting from trace t. head,
// when non-nil, is t's next event and deliverable now: it is delivered
// as if it had just been read from pending[t], so the linearization does
// not depend on which way an event entered.
func (c *Collector) drain(t event.TraceID, head *RawEvent) {
	var buf [8]event.TraceID
	work := append(buf[:0], t)
	for len(work) > 0 {
		tr := work[len(work)-1]
		work = work[:len(work)-1]
		for {
			var raw RawEvent
			if head != nil {
				raw, head = *head, nil
			} else {
				var ok bool
				if raw, ok = c.pending[tr].front(c.nextSeq[tr]); !ok {
					break
				}
				if isRecvLike(raw.Kind) && !c.hasSendLocked(raw.MsgID) {
					c.awaitSendLocked(tr, raw.MsgID)
					break
				}
				c.pending[tr].pop()
			}
			c.deliver(tr, raw)
			if isSendLike(raw.Kind) && raw.MsgID != 0 {
				if waiters := c.recvWait[raw.MsgID]; len(waiters) > 0 {
					work = append(work, waiters...)
					delete(c.recvWait, raw.MsgID)
					c.waitFree = append(c.waitFree, waiters[:0])
				}
			}
		}
	}
}

// awaitSendLocked parks trace tr, whose head is a receive, on the send
// of msgID.
func (c *Collector) awaitSendLocked(tr event.TraceID, msgID uint64) {
	ws := c.recvWait[msgID]
	if len(ws) == 0 || ws[len(ws)-1] != tr {
		if n := len(c.waitFree); ws == nil && n > 0 {
			ws, c.waitFree = c.waitFree[n-1], c.waitFree[:n-1]
		}
		c.recvWait[msgID] = append(ws, tr)
	}
	// No local sender claims this message: the send must arrive from a
	// peer shard. Stamp the first-held time so the watchdog gauges can
	// age it.
	if _, held := c.heldRemote[msgID]; c.sharded && !held {
		if w := c.sends.get(msgID); w == 0 || !localSeen(w) {
			c.heldRemote[msgID] = time.Now()
		}
	}
}

// deliver stamps and publishes one raw event whose causal predecessors
// are all delivered.
func (c *Collector) deliver(t event.TraceID, raw RawEvent) {
	stamp := c.stamps[t]
	var partner event.ID
	if isRecvLike(raw.Kind) {
		var sent vclock.Stamp
		if w := c.sends.get(raw.MsgID); w&sendRemote == 0 {
			partner = sendOf(w)
			sent = c.store.Get(partner).VC
			if c.retain > 0 {
				// Under retention a matched send is forgotten but for its
				// MsgID: it no longer pins the store against compaction.
				c.sends.set(raw.MsgID, sendMatched)
			}
		} else {
			// The send was delivered on a peer shard; its exported stamp
			// stands in for the local event (see shard.go). Partner names
			// the remote identity — the local store holds no event for it,
			// so the back-patch below finds nil and skips.
			rs := c.remote.At(int(w &^ (sendRemote | sendLocal)))
			sent, partner = rs.VC, rs.ID
		}
		// A join: the one place a clock is materialised.
		stamp = stamp.Join(sent, int(t), &c.slab)
		c.tel.stampBases.Inc()
	} else {
		stamp = stamp.Tick(int(t))
	}
	c.stamps[t] = stamp
	c.log.Push(event.Event{
		ID:      event.ID{Trace: t, Index: c.nextSeq[t]},
		Type:    raw.Type,
		Text:    raw.Text,
		VC:      stamp,
		Kind:    raw.Kind,
		Partner: event.RefTo(partner),
	})
	e := c.log.At(c.log.Len() - 1)
	if !partner.IsZero() {
		if sendEv := c.store.Get(partner); sendEv != nil {
			sendEv.Partner = event.RefTo(e.ID)
		}
	}
	if err := c.store.Append(e); err != nil {
		// Unreachable: nextSeq mirrors the store length by construction.
		panic(fmt.Sprintf("poet: internal delivery error: %v", err))
	}
	c.nextSeq[t]++
	if isSendLike(raw.Kind) && raw.MsgID != 0 {
		c.sends.set(raw.MsgID, uint64(t)<<32|uint64(e.ID.Index))
		if c.retain > 0 {
			c.open = append(c.open, e.ID)
		}
		if c.sharded {
			// Export every delivered send: the receive's home shard is
			// unknowable here (its trace may not have reported yet), so
			// peers filter on their side via SupplyRemoteSend idempotency.
			c.exports.Push(shardExport{MsgID: raw.MsgID, ID: e.ID, VC: e.VC})
			c.tel.shardExports.Inc()
		}
	}
	c.delivered++
	c.tel.delivered.Inc()
	for _, s := range c.subs {
		s.h(e)
	}
}

// A word of the MsgID table is a delivered local send's ID, trace<<32 |
// index (an index fits the int32 a clock entry holds), or names no event
// (index 0): sendLocal alone is a local send ingested but not delivered,
// sendMatched one forgotten behind its receive under retention, which
// still rejects a duplicate. sendRemote | i is a peer shard's send,
// remote.At(i); sendLocal beside it records a local send ingested too,
// whose delivery replaces the word: the local stamp wins. A zero word
// is an absent MsgID.
const (
	sendRemote  uint64 = 1 << 63
	sendLocal   uint64 = 1 << 62
	sendMatched uint64 = 1 << 32
)

// sendOf is the delivered local send a word names, or the zero ID.
func sendOf(w uint64) event.ID {
	return event.ID{Trace: event.TraceID(w >> 32), Index: int(uint32(w))}
}

// localSeen reports whether word w records a local send.
func localSeen(w uint64) bool { return w&sendRemote == 0 || w&sendLocal != 0 }
