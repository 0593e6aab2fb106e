package poet

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ocep/internal/event"
)

// internalRaw builds a deliverable internal event.
func internalRaw(trace string, seq int) RawEvent {
	return RawEvent{Trace: trace, Seq: seq, Kind: event.KindInternal, Type: "tick", Text: "t"}
}

// batchSink accumulates everything a batch subscription hands over, with
// its own lock so test goroutines can inspect it.
type batchSink struct {
	mu      sync.Mutex
	events  []*event.Event
	batches int
	anns    map[event.TraceID]string
}

func newBatchSink() *batchSink {
	return &batchSink{anns: make(map[event.TraceID]string)}
}

func (s *batchSink) handler(batch []*event.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.events = append(s.events, batch...)
	s.batches++
}

func (s *batchSink) onTrace(t event.TraceID, name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.anns[t] = name
}

func (s *batchSink) snapshot() []*event.Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*event.Event, len(s.events))
	copy(out, s.events)
	return out
}

// contiguous verifies the sink saw, per trace, a gap-free duplicate-free
// prefix 1..n of the trace, in increasing order, returning the per-trace
// counts. Safe to call from any goroutine.
func contiguous(events []*event.Event) (map[event.TraceID]int, error) {
	next := make(map[event.TraceID]int)
	for _, e := range events {
		want := next[e.ID.Trace] + 1
		if e.ID.Index != want {
			return nil, fmt.Errorf("trace %d: got index %d, want %d (lost or duplicated delivery)",
				e.ID.Trace, e.ID.Index, want)
		}
		next[e.ID.Trace] = want
	}
	return next, nil
}

// checkContiguous is contiguous with a fatal report, for test-goroutine use.
func checkContiguous(t *testing.T, events []*event.Event) map[event.TraceID]int {
	t.Helper()
	next, err := contiguous(events)
	if err != nil {
		t.Fatal(err)
	}
	return next
}

func TestSubscribeBatchDeliversAll(t *testing.T) {
	c := NewCollector()
	sink := newBatchSink()
	sub := c.SubscribeBatch(sink.handler, AsyncOptions{
		QueueDepth: 8, MaxBatch: 4, OnTrace: sink.onTrace,
	})
	const n = 100
	for i := 1; i <= n; i++ {
		if err := c.Report(internalRaw("p0", i)); err != nil {
			t.Fatal(err)
		}
	}
	sub.Flush()
	got := sink.snapshot()
	if len(got) != n {
		t.Fatalf("handled %d events, want %d", len(got), n)
	}
	checkContiguous(t, got)
	st := sub.Stats()
	if st.Enqueued != n || st.Handled != n || st.Dropped != 0 || st.Queued != 0 {
		t.Fatalf("stats %+v: want %d enqueued and handled, nothing dropped or queued", st, n)
	}
	if st.Batches < 1 || st.Batches > n {
		t.Fatalf("stats %+v: implausible batch count", st)
	}
	sink.mu.Lock()
	name := sink.anns[got[0].ID.Trace]
	sink.mu.Unlock()
	if name != "p0" {
		t.Fatalf("trace announcement: got %q, want %q", name, "p0")
	}
	sub.Cancel()
}

func TestSubscribeBatchReplaySeesHistory(t *testing.T) {
	c := NewCollector()
	for i := 1; i <= 10; i++ {
		if err := c.Report(internalRaw("p0", i)); err != nil {
			t.Fatal(err)
		}
	}
	sink := newBatchSink()
	sub := c.SubscribeBatchReplay(sink.handler, AsyncOptions{OnTrace: sink.onTrace})
	for i := 11; i <= 20; i++ {
		if err := c.Report(internalRaw("p0", i)); err != nil {
			t.Fatal(err)
		}
	}
	sub.Flush()
	got := sink.snapshot()
	if len(got) != 20 {
		t.Fatalf("handled %d events, want 20 (10 replayed + 10 live)", len(got))
	}
	checkContiguous(t, got)
	sub.Cancel()
}

// TestBatchEventsAreTheCollectors: a batch subscriber is handed the
// collector's own events, and CopyBatch makes the private copies a
// mutating consumer needs — every field but a send's Partner, which the
// collector writes under its lock when the receive is delivered.
func TestBatchEventsAreTheCollectors(t *testing.T) {
	c := NewCollector()
	sink := newBatchSink()
	sub := c.SubscribeBatch(sink.handler, AsyncOptions{})
	defer sub.Cancel()
	for _, raw := range []RawEvent{
		{Trace: "a", Seq: 1, Kind: event.KindSend, Type: "s", Text: "x", MsgID: 7},
		{Trace: "b", Seq: 1, Kind: event.KindReceive, Type: "r", MsgID: 7},
	} {
		if err := c.Report(raw); err != nil {
			t.Fatal(err)
		}
	}
	sub.Flush()
	got, orig := sink.snapshot(), c.Ordered()
	if len(got) != 2 || got[0] != orig[0] || got[1] != orig[1] {
		t.Fatal("batch subscriber was not handed the collector's own events")
	}
	var slab event.Slab
	cp := CopyBatch(nil, got, &slab)
	if cp[0] == orig[0] || cp[0].ID != orig[0].ID || cp[0].Text != "x" || !cp[0].VC.Equal(orig[0].VC) {
		t.Fatalf("copy %+v diverges from %+v", cp[0], orig[0])
	}
	if !cp[0].Partner.IsZero() || cp[1].Partner.ID() != orig[0].ID {
		t.Fatalf("copied partners: send %v, receive %v; want none, then %v", cp[0].Partner, cp[1].Partner, orig[0].ID)
	}
}

// TestBatchPartnerVisibleToConsumer checks the documented contract: a
// receive-like copy carries its Partner, so consumers can re-apply the
// send-side back-patch on their own copies.
func TestBatchPartnerVisibleToConsumer(t *testing.T) {
	c := NewCollector()
	sink := newBatchSink()
	sub := c.SubscribeBatch(sink.handler, AsyncOptions{})
	defer sub.Cancel()
	if err := c.Report(RawEvent{Trace: "a", Seq: 1, Kind: event.KindSend, Type: "s", MsgID: 7}); err != nil {
		t.Fatal(err)
	}
	if err := c.Report(RawEvent{Trace: "b", Seq: 1, Kind: event.KindReceive, Type: "r", MsgID: 7}); err != nil {
		t.Fatal(err)
	}
	sub.Flush()
	got := sink.snapshot()
	if len(got) != 2 {
		t.Fatalf("handled %d events, want 2", len(got))
	}
	recv := got[1]
	if recv.Kind != event.KindReceive || recv.Partner.ID() != got[0].ID {
		t.Fatalf("receive copy lost its partner: %+v", recv)
	}
}

// checkEvicted holds an evicted Drop subscriber to its contract: it was
// handed a gap-free prefix of the stream from event 1, nothing after it,
// and it ended with the lag error, counting what it lagged behind by.
func checkEvicted(t *testing.T, sub *Subscription, got []*event.Event, depth int) {
	t.Helper()
	for i, e := range got {
		if e.ID.Index != i+1 {
			t.Fatalf("evicted subscriber's event %d is %s: the prefix has a gap", i, e.ID)
		}
	}
	st := sub.Stats()
	if !errors.Is(sub.cur.err, errLagging) || st.Dropped <= depth {
		t.Fatalf("stats %+v, error %v: want an eviction for lagging past depth %d", st, sub.cur.err, depth)
	}
	if st.Enqueued != len(got) || st.Handled != len(got) || st.Queued != 0 {
		t.Fatalf("stats %+v: want the %d events handed over enqueued and handled, none queued", st, len(got))
	}
}

// TestDropPolicyEvictsLaggard: a Drop subscriber whose consumer stalls is
// evicted once it lags past its depth, not skipped ahead, and ingestion
// never waits for it.
func TestDropPolicyEvictsLaggard(t *testing.T) {
	const depth = 4
	c := NewCollector()
	gate := make(chan struct{})
	var entered sync.Once
	started := make(chan struct{})
	sink := newBatchSink()
	sub := c.SubscribeBatch(func(batch []*event.Event) {
		entered.Do(func() { close(started) })
		<-gate
		sink.handler(batch)
	}, AsyncOptions{QueueDepth: depth, MaxBatch: 1, Policy: BackpressureDrop})
	defer sub.Cancel()

	if err := c.Report(internalRaw("p0", 1)); err != nil {
		t.Fatal(err)
	}
	<-started // consumer now blocked holding the first event
	for i := 2; i <= 50; i++ {
		if err := c.Report(internalRaw("p0", i)); err != nil {
			t.Fatal(err)
		}
	}
	close(gate)
	sub.Flush()
	checkEvicted(t, sub, sink.snapshot(), depth)
}

// TestStuckDropCursorDoesNotPinRetention: retention keeps trimming past
// a BackpressureDrop subscriber whose handler is stuck: the subscriber
// holds back no more than its depth before it is evicted, and nothing
// after. Released, the handler finishes its batch and gets no more.
func TestStuckDropCursorDoesNotPinRetention(t *testing.T) {
	const keep, depth, total = 100, 300, 5000
	c := NewCollector()
	if err := c.SetRetention(keep); err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	var entered sync.Once
	started := make(chan struct{})
	sink := newBatchSink()
	sub := c.SubscribeBatch(func(batch []*event.Event) {
		entered.Do(func() { close(started) })
		<-gate
		sink.handler(batch)
	}, AsyncOptions{QueueDepth: depth, MaxBatch: 8, Policy: BackpressureDrop})
	defer sub.Cancel()
	var released sync.Once
	release := func() { released.Do(func() { close(gate) }) }
	defer release() // before Cancel, which waits for the handler

	if err := c.Report(internalRaw("p0", 1)); err != nil {
		t.Fatal(err)
	}
	<-started // the consumer now holds the first event
	for i := 2; i <= total; i++ {
		if err := c.Report(internalRaw("p0", i)); err != nil {
			t.Fatal(err)
		}
		// A trim waits for a quarter of keep past the depth.
		if st := c.RetentionStats(); st.Retained > depth+keep/4+1 {
			t.Fatalf("retention %+v holds more than the stuck Drop cursor's depth %d", st, depth)
		}
	}
	if st := c.RetentionStats(); st.Retained > keep+keep/4 {
		t.Fatalf("retention %+v still holds events back for the evicted subscriber", st)
	}
	release()
	sub.Flush()
	checkEvicted(t, sub, sink.snapshot(), depth)
}

func TestBlockPolicyBoundsQueue(t *testing.T) {
	c := NewCollector()
	const depth = 2
	sink := newBatchSink()
	sub := c.SubscribeBatch(func(batch []*event.Event) {
		time.Sleep(time.Millisecond) // slow consumer
		sink.handler(batch)
	}, AsyncOptions{QueueDepth: depth, MaxBatch: 1, Policy: BackpressureBlock})
	defer sub.Cancel()
	const n = 30
	for i := 1; i <= n; i++ {
		if err := c.Report(internalRaw("p0", i)); err != nil {
			t.Fatal(err)
		}
	}
	sub.Flush()
	st := sub.Stats()
	if st.Enqueued != n || st.Handled != n || st.Dropped != 0 {
		t.Fatalf("stats %+v: block policy must deliver everything", st)
	}
	// Each Report delivers one event (internal events never cascade), so
	// the soft bound is depth+1.
	if st.MaxQueued > depth+1 {
		t.Fatalf("stats %+v: queue grew past the soft bound %d", st, depth+1)
	}
	checkContiguous(t, sink.snapshot())
}

func TestCancelDrainsQueue(t *testing.T) {
	c := NewCollector()
	sink := newBatchSink()
	sub := c.SubscribeBatch(sink.handler, AsyncOptions{MaxBatch: 8})
	const n = 200
	for i := 1; i <= n; i++ {
		if err := c.Report(internalRaw("p0", i)); err != nil {
			t.Fatal(err)
		}
	}
	sub.Cancel() // must drain before returning
	if got := len(sink.snapshot()); got != n {
		t.Fatalf("cancel returned with %d of %d events handled", got, n)
	}
	// Deliveries after cancel are not observed.
	if err := c.Report(internalRaw("p0", n+1)); err != nil {
		t.Fatal(err)
	}
	if got := len(sink.snapshot()); got != n {
		t.Fatalf("cancelled subscription still receiving: %d events", got)
	}
	sub.Cancel() // idempotent
}

func TestCollectorFlushAndClose(t *testing.T) {
	c := NewCollector()
	sinks := make([]*batchSink, 3)
	for i := range sinks {
		sinks[i] = newBatchSink()
		c.SubscribeBatch(sinks[i].handler, AsyncOptions{MaxBatch: 16})
	}
	const n = 500
	for i := 1; i <= n; i++ {
		if err := c.Report(internalRaw("p0", i)); err != nil {
			t.Fatal(err)
		}
	}
	c.Flush()
	for i, s := range sinks {
		if got := len(s.snapshot()); got != n {
			t.Fatalf("subscriber %d: flushed with %d of %d events", i, got, n)
		}
	}
	c.Close()
	c.Close() // idempotent
}

// TestAsyncStress runs N producers against a collector while batch
// subscribers attach and detach mid-stream; run under -race. The
// permanent replay subscriber must observe every delivery exactly once;
// transient subscribers must observe gap-free prefixes; the Delivered
// counters must account for every accepted event.
func TestAsyncStress(t *testing.T) {
	c := NewCollector()
	const producers = 8
	const perProducer = 400
	for p := 0; p < producers; p++ {
		c.RegisterTrace(fmt.Sprintf("p%d", p))
	}

	base := newBatchSink()
	baseSub := c.SubscribeBatchReplay(base.handler, AsyncOptions{
		QueueDepth: 64, MaxBatch: 8, Policy: BackpressureBlock, OnTrace: base.onTrace,
	})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	var transientChecked atomic.Int64
	wg.Add(1)
	go func() { // attach/detach churn
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			sink := newBatchSink()
			sub := c.SubscribeBatchReplay(sink.handler, AsyncOptions{QueueDepth: 32, MaxBatch: 4})
			time.Sleep(time.Millisecond)
			sub.Cancel()
			events := sink.snapshot()
			if _, err := contiguous(events); err != nil {
				t.Errorf("transient subscriber: %v", err)
			}
			st := sub.Stats()
			if st.Handled != st.Enqueued || st.Handled != len(events) {
				t.Errorf("transient stats %+v inconsistent with %d observed events", st, len(events))
			}
			transientChecked.Add(1)
		}
	}()

	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			trace := fmt.Sprintf("p%d", p)
			for i := 1; i <= perProducer; i++ {
				if err := c.Report(internalRaw(trace, i)); err != nil {
					t.Errorf("producer %s: %v", trace, err)
					return
				}
			}
		}(p)
	}

	// Producers first, then stop the churn so its last iteration still
	// runs against a live stream.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	<-time.After(10 * time.Millisecond)
	close(stop)
	<-done

	const total = producers * perProducer
	if got := c.Delivered(); got != total {
		t.Fatalf("collector delivered %d, want %d", got, total)
	}
	baseSub.Flush()
	events := base.snapshot()
	if len(events) != total {
		t.Fatalf("base subscriber saw %d events, want %d (lost or duplicated)", len(events), total)
	}
	next := checkContiguous(t, events)
	for p := 0; p < producers; p++ {
		tid, ok := c.Store().TraceByName(fmt.Sprintf("p%d", p))
		if !ok {
			t.Fatalf("trace p%d unregistered", p)
		}
		if next[tid] != perProducer {
			t.Fatalf("trace p%d: saw %d events, want %d", p, next[tid], perProducer)
		}
	}
	st := baseSub.Stats()
	if st.Enqueued != total || st.Handled != total || st.Dropped != 0 {
		t.Fatalf("base stats %+v: want %d enqueued and handled, 0 dropped", st, total)
	}
	if transientChecked.Load() == 0 {
		t.Fatal("attach/detach churn never completed a cycle")
	}
	baseSub.Cancel()
	c.Close()
}

// TestCancelDeliversPendingAnnouncements pins the drain contract for
// trace announcements: an announcement whose carrying event is still
// queued behind a wedged handler must reach OnTrace by the time Cancel
// returns, even when the subscription is torn down while the handler is
// mid-flight — a pending announcement must never die with the cursor.
func TestCancelDeliversPendingAnnouncements(t *testing.T) {
	c := NewCollector()
	block := make(chan struct{})
	var started atomic.Int32
	var mu sync.Mutex
	var names []string
	sub := c.SubscribeBatch(func(batch []*event.Event) {
		started.Add(1)
		<-block
	}, AsyncOptions{
		QueueDepth: 4, MaxBatch: 1, Policy: BackpressureBlock,
		OnTrace: func(_ event.TraceID, name string) {
			mu.Lock()
			names = append(names, name)
			mu.Unlock()
		},
	})
	// First event: cut into a batch and handed to the handler, which
	// blocks, wedging the consumer loop.
	if err := c.Report(internalRaw("p0", 1)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return started.Load() == 1 })
	// Queue an event and a new trace's first behind the wedged handler.
	if err := c.Report(internalRaw("p0", 2)); err != nil {
		t.Fatal(err)
	}
	if err := c.Report(internalRaw("p1", 1)); err != nil {
		t.Fatal(err)
	}
	if st := sub.Stats(); st.Queued != 2 {
		t.Fatalf("stats %+v: want the two later events queued", st)
	}

	close(block)
	sub.Cancel()
	mu.Lock()
	defer mu.Unlock()
	for _, n := range names {
		if n == "p1" {
			return
		}
	}
	t.Fatalf("announcements after Cancel = %v: trace p1 (dropped event) never announced", names)
}

// TestSubscribeBatchReplayFrom checks offset resume: a subscriber at
// offset k sees exactly the suffix k+1..n, and out-of-range offsets are
// rejected rather than silently clamped.
func TestSubscribeBatchReplayFrom(t *testing.T) {
	c := NewCollector()
	const n = 20
	for i := 1; i <= n; i++ {
		if err := c.Report(internalRaw("p0", i)); err != nil {
			t.Fatal(err)
		}
	}
	sink := newBatchSink()
	sub, err := c.SubscribeBatchReplayFrom(15, sink.handler, AsyncOptions{OnTrace: sink.onTrace})
	if err != nil {
		t.Fatal(err)
	}
	sub.Flush()
	got := sink.snapshot()
	if len(got) != 5 {
		t.Fatalf("resumed subscriber saw %d events, want 5", len(got))
	}
	for i, e := range got {
		if e.ID.Index != 16+i {
			t.Fatalf("resumed event %d has index %d, want %d", i, e.ID.Index, 16+i)
		}
	}
	// The resumed subscriber still gets live deliveries.
	if err := c.Report(internalRaw("p0", n+1)); err != nil {
		t.Fatal(err)
	}
	sub.Flush()
	if got := sink.snapshot(); len(got) != 6 {
		t.Fatalf("after a live event, resumed subscriber saw %d events, want 6", len(got))
	}
	sub.Cancel()

	if _, err := c.SubscribeBatchReplayFrom(-1, sink.handler, AsyncOptions{}); err == nil {
		t.Fatal("negative resume offset accepted")
	}
	if _, err := c.SubscribeBatchReplayFrom(n+2, sink.handler, AsyncOptions{}); err == nil {
		t.Fatal("resume offset past the delivered count accepted")
	}
}

// liveStreamGolden is the SHA-256 of what TestResumedStreamIsLiveSuffix's
// live monitor connection receives, recorded from OCEP-POET-6, which
// spells a delta timestamp against its own trace's previous one. Its
// OCEP-POET-5 bytes (a delta against the previous frame, texts through
// the string table) hashed to
// 6be0ada59acabc8d8f4ce3939c23c5ed8b12293eafcf6f767d0c69cb4ac7f059; its
// OCEP-POET-4 bytes, the same the per-connection queue of copies sent
// before subscribers became cursors, to
// 361c4267ad67bcc0d0507a2feba463090af803a058771019d6f5785d4b313479.
const liveStreamGolden = "dcc93b52775b43a59e9b4f5c14a69662c8a7de406a66253f1251a688ffe30bd9"

// monitorReader decodes one raw monitor connection, keeping every byte
// the server sent.
type monitorReader struct {
	conn   net.Conn
	fr     *frameReader
	wire   bytes.Buffer
	events []*event.Event
}

func dialMonitorReader(t *testing.T, addr string, from int) *monitorReader {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	m := &monitorReader{conn: conn}
	m.fr = &frameReader{br: bufio.NewReader(io.TeeReader(conn, &m.wire))}
	fw := newFrameWriter(conn)
	fw.hello(&hello{magic: wireMagic, role: roleMonitor, from: from})
	if err := fw.flush(); err != nil {
		t.Fatal(err)
	}
	return m
}

// readEvents decodes frames until the connection has carried n events.
func (m *monitorReader) readEvents(t *testing.T, n int) {
	t.Helper()
	var f frame
	for len(m.events) < n {
		if err := m.fr.next(&f); err != nil {
			t.Fatalf("after %d of %d events: %v", len(m.events), n, err)
		}
		switch f.kind {
		case frameEvent:
			m.events = append(m.events, f.ev)
		case frameError:
			t.Fatalf("monitor refused: %s", f.reason)
		}
	}
}

// TestResumedStreamIsLiveSuffix: a monitor resuming at offset k decodes
// exactly what a monitor attached before the first Report decoded from
// its k-th event on — ID, kind, type, text, partner and stamp — on a
// seeded stream of sends, receives, held receives and a mid-stream trace
// registration. A resumed or late monitor is handed the live stream, not
// one whose sends carry partners back-patched after they went out live.
// The live connection's bytes are pinned too: cursors changed how events
// reach the wire, not what the wire says.
func TestResumedStreamIsLiveSuffix(t *testing.T) {
	c := NewCollector()
	s := NewServer(c, t.Logf)
	s.SetWireTiming(0, time.Hour, 0) // no heartbeat in the pinned bytes
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	live := dialMonitorReader(t, addr, 0)
	defer live.conn.Close()
	var ans frame
	if err := live.fr.next(&ans); err != nil || ans.kind != frameAcks {
		t.Fatalf("hello answered with kind %d: %v", ans.kind, err)
	}

	rng := rand.New(rand.NewSource(1))
	var names []string
	seq := map[string]int{}
	raw := func(tr string, kind event.Kind, msg uint64) RawEvent {
		seq[tr]++
		return RawEvent{Trace: tr, Seq: seq[tr], Kind: kind, Type: kind.String(), Text: fmt.Sprintf("%s-%d", tr, seq[tr]), MsgID: msg}
	}
	report := func(evs ...RawEvent) {
		for _, ev := range evs {
			if err := c.Report(ev); err != nil {
				t.Fatal(err)
			}
		}
	}
	// A trace's first event goes out alone, after everything before it
	// was read back: where its announcement lands in the live stream then
	// does not depend on how the server cut its batches.
	join := func(tr string) {
		names = append(names, tr)
		live.readEvents(t, c.Delivered())
		report(raw(tr, event.KindInternal, 0))
		live.readEvents(t, c.Delivered())
	}
	for i := 0; i < 6; i++ {
		join(fmt.Sprintf("p%d", i))
	}
	var msg uint64
	type recv struct {
		tr  string
		msg uint64
	}
	var open []recv // sends out, receives not yet reported
	for step := 0; step < 1500; step++ {
		if step == 700 {
			c.RegisterTrace("late")
			join("late")
		}
		ia := rng.Intn(len(names))
		a, b := names[ia], names[(ia+1+rng.Intn(len(names)-1))%len(names)] // two traces
		switch r := rng.Intn(10); {
		case r < 2:
			report(raw(a, event.KindInternal, 0))
		case r < 5:
			msg++
			report(raw(a, event.KindSend, msg))
			open = append(open, recv{b, msg})
		case r < 7 && len(open) > 0:
			i := rng.Intn(len(open))
			report(raw(open[i].tr, event.KindReceive, open[i].msg))
			open = append(open[:i], open[i+1:]...)
		default:
			// A receive ahead of its send: held until the send cascades it.
			msg++
			r := raw(b, event.KindReceive, msg)
			report(r, raw(a, event.KindSend, msg))
		}
	}
	for _, r := range open {
		report(raw(r.tr, event.KindReceive, r.msg))
	}
	if c.Pending() != 0 {
		t.Fatalf("%d events still held", c.Pending())
	}
	n := c.Delivered()
	live.readEvents(t, n)
	sum := sha256.Sum256(live.wire.Bytes())
	if got := hex.EncodeToString(sum[:]); got != liveStreamGolden {
		t.Errorf("the live monitor connection's %d bytes hash to %s, want %s", live.wire.Len(), got, liveStreamGolden)
	}

	for _, k := range []int{0, 1, n / 3, n / 2, n - 1, n} {
		resumed := dialMonitorReader(t, addr, k)
		resumed.readEvents(t, n-k)
		resumed.conn.Close()
		for i, got := range resumed.events {
			want := live.events[k+i]
			if got.ID != want.ID || got.Kind != want.Kind || got.Type != want.Type || got.Text != want.Text ||
				got.Partner != want.Partner || !got.VC.Equal(want.VC) {
				t.Fatalf("resumed at %d, event %d is %v partner %v, the live stream's %v partner %v",
					k, k+i, got, got.Partner, want, want.Partner)
			}
		}
	}
}

// TestBatchSliceReusedAfterHandler holds the BatchHandler slice contract:
// a cursor refills one slice, so a handler's batch is overwritten once
// the handler returns, and a handler that copies the pointers out keeps
// the whole stream in order. Under -race it also shows the refill never
// overlaps the handler (every in-tree consumer copies the same way).
func TestBatchSliceReusedAfterHandler(t *testing.T) {
	c := NewCollector()
	var got, prev, prevCopy []*event.Event
	overwritten := 0
	sub := c.SubscribeBatch(func(batch []*event.Event) {
		if len(prev) > 0 && &prev[0] == &batch[0] && !slices.Equal(prev, prevCopy) {
			overwritten++ // the last batch's slice, rewritten since it was handed over
		}
		got = append(got, batch...)
		prev, prevCopy = batch, append(prevCopy[:0], batch...)
	}, AsyncOptions{MaxBatch: 8})
	for i := 1; i <= 500; i++ {
		for _, tr := range []string{"a", "b", "c"} {
			if err := c.Report(RawEvent{Trace: tr, Seq: i, Kind: event.KindInternal, Type: "step"}); err != nil {
				t.Fatal(err)
			}
		}
	}
	sub.Flush()
	sub.Cancel()
	want := c.Ordered()
	if len(got) != len(want) {
		t.Fatalf("handler kept %d events of %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d the handler kept is %v, the log's %v", i, got[i].ID, want[i].ID)
		}
	}
	if overwritten == 0 {
		t.Fatal("no batch slice was reused: the contract is not exercised")
	}
	t.Logf("%d of the handler's batches were rewritten after it returned", overwritten)
}
