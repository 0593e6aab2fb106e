package poet

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"ocep/internal/event"
	"ocep/internal/vclock"
)

func TestCollectorBasicDelivery(t *testing.T) {
	c := NewCollector()
	var got []*event.Event
	c.Subscribe(func(e *event.Event) { got = append(got, e) })
	must := func(raw RawEvent) {
		t.Helper()
		if err := c.Report(raw); err != nil {
			t.Fatalf("report %+v: %v", raw, err)
		}
	}
	must(RawEvent{Trace: "p0", Seq: 1, Kind: event.KindSend, Type: "send", MsgID: 1})
	must(RawEvent{Trace: "p1", Seq: 1, Kind: event.KindReceive, Type: "recv", MsgID: 1})
	if len(got) != 2 {
		t.Fatalf("delivered %d events, want 2", len(got))
	}
	send, recv := got[0], got[1]
	if !send.Before(recv) {
		t.Fatalf("send must happen before its receive: %s / %s", send, recv)
	}
	if send.Partner.ID() != recv.ID || recv.Partner.ID() != send.ID {
		t.Fatalf("partners not linked: %s / %s", send, recv)
	}
	// Clocks grow as traces join; compare with zero-padding semantics.
	if !send.VC.Equal(vclock.VC{1, 0}.Stamp(0)) {
		t.Fatalf("send VC = %s want [1 0]", send.VC)
	}
	if !recv.VC.Equal(vclock.VC{1, 1}.Stamp(1)) {
		t.Fatalf("recv VC = %s want [1 1]", recv.VC)
	}
}

func TestCollectorBuffersEarlyReceive(t *testing.T) {
	c := NewCollector()
	var got []*event.Event
	c.Subscribe(func(e *event.Event) { got = append(got, e) })
	// Receive reported before its send: buffered.
	if err := c.Report(RawEvent{Trace: "p1", Seq: 1, Kind: event.KindReceive, Type: "r", MsgID: 7}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 || c.Pending() != 1 {
		t.Fatalf("early receive must be buffered: delivered=%d pending=%d", len(got), c.Pending())
	}
	if err := c.Report(RawEvent{Trace: "p0", Seq: 1, Kind: event.KindSend, Type: "s", MsgID: 7}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || !c.Drained() {
		t.Fatalf("send must release the buffered receive: delivered=%d", len(got))
	}
	if got[0].Kind != event.KindSend || got[1].Kind != event.KindReceive {
		t.Fatalf("delivery order wrong: %v then %v", got[0].Kind, got[1].Kind)
	}
}

func TestCollectorBuffersOutOfOrderSeq(t *testing.T) {
	c := NewCollector()
	var got []*event.Event
	c.Subscribe(func(e *event.Event) { got = append(got, e) })
	// Seq 2 arrives before seq 1 on the same trace.
	if err := c.Report(RawEvent{Trace: "p0", Seq: 2, Kind: event.KindInternal, Type: "b"}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("future seq must buffer")
	}
	if err := c.Report(RawEvent{Trace: "p0", Seq: 1, Kind: event.KindInternal, Type: "a"}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Type != "a" || got[1].Type != "b" {
		t.Fatalf("trace order not preserved: %v", got)
	}
}

func TestCollectorErrors(t *testing.T) {
	c := NewCollector()
	if err := c.Report(RawEvent{Trace: "p0", Seq: 0, Kind: event.KindInternal}); !errors.Is(err, ErrStaleEvent) {
		t.Errorf("seq 0 must be stale, got %v", err)
	}
	if err := c.Report(RawEvent{Trace: "p0", Seq: 1, Kind: event.KindInternal}); err != nil {
		t.Fatal(err)
	}
	if err := c.Report(RawEvent{Trace: "p0", Seq: 1, Kind: event.KindInternal}); !errors.Is(err, ErrStaleEvent) {
		t.Errorf("replayed seq must be stale, got %v", err)
	}
	if err := c.Report(RawEvent{Trace: "p0", Seq: 3, Kind: event.KindInternal}); err != nil {
		t.Fatal(err) // buffered
	}
	if err := c.Report(RawEvent{Trace: "p0", Seq: 3, Kind: event.KindInternal}); !errors.Is(err, ErrStaleEvent) {
		t.Errorf("duplicate buffered seq must be stale, got %v", err)
	}
	if err := c.Report(RawEvent{Trace: "p0", Seq: 2, Kind: event.KindReceive, MsgID: 0}); err == nil {
		t.Errorf("receive without msg id must fail")
	}
	if err := c.Report(RawEvent{Trace: "p0", Seq: 2, Kind: event.KindSend, MsgID: 9}); err != nil {
		t.Fatal(err)
	}
	if err := c.Report(RawEvent{Trace: "p1", Seq: 1, Kind: event.KindSend, MsgID: 9}); err == nil {
		t.Errorf("duplicate msg id on send side must fail")
	}
}

// checkRefusesUnholdable feeds ingest, Report or apply, what an event
// cannot hold — a kind above KindSyncRelease, a sequence number above
// math.MaxInt32, a 2^24-th trace — and requires each refusal by name,
// with nothing held: no event delivered or buffered, no trace named.
// Kind 0, an unset kind, stays accepted.
func checkRefusesUnholdable(t *testing.T, ingest func(*Collector, RawEvent) error) {
	t.Helper()
	c := NewCollector()
	for _, tc := range []struct {
		raw  RawEvent
		want error
	}{
		{RawEvent{Trace: "p0", Seq: 1, Kind: event.KindSyncRelease + 1}, ErrEventKind},
		{RawEvent{Trace: "p0", Seq: 1, Kind: 255, MsgID: 1}, ErrEventKind},
		{RawEvent{Trace: "p0", Seq: math.MaxInt32 + 1, Kind: event.KindInternal}, ErrSeqRange},
		{RawEvent{Trace: "p0", Seq: math.MaxInt, Kind: event.KindInternal}, ErrSeqRange},
	} {
		if err := ingest(c, tc.raw); !errors.Is(err, tc.want) {
			t.Errorf("%+v: got %v, want %v", tc.raw, err, tc.want)
		}
	}
	if n, p, tr := c.Delivered(), c.Pending(), c.Store().NumTraces(); n+p+tr != 0 {
		t.Fatalf("refused events left %d delivered, %d buffered, %d traces", n, p, tr)
	}
	if err := ingest(c, RawEvent{Trace: "p0", Seq: 1}); err != nil {
		t.Fatalf("an event with no kind: %v", err)
	}
	if err := ingest(c, RawEvent{Trace: "p0", Seq: math.MaxInt32, Kind: event.KindInternal}); err != nil || c.Pending() != 1 {
		t.Fatalf("sequence math.MaxInt32: %v, %d buffered", err, c.Pending())
	}

	// Striped IDs reach the limit in two traces: shard 1 of 2^24 numbers
	// its second home trace 2^24 + 1.
	c = NewCollector()
	if err := c.EnableSharding(1, event.MaxTraces); err != nil {
		t.Fatal(err)
	}
	if err := ingest(c, RawEvent{Trace: "a", Seq: 1, Kind: event.KindInternal}); err != nil {
		t.Fatal(err)
	}
	if err := ingest(c, RawEvent{Trace: "b", Seq: 1, Kind: event.KindInternal}); !errors.Is(err, ErrTooManyTraces) {
		t.Fatalf("the trace past event.MaxTraces: got %v, want %v", err, ErrTooManyTraces)
	}
	if _, known := c.Store().TraceByName("b"); known || c.Delivered() != 1 {
		t.Fatalf("a refused trace is named (%v) or its event held (%d delivered)", known, c.Delivered())
	}
}

func TestReportRefusesUnholdableEvents(t *testing.T) {
	checkRefusesUnholdable(t, (*Collector).Report)
}

// TestApplyRefusesUnholdableEvents: a record the tier accepted once
// (recovery, reload, a standby's stream) is not held either when no
// event could hold it.
func TestApplyRefusesUnholdableEvents(t *testing.T) {
	checkRefusesUnholdable(t, (*Collector).apply)
	if err := NewCollector().apply(RawEvent{Trace: "b"}); err != nil {
		t.Fatal(err)
	}
	c := NewCollector()
	if err := c.EnableSharding(1, event.MaxTraces); err != nil {
		t.Fatal(err)
	}
	if id, err := c.RegisterTrace("a"); err != nil || id != 1 {
		t.Fatalf("RegisterTrace(a) = %d, %v; want shard 1's first trace, 1", id, err)
	}
	if err := c.apply(RawEvent{Trace: "b"}); !errors.Is(err, ErrTooManyTraces) {
		t.Fatalf("registering the trace past event.MaxTraces: got %v", err)
	}
	if _, err := c.RegisterTrace("b"); !errors.Is(err, ErrTooManyTraces) {
		t.Fatalf("RegisterTrace past event.MaxTraces: got %v", err)
	}
	if _, known := c.Store().TraceByName("b"); known {
		t.Fatal("a refused trace was registered")
	}
}

func TestCollectorSemaphoreKinds(t *testing.T) {
	// Release/acquire pair causality through a semaphore trace.
	c := NewCollector()
	must := func(raw RawEvent) {
		t.Helper()
		if err := c.Report(raw); err != nil {
			t.Fatal(err)
		}
	}
	must(RawEvent{Trace: "thread-1", Seq: 1, Kind: event.KindSyncRelease, Type: "V", MsgID: 1})
	must(RawEvent{Trace: "sem", Seq: 1, Kind: event.KindSyncAcquire, Type: "granted", MsgID: 1})
	must(RawEvent{Trace: "sem", Seq: 2, Kind: event.KindSyncRelease, Type: "grant", MsgID: 2})
	must(RawEvent{Trace: "thread-2", Seq: 1, Kind: event.KindSyncAcquire, Type: "P", MsgID: 2})
	st := c.Store()
	v := st.Get(event.ID{Trace: 0, Index: 1})
	p := st.Get(event.ID{Trace: 2, Index: 1})
	if v == nil || p == nil {
		t.Fatalf("events missing")
	}
	if !v.Before(p) {
		t.Fatalf("release must happen before the next acquire via the semaphore trace")
	}
}

// TestLinearizationProperty: the delivery order is a valid linearization
// of the partial order: every event is delivered after everything that
// happens before it.
func TestLinearizationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 10; round++ {
		c := NewCollector()
		var order []*event.Event
		c.Subscribe(func(e *event.Event) { order = append(order, e) })
		// Generate a random computation as raw events, reported in a
		// randomly permuted order (within-trace order preserved).
		raws := randomRawComputation(rng, 4, 120)
		perTrace := make(map[string][]RawEvent)
		var traces []string
		for _, r := range raws {
			if len(perTrace[r.Trace]) == 0 {
				traces = append(traces, r.Trace)
			}
			perTrace[r.Trace] = append(perTrace[r.Trace], r)
		}
		for len(traces) > 0 {
			i := rng.Intn(len(traces))
			tr := traces[i]
			r := perTrace[tr][0]
			perTrace[tr] = perTrace[tr][1:]
			if len(perTrace[tr]) == 0 {
				traces = append(traces[:i], traces[i+1:]...)
			}
			if err := c.Report(r); err != nil {
				t.Fatalf("round %d: report: %v", round, err)
			}
		}
		if !c.Drained() {
			t.Fatalf("round %d: collector not drained (%d pending)", round, c.Pending())
		}
		if len(order) != len(raws) {
			t.Fatalf("round %d: delivered %d of %d", round, len(order), len(raws))
		}
		seen := make(map[event.ID]bool)
		for _, e := range order {
			// Every predecessor must already be delivered: check via
			// the vector clock against counts of delivered events.
			for tr := 0; tr < c.Store().NumTraces(); tr++ {
				need := e.VC.Get(tr)
				have := 0
				for id := range seen {
					if int(id.Trace) == tr {
						have++
					}
				}
				if int(e.ID.Trace) == tr {
					need-- // itself
				}
				if have < need {
					t.Fatalf("round %d: event %s delivered before %d of its trace-%d predecessors",
						round, e.ID, need-have, tr)
				}
			}
			seen[e.ID] = true
		}
	}
}

// randomRawComputation builds a consistent raw-event script: sends get
// unique msg ids; receives reference already-scripted sends.
func randomRawComputation(rng *rand.Rand, traces, events int) []RawEvent {
	var raws []RawEvent
	seq := make([]int, traces)
	var msg uint64
	type pend struct {
		id  uint64
		dst int
	}
	var pending []pend
	for len(raws) < events {
		tr := rng.Intn(traces)
		r := rng.Float64()
		switch {
		case r < 0.3:
			msg++
			seq[tr]++
			dst := rng.Intn(traces - 1 + 1)
			if dst == tr {
				dst = (dst + 1) % traces
			}
			raws = append(raws, RawEvent{
				Trace: fmt.Sprintf("p%d", tr), Seq: seq[tr],
				Kind: event.KindSend, Type: "s", MsgID: msg,
			})
			pending = append(pending, pend{id: msg, dst: dst})
		case r < 0.6 && len(pending) > 0:
			p := pending[0]
			pending = pending[1:]
			seq[p.dst]++
			raws = append(raws, RawEvent{
				Trace: fmt.Sprintf("p%d", p.dst), Seq: seq[p.dst],
				Kind: event.KindReceive, Type: "r", MsgID: p.id,
			})
		default:
			seq[tr]++
			raws = append(raws, RawEvent{
				Trace: fmt.Sprintf("p%d", tr), Seq: seq[tr],
				Kind: event.KindInternal, Type: "i",
			})
		}
	}
	return raws
}

// TestCollectorConcurrentReporters: many goroutines reporting different
// traces concurrently must produce a consistent store.
func TestCollectorConcurrentReporters(t *testing.T) {
	c := NewCollector()
	const traces = 8
	const perTrace = 500
	// Pre-register so trace IDs are stable.
	for i := 0; i < traces; i++ {
		c.RegisterTrace(fmt.Sprintf("p%d", i))
	}
	var wg sync.WaitGroup
	errCh := make(chan error, traces)
	for tr := 0; tr < traces; tr++ {
		wg.Add(1)
		go func(tr int) {
			defer wg.Done()
			for s := 1; s <= perTrace; s++ {
				err := c.Report(RawEvent{
					Trace: fmt.Sprintf("p%d", tr), Seq: s,
					Kind: event.KindInternal, Type: "x",
				})
				if err != nil {
					errCh <- err
					return
				}
			}
		}(tr)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if got := c.Delivered(); got != traces*perTrace {
		t.Fatalf("delivered = %d want %d", got, traces*perTrace)
	}
	if len(c.Ordered()) != traces*perTrace {
		t.Fatalf("order log wrong length")
	}
}

func TestTraceStats(t *testing.T) {
	c := NewCollector()
	must := func(raw RawEvent) {
		t.Helper()
		if err := c.Report(raw); err != nil {
			t.Fatal(err)
		}
	}
	must(RawEvent{Trace: "p0", Seq: 1, Kind: event.KindSend, Type: "s", MsgID: 1})
	must(RawEvent{Trace: "p0", Seq: 2, Kind: event.KindInternal, Type: "i"})
	must(RawEvent{Trace: "p1", Seq: 1, Kind: event.KindReceive, Type: "r", MsgID: 1})
	// A buffered event (future seq).
	must(RawEvent{Trace: "p1", Seq: 3, Kind: event.KindInternal, Type: "i"})

	stats := c.TraceStats()
	if len(stats) != 2 {
		t.Fatalf("stats = %v", stats)
	}
	if stats[0].Name != "p0" || stats[0].Delivered != 2 || stats[0].Comm != 1 || stats[0].Buffered != 0 {
		t.Fatalf("p0 stats = %+v", stats[0])
	}
	if stats[1].Delivered != 1 || stats[1].Comm != 1 || stats[1].Buffered != 1 {
		t.Fatalf("p1 stats = %+v", stats[1])
	}
}

func TestSubscribeReplay(t *testing.T) {
	c := NewCollector()
	for s := 1; s <= 5; s++ {
		if err := c.Report(RawEvent{Trace: "p0", Seq: s, Kind: event.KindInternal, Type: "x"}); err != nil {
			t.Fatal(err)
		}
	}
	var got []*event.Event
	sub := c.SubscribeReplay(func(e *event.Event) { got = append(got, e) })
	if len(got) != 5 {
		t.Fatalf("replay delivered %d want 5", len(got))
	}
	if err := c.Report(RawEvent{Trace: "p0", Seq: 6, Kind: event.KindInternal, Type: "x"}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 6 {
		t.Fatalf("live delivery after replay missing")
	}
	sub.Cancel()
	if err := c.Report(RawEvent{Trace: "p0", Seq: 7, Kind: event.KindInternal, Type: "x"}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 6 {
		t.Fatalf("cancelled handler still invoked")
	}
	sub.Cancel() // double cancel is fine
}
