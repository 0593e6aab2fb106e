package poet

// Resource-governance tests for the collector and wire server: bounded
// retention of the linearization log (SetRetention), admission control
// (SetAdmissionLimit / ErrOverloaded), and the server's load-shedding
// path that parks overloading reporters instead of dropping events.

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"ocep/internal/event"
)

func reportN(t *testing.T, c *Collector, trace string, from, to int) {
	t.Helper()
	for s := from; s <= to; s++ {
		if err := c.Report(RawEvent{Trace: trace, Seq: s, Kind: event.KindInternal, Type: "x"}); err != nil {
			t.Fatalf("report %s/%d: %v", trace, s, err)
		}
	}
}

func TestRetentionTrimsLogAndStore(t *testing.T) {
	c := NewCollector()
	if err := c.SetRetention(100); err != nil {
		t.Fatal(err)
	}
	reportN(t, c, "p0", 1, 600)
	reportN(t, c, "p1", 1, 600)
	if got := c.Delivered(); got != 1200 {
		t.Fatalf("Delivered = %d, want 1200 (retention must not change delivery)", got)
	}
	rs := c.RetentionStats()
	if rs.Evicted == 0 || rs.StoreCompacted == 0 {
		t.Fatalf("nothing evicted under a 100-event bound: %+v", rs)
	}
	if rs.Retained > 100+100/4 {
		t.Fatalf("retained %d events, bound is 125", rs.Retained)
	}
	if rs.Retained != len(c.Ordered()) {
		t.Fatalf("Retained %d != len(Ordered) %d", rs.Retained, len(c.Ordered()))
	}
	if rs.TrimmedFrom+rs.Retained != 1200 {
		t.Fatalf("TrimmedFrom %d + Retained %d != 1200", rs.TrimmedFrom, rs.Retained)
	}
	if got := c.Store().RetainedEvents(); got >= 1200 {
		t.Fatalf("store still holds all %d events", got)
	}
	// Acks still reflect full ingestion: retention must never make a
	// reporter retransmit.
	if got := c.AckFor("p0"); got != 600 {
		t.Fatalf("AckFor(p0) = %d, want 600", got)
	}
}

// TestRetentionFreesMemory: events and stamps are carved from chunks, and
// a chunk is garbage only once everything carved from it is — so a
// retained event pins its 8 KiB event chunk and its 8–32 KiB clock
// chunk. Chunks fill in delivery order and retention evicts in delivery
// order, so the retained window pins a contiguous run of chunks, and what
// retention cannot evict — an idle trace's last events, an open send —
// costs at most (8 KiB + 32 KiB) per such straggler, not the history.
// 200 k events under a 1 000-event bound, with a trace that goes idle
// after ten events, the last of them a send nobody receives until the
// end: the live heap stays under 2 MB (measured 0.3 MB; 30 MB with
// retention off).
func TestRetentionFreesMemory(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes heap sizes")
	}
	const (
		busy   = 16
		events = 200000
		limit  = 2 << 20
	)
	before := liveHeap()
	c := NewCollector()
	if err := c.SetRetention(1000); err != nil {
		t.Fatal(err)
	}
	reportN(t, c, "idle", 1, 9)
	report := func(r RawEvent) {
		t.Helper()
		if err := c.Report(r); err != nil {
			t.Fatal(err)
		}
	}
	report(RawEvent{Trace: "idle", Seq: 10, Kind: event.KindSend, Type: "open", MsgID: 1})
	names := make([]string, busy)
	for i := range names {
		names[i] = fmt.Sprintf("p%d", i)
	}
	seq := make([]int, busy)
	next := func(tr int, kind event.Kind, msg uint64) RawEvent {
		seq[tr]++
		return RawEvent{Trace: names[tr], Seq: seq[tr], Kind: kind, Type: "x", MsgID: msg}
	}
	for i := 0; i < events; i++ {
		if tr := i % busy; i%100 == 0 {
			// A matched pair now and then: its sends entry must go too.
			report(next(tr, event.KindSend, uint64(i+2)))
			report(next((tr+1)%busy, event.KindReceive, uint64(i+2)))
		} else {
			report(next(tr, event.KindInternal, 0))
		}
	}
	live := liveHeap() - before
	rs := c.RetentionStats()
	t.Logf("live heap %d KiB after %d events; %+v", live>>10, c.Delivered(), rs)
	if live > limit {
		t.Fatalf("%d KiB live after %d events under SetRetention(1000), want <= %d KiB", live>>10, c.Delivered(), limit>>10)
	}
	if rs.StoreCompacted == 0 || rs.Retained > 1250 {
		t.Fatalf("retention did not compact: %+v", rs)
	}
	// The open send is still there to stamp its receive.
	report(next(0, event.KindReceive, 1))
	last := c.Ordered()[len(c.Ordered())-1]
	idle, _ := c.Store().TraceByName("idle")
	if want := (event.ID{Trace: idle, Index: 10}); last.Partner.ID() != want || last.VC.Get(int(idle)) != 10 {
		t.Fatalf("the receive of the open send is %v, want partner %v and its clock merged", last, want)
	}
}

// TestRetentionPreservesCausality: a receive delivered long after its
// send must still merge the send's vector clock, so retention may never
// release an unmatched send from the store.
func TestRetentionPreservesCausality(t *testing.T) {
	run := func(keep int) *event.Event {
		c := NewCollector()
		if keep > 0 {
			if err := c.SetRetention(keep); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Report(RawEvent{Trace: "p0", Seq: 1, Kind: event.KindSend, Type: "s", MsgID: 1}); err != nil {
			t.Fatal(err)
		}
		// Hundreds of internals bury the open send far behind any
		// retention watermark.
		reportN(t, c, "p0", 2, 400)
		reportN(t, c, "p1", 1, 400)
		if err := c.Report(RawEvent{Trace: "p1", Seq: 401, Kind: event.KindReceive, Type: "r", MsgID: 1}); err != nil {
			t.Fatal(err)
		}
		ord := c.Ordered()
		return ord[len(ord)-1]
	}
	free := run(0)
	kept := run(16)
	if kept.Kind != event.KindReceive || !kept.VC.Equal(free.VC) {
		t.Fatalf("receive clock diverged under retention: %s vs %s", kept.VC, free.VC)
	}
	if kept.Partner != free.Partner {
		t.Fatalf("partner diverged under retention: %s vs %s", kept.Partner, free.Partner)
	}
}

// TestRetentionOpenSendPinsStore: the open send stays queryable however
// far the log trims; once matched it becomes evictable.
func TestRetentionOpenSendPinsStore(t *testing.T) {
	c := NewCollector()
	if err := c.SetRetention(32); err != nil {
		t.Fatal(err)
	}
	if err := c.Report(RawEvent{Trace: "p0", Seq: 1, Kind: event.KindSend, Type: "s", MsgID: 9}); err != nil {
		t.Fatal(err)
	}
	reportN(t, c, "p0", 2, 300)
	sendID := event.ID{Trace: 0, Index: 1}
	if _, ok := c.GetEvent(sendID); !ok {
		t.Fatal("open send was compacted away")
	}
	// Match it, then push more traffic past the watermark: now it may go.
	if err := c.Report(RawEvent{Trace: "p1", Seq: 1, Kind: event.KindReceive, Type: "r", MsgID: 9}); err != nil {
		t.Fatal(err)
	}
	reportN(t, c, "p0", 301, 600)
	if _, ok := c.GetEvent(sendID); ok {
		t.Fatal("matched send still pinned after the backlog moved on")
	}
}

// TestRetentionConflictsBothOrders: only the delivery index can trim, so
// retention and each log that is read from record zero refuse each other
// in whichever order they are asked for — the library-level mirror of
// poetd's rejected flag combinations.
func TestRetentionConflictsBothOrders(t *testing.T) {
	logs := []struct {
		name string
		on   func(*Collector) error
	}{
		{"journal", (*Collector).EnableReplicationLog},
		{"durable", func(c *Collector) error {
			d, err := OpenDurable(c, DurableOptions{Dir: t.TempDir()})
			if err == nil {
				t.Cleanup(func() { _ = d.Close() })
			}
			return err
		}},
		{"sharding", func(c *Collector) error { return c.EnableSharding(0, 2) }},
	}
	for _, l := range logs {
		t.Run(l.name+"-then-retention", func(t *testing.T) {
			c := NewCollector()
			if err := l.on(c); err != nil {
				t.Fatal(err)
			}
			if err := c.SetRetention(10); err == nil || !strings.Contains(err.Error(), "retention is incompatible with") {
				t.Fatalf("SetRetention on a collector with %s = %v, want an incompatibility", l.name, err)
			}
			if c.RetentionStats().KeepEvents != 0 {
				t.Fatal("the refused SetRetention took effect")
			}
		})
		t.Run("retention-then-"+l.name, func(t *testing.T) {
			c := NewCollector()
			if err := c.SetRetention(10); err != nil {
				t.Fatal(err)
			}
			if err := l.on(c); err == nil || !strings.Contains(err.Error(), "incompatible with SetRetention") {
				t.Fatalf("%s on a retaining collector = %v, want an incompatibility", l.name, err)
			}
			if c.ReplicationStats().Enabled || c.Sharded() || c.Durable() != nil {
				t.Fatalf("the refused %s took effect", l.name)
			}
		})
	}
}

func TestRetentionRejectsEvictedReplayOffset(t *testing.T) {
	c := NewCollector()
	if err := c.SetRetention(50); err != nil {
		t.Fatal(err)
	}
	reportN(t, c, "p0", 1, 400)
	rs := c.RetentionStats()
	if rs.TrimmedFrom == 0 {
		t.Fatal("fixture never trimmed")
	}
	if _, err := c.SubscribeBatchReplayFrom(0, func([]*event.Event) {}, AsyncOptions{}); err == nil {
		t.Fatal("replay from an evicted offset was accepted")
	}
	// The oldest retained offset replays the exact retained suffix.
	var got []*event.Event
	sub, err := c.SubscribeBatchReplayFrom(rs.TrimmedFrom, func(b []*event.Event) { got = append(got, b...) }, AsyncOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sub.Flush()
	sub.Cancel()
	if len(got) != rs.Retained {
		t.Fatalf("replayed %d events, want the %d retained", len(got), rs.Retained)
	}
	if got[0].ID.Index != 400-rs.Retained+1 {
		t.Fatalf("replay starts at index %d, want %d", got[0].ID.Index, 400-rs.Retained+1)
	}
}

func TestAdmissionLimit(t *testing.T) {
	c := NewCollector()
	c.SetAdmissionLimit(4)
	// Head receive waits for a send that has not arrived: it buffers, and
	// events behind it pile up to the cap.
	if err := c.Report(RawEvent{Trace: "p0", Seq: 1, Kind: event.KindReceive, Type: "r", MsgID: 5}); err != nil {
		t.Fatal(err)
	}
	for s := 2; s <= 4; s++ {
		if err := c.Report(RawEvent{Trace: "p0", Seq: s, Kind: event.KindInternal, Type: "x"}); err != nil {
			t.Fatalf("report under the cap: %v", err)
		}
	}
	err := c.Report(RawEvent{Trace: "p0", Seq: 5, Kind: event.KindInternal, Type: "x"})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("5th buffered event: got %v, want ErrOverloaded", err)
	}
	// A second trace is not affected by p0's backlog.
	if err := c.Report(RawEvent{Trace: "p1", Seq: 1, Kind: event.KindInternal, Type: "x"}); err != nil {
		t.Fatalf("independent trace refused: %v", err)
	}
	// The unblocking send is the delivery head of its own trace; once it
	// lands, p0's backlog drains and the refused event is admitted.
	if err := c.Report(RawEvent{Trace: "p2", Seq: 1, Kind: event.KindSend, Type: "s", MsgID: 5}); err != nil {
		t.Fatal(err)
	}
	if err := c.Report(RawEvent{Trace: "p0", Seq: 5, Kind: event.KindInternal, Type: "x"}); err != nil {
		t.Fatalf("retransmit after drain refused: %v", err)
	}
	if !c.Drained() || c.Delivered() != 7 {
		t.Fatalf("drained=%v delivered=%d, want true/7", c.Drained(), c.Delivered())
	}
}

// TestAdmissionNeverRefusesDeliveryHead: the event that would drain the
// backlog must be admitted even when the trace is at its cap, or the
// overload could never resolve.
func TestAdmissionNeverRefusesDeliveryHead(t *testing.T) {
	c := NewCollector()
	c.SetAdmissionLimit(2)
	// Seqs 2 and 3 buffer behind the missing seq 1, filling the cap.
	for s := 2; s <= 3; s++ {
		if err := c.Report(RawEvent{Trace: "p0", Seq: s, Kind: event.KindInternal, Type: "x"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Report(RawEvent{Trace: "p0", Seq: 4, Kind: event.KindInternal, Type: "x"}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-cap buffering: got %v, want ErrOverloaded", err)
	}
	if err := c.Report(RawEvent{Trace: "p0", Seq: 1, Kind: event.KindInternal, Type: "x"}); err != nil {
		t.Fatalf("delivery head refused at the cap: %v", err)
	}
	if c.Delivered() != 3 {
		t.Fatalf("delivered %d, want 3", c.Delivered())
	}
}

// TestServerShedsOverload drives the wire path into admission refusal
// and checks the server parks the reporter (shedding) instead of
// failing it, then recovers once the blocking send arrives.
func TestServerShedsOverload(t *testing.T) {
	c := NewCollector()
	c.SetAdmissionLimit(3)
	s := NewServer(c, t.Logf)
	s.SetOverloadWait(10 * time.Second)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
	})

	rep, err := DialReporter(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	// Head receive waits for a send nobody has reported; the events
	// behind it overflow the 3-event admission cap, so the 5th report
	// trips the server's shed path.
	if err := rep.Report(RawEvent{Trace: "p0", Seq: 1, Kind: event.KindReceive, Type: "r", MsgID: 1}); err != nil {
		t.Fatal(err)
	}
	for seq := 2; seq <= 6; seq++ {
		if err := rep.Report(RawEvent{Trace: "p0", Seq: seq, Kind: event.KindInternal, Type: "x"}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return s.Shedding() })
	if st := s.WireStats(); st.LoadSheds == 0 {
		t.Fatalf("shedding but LoadSheds = %d", st.LoadSheds)
	}

	// A second reporter supplies the missing send: the backlog drains,
	// the parked connection resumes, and every event lands exactly once.
	rep2, err := DialReporter(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rep2.Close()
	if err := rep2.Report(RawEvent{Trace: "p1", Seq: 1, Kind: event.KindSend, Type: "s", MsgID: 1}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return c.Delivered() == 7 && c.Drained() })
	waitFor(t, func() bool { return !s.Shedding() })
	if err := rep.Flush(); err != nil {
		t.Fatalf("parked reporter failed: %v", err)
	}
}

// TestServerOverloadWaitExpires: when the backlog never drains, the
// parked connection fails with the collector's overload error instead
// of hanging forever.
func TestServerOverloadWaitExpires(t *testing.T) {
	c := NewCollector()
	c.SetAdmissionLimit(1)
	s := NewServer(c, t.Logf)
	s.SetOverloadWait(50 * time.Millisecond)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })

	rep, err := DialReporter(addr, WithSessionReconnect(0))
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	if err := rep.Report(RawEvent{Trace: "p0", Seq: 1, Kind: event.KindReceive, Type: "r", MsgID: 1}); err != nil {
		t.Fatal(err)
	}
	// Seq 2 fills the cap; seq 3 trips the shed path, whose wait expires.
	_ = rep.Report(RawEvent{Trace: "p0", Seq: 2, Kind: event.KindInternal, Type: "x"})
	_ = rep.Report(RawEvent{Trace: "p0", Seq: 3, Kind: event.KindInternal, Type: "x"})
	deadline := time.Now().Add(5 * time.Second)
	for rep.Err() == nil && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if err := rep.Err(); err == nil {
		t.Fatal("reporter never observed the overload failure")
	}
}
