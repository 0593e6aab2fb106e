package poet

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"ocep/internal/event"
	"ocep/internal/event/eventtest"
	"ocep/internal/telemetry"
	"ocep/internal/vclock"
)

// sameEvent compares two delivered events field by field, with the
// timestamps compared by value (zero padding ignored), so dense and
// delta-decoded streams can be checked against each other. Send-side
// partners are excluded: the
// collector backfills a send's Partner when its receive is delivered,
// which races with wire encoding, so a live stream may legitimately
// carry a send before the backfill while the in-process oracle (read
// after the fact) has it.
func sameEvent(a, b *event.Event) bool {
	if a.ID != b.ID || a.Kind != b.Kind || a.Type != b.Type ||
		a.Text != b.Text || !a.VC.Equal(b.VC) {
		return false
	}
	if isSendLike(a.Kind) {
		return true
	}
	return a.Partner == b.Partner
}

// drainMonitor reads exactly n events from mon.
func drainMonitor(t *testing.T, mon *MonitorClient, n int) []*event.Event {
	t.Helper()
	out := make([]*event.Event, 0, n)
	for len(out) < n {
		e, err := mon.Next()
		if err != nil {
			t.Fatalf("monitor next %d: %v", len(out), err)
		}
		out = append(out, e)
	}
	return out
}

// queryAll fetches every event of evs again over a query connection,
// whose answers spell timestamps dense.
func queryAll(t *testing.T, addr string, evs []*event.Event) []*event.Event {
	t.Helper()
	q, err := DialQuery(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	out := make([]*event.Event, len(evs))
	for i, e := range evs {
		if out[i], err = q.Get(e.ID); err != nil {
			t.Fatalf("query %v: %v", e.ID, err)
		}
	}
	return out
}

// TestDeltaDenseStreamEquivalence runs one causally rich stream through
// a monitor session, whose timestamps are delta-encoded, and fetches
// every event again over a query connection, whose timestamps are
// dense; both spellings must reconstruct exactly the events the
// in-process collector delivered.
func TestDeltaDenseStreamEquivalence(t *testing.T) {
	c, _, addr := startServer(t)

	delta, err := DialMonitor(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer delta.Close()

	evs := durWorkload(60)
	reportAll(t, c, evs)
	waitFor(t, func() bool { return c.Delivered() == len(evs) })
	oracle := c.Ordered()

	streamed := drainMonitor(t, delta, len(oracle))
	for name, got := range map[string][]*event.Event{"delta": streamed, "dense": queryAll(t, addr, streamed)} {
		for i, e := range got {
			if !sameEvent(e, oracle[i]) {
				t.Fatalf("%s spelling of event %d = %v vc=%v, oracle %v vc=%v",
					name, i, e.ID, e.VC, oracle[i].ID, oracle[i].VC)
			}
		}
	}
}

// TestDeltaResumeBaselineReset cuts a monitor session mid-replay several
// times and requires the resumed stream to carry exactly the oracle's
// timestamps: the handshake must reset both the encoder's and the
// decoder's baselines, or the first post-resume delta would be applied
// to a stale vector and every subsequent stamp would be wrong. The
// stamps the decoder shares across the cuts must also pass the
// independent replay of eventtest.CheckStamps.
func TestDeltaResumeBaselineReset(t *testing.T) {
	t.Run("delta", func(t *testing.T) {
		c, _, p := startFaultServer(t)

		const rounds = 1200
		evs := durWorkload(rounds)
		reportAll(t, c, evs)
		waitFor(t, func() bool { return c.Delivered() == len(evs) })
		oracle := c.Ordered()

		// Throttle so the replay is still in flight when the cuts land.
		p.SetChunk(256, 200*time.Microsecond)
		mon, err := DialMonitor(p.Addr(),
			WithSessionReconnect(10*time.Second),
			WithSessionBackoff(2*time.Millisecond, 50*time.Millisecond),
			WithSessionLog(t.Logf))
		if err != nil {
			t.Fatal(err)
		}
		defer mon.Close()

		got := make([]*event.Event, len(oracle))
		for i := range oracle {
			e, err := mon.Next()
			if err != nil {
				t.Fatalf("next %d: %v", i, err)
			}
			if got[i] = e; !sameEvent(e, oracle[i]) {
				t.Fatalf("post-resume stream diverged at %d: got %v vc=%v, want %v vc=%v",
					i, e.ID, e.VC, oracle[i].ID, oracle[i].VC)
			}
			if i == 700 || i == 1800 || i == 2900 {
				p.CutAll()
			}
		}
		if st := mon.Stats(); st.Reconnects == 0 {
			t.Fatalf("stats = %+v: the cuts never forced a resume (test proved nothing)", st)
		}
		if err := eventtest.CheckStamps(got); err != nil {
			t.Fatal(err)
		}
	})
}

// TestDecodedStampsPrintAsCollected: a decoded stamp is as wide as the
// collector made it, not as wide as the widest clock its connection
// carried. p0's events stay one entry wide after p2's three-entry clock
// has crossed the connection, and print as [n], never [n 0 0] — in the
// monitor stream's delta spelling and in a query answer's dense one.
func TestDecodedStampsPrintAsCollected(t *testing.T) {
	c, _, addr := startServer(t)
	mon, err := DialMonitor(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	reportAll(t, c, []RawEvent{
		{Trace: "p0", Seq: 1, Kind: event.KindInternal, Type: "step"},
		{Trace: "p1", Seq: 1, Kind: event.KindSend, Type: "req", MsgID: 1},
		{Trace: "p2", Seq: 1, Kind: event.KindReceive, Type: "resp", MsgID: 1},
		{Trace: "p0", Seq: 2, Kind: event.KindInternal, Type: "step"},
		{Trace: "p2", Seq: 2, Kind: event.KindSend, Type: "req", MsgID: 2},
		{Trace: "p0", Seq: 3, Kind: event.KindReceive, Type: "resp", MsgID: 2},
		{Trace: "p1", Seq: 2, Kind: event.KindInternal, Type: "step"},
		{Trace: "p0", Seq: 4, Kind: event.KindInternal, Type: "step"},
	})
	oracle := c.Ordered()
	streamed := drainMonitor(t, mon, len(oracle))
	for name, got := range map[string][]*event.Event{"delta": streamed, "dense": queryAll(t, addr, streamed)} {
		for i, e := range got {
			if e.String() != oracle[i].String() {
				t.Fatalf("%s: event %d decoded as %s, collected as %s", name, i, e, oracle[i])
			}
		}
		if err := eventtest.CheckStamps(got); err != nil {
			t.Fatal(err)
		}
	}
}

// sharingWorkload interleaves internal events, sends, receives and
// release/acquire pairs over traces traces, seeded: a trace often
// follows itself and more often another, and every message is received
// after its send, on another trace.
func sharingWorkload(seed int64, traces, n int) []RawEvent {
	rng := rand.New(rand.NewSource(seed))
	seq := make([]int, traces)
	var out []RawEvent
	emit := func(tr int, kind event.Kind, msg uint64) {
		seq[tr]++
		out = append(out, RawEvent{Trace: fmt.Sprintf("p%d", tr), Seq: seq[tr], Kind: kind, Type: kind.String(), MsgID: msg})
	}
	type pending struct {
		to   int
		msg  uint64
		kind event.Kind
	}
	var open []pending
	var msg uint64
	for len(out) < n {
		a := rng.Intn(traces)
		switch r := rng.Intn(10); {
		case r < 3:
			emit(a, event.KindInternal, 0)
		case r < 5:
			msg++
			open = append(open, pending{(a + 1 + rng.Intn(traces-1)) % traces, msg, event.KindReceive})
			emit(a, event.KindSend, msg)
		case r < 6:
			msg++
			open = append(open, pending{(a + 1 + rng.Intn(traces-1)) % traces, msg, event.KindSyncAcquire})
			emit(a, event.KindSyncRelease, msg)
		case len(open) > 0:
			i := rng.Intn(len(open))
			p := open[i]
			open = append(open[:i], open[i+1:]...)
			emit(p.to, p.kind, p.msg)
		}
	}
	for _, p := range open {
		emit(p.to, p.kind, p.msg)
	}
	return out
}

// sharing reports for each event whether its stamp shares its trace's
// previous one in evs (a trace's first, the empty clock's), and counts
// the join clocks evs holds: the stamps that share none.
func sharing(evs []*event.Event) (shares []bool, clocks int) {
	prev := map[event.TraceID]vclock.Stamp{}
	for _, e := range evs {
		p, ok := prev[e.ID.Trace]
		if !ok {
			p = vclock.Stamp{}.At(int(e.ID.Trace), 0)
		}
		shares = append(shares, e.VC.Shares(p))
		if !e.VC.Shares(p) {
			clocks++
		}
		prev[e.ID.Trace] = e.VC
	}
	return shares, clocks
}

// TestDecodedStampsShareAsCollected: a decoded stamp shares its trace's
// previous decoded stamp exactly where the collector's stamp shares its
// trace's previous one — on a monitor stream and on the export stream a
// shard follower reads — so a decoder builds a clock at a join and
// nowhere else: poet_stamp_bases_total of them on a monitor stream read
// from the start.
func TestDecodedStampsShareAsCollected(t *testing.T) {
	const traces, n = 20, 4000
	c := NewCollector()
	reg := telemetry.NewRegistry()
	c.InstrumentMetrics(reg)
	if err := c.EnableSharding(0, 2); err != nil {
		t.Fatal(err)
	}
	s := NewServer(c, t.Logf)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	mon, err := DialMonitor(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	peer, err := dialRaw(addr, hello{magic: wireMagic, role: roleShard})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	if f := peer.answer(t); f.kind != frameAcks {
		t.Fatalf("shard hello answered with kind %d: %s", f.kind, f.reason)
	}

	reportAll(t, c, sharingWorkload(1, traces, n))
	collected := c.Ordered()
	var sends []*event.Event
	for _, e := range collected {
		if isSendLike(e.Kind) {
			sends = append(sends, e)
		}
	}
	var exported []*event.Event
	for len(exported) < len(sends) {
		var f frame
		if err := peer.fr.next(&f); err != nil {
			t.Fatalf("export %d of %d: %v", len(exported), len(sends), err)
		}
		if f.kind == frameExport {
			exported = append(exported, &event.Event{ID: f.exp.ID, VC: f.exp.VC})
		}
	}

	for _, tc := range []struct {
		name            string
		decoded, oracle []*event.Event
		wantClocks      int // poet_stamp_bases_total; -1 for a stream of sends alone
	}{
		{"monitor", drainMonitor(t, mon, len(collected)), collected, int(reg.Value("poet_stamp_bases_total"))},
		{"export", exported, sends, -1},
	} {
		want, wantClocks := sharing(tc.oracle)
		got, clocks := sharing(tc.decoded)
		for i, e := range tc.decoded {
			if e.ID != tc.oracle[i].ID || !e.VC.Equal(tc.oracle[i].VC) {
				t.Fatalf("%s: event %d decoded as %v vc=%v, collected %v vc=%v", tc.name, i, e.ID, e.VC, tc.oracle[i].ID, tc.oracle[i].VC)
			}
			if got[i] != want[i] {
				t.Fatalf("%s: %v's stamp shares its trace's previous one: decoded %v, collected %v", tc.name, e.ID, got[i], want[i])
			}
		}
		if tc.wantClocks >= 0 && wantClocks != tc.wantClocks {
			t.Fatalf("%s: the collector's stamps hold %d join clocks, poet_stamp_bases_total is %d", tc.name, wantClocks, tc.wantClocks)
		}
		if clocks != wantClocks || clocks == 0 || clocks == len(tc.decoded) {
			t.Fatalf("%s: %d decoded events hold %d join clocks, the collected ones %d", tc.name, len(tc.decoded), clocks, wantClocks)
		}
		t.Logf("%s: %d events, %d join clocks", tc.name, len(tc.decoded), clocks)
	}
}

// deltaPipe is a frameWriter feeding a frameReader through a buffer.
type deltaPipe struct {
	buf bytes.Buffer
	fw  *frameWriter
	fr  *frameReader
}

func newDeltaPipe() *deltaPipe {
	p := &deltaPipe{}
	p.fw = newFrameWriter(&p.buf)
	p.fr = &frameReader{br: bufio.NewReader(&p.buf)}
	return p
}

// export round-trips v, the timestamp of event id, as a delta-encoded
// export frame.
func (p *deltaPipe) export(t *testing.T, id event.ID, v vclock.Stamp) (vclock.Stamp, error) {
	t.Helper()
	p.fw.export(&shardExport{MsgID: 1, ID: id, VC: v}, true)
	if err := p.fw.flush(); err != nil {
		t.Fatal(err)
	}
	var f frame
	err := p.fr.next(&f)
	return f.exp.VC, err
}

// TestDeltaDecoderRejectsTickWithoutPrevious: a tick names no entries,
// only that the event shares its trace's previous join clock; a decoder
// that has no previous timestamp for the trace must fail loudly instead
// of stamping the event against nothing.
func TestDeltaDecoderRejectsTickWithoutPrevious(t *testing.T) {
	p := newDeltaPipe()
	first := vclock.VC{1, 4}.Stamp(0)
	// The writer believes it already sent first (as after a desync): the
	// next stamp of trace 0 goes out as a tick.
	p.fw.stamps = []vclock.Stamp{first}
	_, err := p.export(t, event.ID{Index: 2}, first.Tick(0))
	if !errors.Is(err, errDesync) || !strings.Contains(err.Error(), "out of sync") {
		t.Fatalf("tick without a previous stamp = %v, want out-of-sync error", err)
	}
	// A fresh connection spells the trace's first stamp as a join.
	p = newDeltaPipe()
	var prev vclock.Stamp
	for i, v := range []vclock.Stamp{first, first.Tick(0)} {
		got, err := p.export(t, event.ID{Index: i + 1}, v)
		if err != nil || !got.Equal(v) || got.Shares(prev) != (i == 1) {
			t.Fatalf("stamp %d decoded as %v (%v), want %v", i, got, err, v)
		}
		prev = got
	}
	if entries := p.fw.export(&shardExport{MsgID: 1, ID: event.ID{Index: 3}, VC: first.Tick(0).Tick(0)}, true); entries != 0 {
		t.Fatalf("a tick put %d entries on the wire, want none", entries)
	}
}

// TestDeltaDecoderRejectsRegressingEntry: along a trace a clock never
// shrinks, so a pair that lowers an entry is a desynchronized stream
// (TestFrameDecoderBounds holds the reader to the other regressions).
// The writer never spells one: a timestamp that does not extend its
// trace's previous one goes dense.
func TestDeltaDecoderRejectsRegressingEntry(t *testing.T) {
	p := newDeltaPipe()
	if _, err := p.export(t, event.ID{Index: 1}, vclock.VC{1, 5}.Stamp(0)); err != nil {
		t.Fatal(err)
	}
	// Spelled against a previous timestamp the reader never saw, (1, 3)
	// lowers entry 1.
	p.fw.stamps[0] = vclock.VC{1, 2}.Stamp(0)
	if _, err := p.export(t, event.ID{Index: 2}, vclock.VC{2, 3}.Stamp(0)); !errors.Is(err, errDesync) {
		t.Fatalf("a regressing pair decoded: %v, want out-of-sync error", err)
	}

	p = newDeltaPipe()
	stamps := []struct {
		id event.ID
		v  vclock.VC
	}{
		{event.ID{Index: 1}, vclock.VC{1, 0, 3}},
		{event.ID{Index: 2}, vclock.VC{2, 2, 3}},
		{event.ID{Index: 3}, vclock.VC{3}},       // entries 1 and 2 vanished: dense
		{event.ID{Index: 2}, vclock.VC{2, 2, 4}}, // the own entry did not rise: dense
		{event.ID{Index: 4}, vclock.VC{5, 3}},    // not the event's index: dense
		{event.ID{Index: 5}, vclock.VC{5, 4, 4}},
	}
	for i, s := range stamps {
		got, err := p.export(t, s.id, s.v.Stamp(0))
		if err != nil || !got.Equal(s.v.Stamp(0)) {
			t.Fatalf("frame %d decoded to %v (%v), want %v", i, got, err, s.v)
		}
	}
}

// TestWireStatsDeltaCounters sanity-checks the new wire accounting.
func TestWireStatsDeltaCounters(t *testing.T) {
	c, srv, addr := startServer(t)
	mon, err := DialMonitor(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()

	evs := durWorkload(20)
	reportAll(t, c, evs)
	got := drainMonitor(t, mon, len(evs))
	if len(got) != len(evs) {
		t.Fatalf("drained %d events, want %d", len(got), len(evs))
	}
	waitFor(t, func() bool {
		st := srv.WireStats()
		return st.MonitorBytes > 0 && st.VCEntriesSent > 0
	})
	st := srv.WireStats()
	// Dense would ship >= one entry per event per trace; the delta stream
	// must ship strictly fewer entries than the dense worst case.
	denseEntries := len(evs) * 2
	if st.VCEntriesSent >= denseEntries {
		t.Fatalf("delta stream sent %d VC entries, dense equivalent is %d — no compression",
			st.VCEntriesSent, denseEntries)
	}
}
