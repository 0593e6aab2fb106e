package poet

import (
	"bufio"
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"ocep/internal/event"
	"ocep/internal/event/eventtest"
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

// export round-trips vc as a delta-encoded export frame.
func (p *deltaPipe) export(t *testing.T, vc vclock.VC) (vclock.Stamp, error) {
	t.Helper()
	p.fw.export(&shardExport{MsgID: 1, ID: event.ID{Index: 1}, VC: vc.Stamp(0)}, true)
	if err := p.fw.flush(); err != nil {
		t.Fatal(err)
	}
	var f frame
	err := p.fr.next(&f)
	return f.exp.VC, err
}

// TestDeltaDecoderRejectsMissingBaseline: a decoder that never saw a
// baseline frame must fail loudly instead of stamping events against a
// garbage baseline.
func TestDeltaDecoderRejectsMissingBaseline(t *testing.T) {
	p := newDeltaPipe()
	// The writer believes it already sent its baseline (as after a
	// desync): its next frame is a bare delta.
	p.fw.sent = true
	_, err := p.export(t, vclock.VC{1})
	if !errors.Is(err, errNoBaseline) || !strings.Contains(err.Error(), "out of sync") {
		t.Fatalf("decode without baseline = %v, want out-of-sync error", err)
	}
	// A baseline frame recovers it.
	p.fw.sent, p.fw.base, p.fw.last = false, nil, vclock.Stamp{}
	vc, err := p.export(t, vclock.VC{1})
	if err != nil || vc.Get(0) != 1 {
		t.Fatalf("decode of baseline frame = %v, %v", vc, err)
	}
}

// TestDeltaCodecVanishedEntries round-trips a sequence whose timestamps
// are not per-component monotone (entries drop back to zero between
// consecutive frames), which the encoder must spell as explicit (t, 0)
// entries.
func TestDeltaCodecVanishedEntries(t *testing.T) {
	stamps := []vclock.VC{
		{1, 0, 3},
		{0, 2, 3}, // entry 0 vanished
		{4},       // entries 1 and 2 vanished
		{},        // everything vanished
		{0, 0, 0, 9},
	}
	p := newDeltaPipe()
	for i, vc := range stamps {
		got, err := p.export(t, vc)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !got.Equal(vc.Stamp(0)) {
			t.Fatalf("frame %d decoded to %v, want %v", i, got, vc)
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
