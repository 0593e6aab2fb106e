package poet

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"ocep/internal/event"
	"ocep/internal/event/eventtest"
	"ocep/internal/fifo"
	"ocep/internal/vclock"
)

// mallocsPer runs f n times and returns the heap allocations per call,
// from runtime.MemStats (testing.AllocsPerRun truncates to an integer:
// it cannot see a budget below one).
func mallocsPer(t *testing.T, n int, f func()) float64 {
	t.Helper()
	if raceEnabled {
		t.Skip("the race detector changes what allocates")
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// liveHeap returns the bytes of heap still reachable after a collection.
func liveHeap() int64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC() // a second cycle frees what the first one's sweep made unreachable
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// TestReportAllocs pins what Collector.Report allocates per event with
// no subscriber: a share of an event chunk, a clock chunk and the
// amortized growth of the store, the order log and the message maps —
// under a tenth of an allocation, where the event and its stamp used to
// be two. A receive reported ahead of its send is buffered and parked on
// a recycled waiter list, and costs no more.
func TestReportAllocs(t *testing.T) {
	const (
		traces = 8
		warm   = 4096
		runs   = 20000
	)
	for _, tc := range []struct {
		name    string
		journal bool
		budget  float64
	}{{"no journal", false, 0.1}, {"journal", true, 0.15}} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCollector()
			defer c.Close()
			if tc.journal {
				if err := c.EnableReplicationLog(); err != nil {
					t.Fatal(err)
				}
			}
			names := make([]string, traces)
			seqs := make([]int, traces)
			for i := range names {
				names[i] = fmt.Sprintf("p%d", i)
				c.RegisterTrace(names[i])
			}
			var msg uint64
			raw := func(tr int, kind event.Kind) RawEvent {
				seqs[tr]++
				r := RawEvent{Trace: names[tr], Seq: seqs[tr], Kind: kind, Type: "step"}
				if kind != event.KindInternal {
					r.MsgID = msg
				}
				return r
			}
			report := func(r RawEvent) {
				if err := c.Report(r); err != nil {
					t.Fatal(err)
				}
			}
			// Warm: every clock as wide as it will get, the maps past their
			// early doublings, one waiter list to recycle.
			for i := 0; i < warm; i++ {
				msg++
				send, recv := raw(i%traces, event.KindSend), raw((i+1)%traces, event.KindReceive)
				if i%2 == 0 {
					send, recv = recv, send
				}
				report(send)
				report(recv)
			}
			i := 0
			internal := mallocsPer(t, runs, func() { report(raw(i%traces, event.KindInternal)); i++ })
			sent := mallocsPer(t, runs, func() { msg++; report(raw(i%traces, event.KindSend)); i++ })
			pair := mallocsPer(t, runs, func() {
				msg++
				report(raw(i%traces, event.KindSend))
				report(raw((i+1)%traces, event.KindReceive))
				i++
			})
			ahead := mallocsPer(t, runs, func() {
				msg++
				send, recv := raw(i%traces, event.KindSend), raw((i+1)%traces, event.KindReceive)
				report(recv)
				report(send)
				i++
			})
			received, receivedAhead := pair-sent, ahead-sent
			t.Logf("allocs per event: internal %.4f, sent %.4f, received %.4f, received ahead of its send %.4f",
				internal, sent, received, receivedAhead)
			for _, got := range []float64{internal, sent, received, receivedAhead} {
				if got > tc.budget {
					t.Fatalf("an event costs %.4f allocations in Report, budget %.2f", got, tc.budget)
				}
			}
			if c.Pending() != 0 || c.Delivered() != 2*warm+6*runs {
				t.Fatalf("delivered %d of %d events, %d pending", c.Delivered(), 2*warm+6*runs, c.Pending())
			}
		})
	}
}

// TestFrameDecodeAllocs: decoding a delta-stamped delivered event off the
// wire allocates nothing that is not a share of a chunk — the event and
// its timestamp come from the reader's slab, the Type and the Text from
// the connection's string table (the texts repeat, as a pattern's
// attributes do; TestStringTableBound streams unique ones).
func TestFrameDecodeAllocs(t *testing.T) {
	const (
		traces = 32
		n      = 20000
	)
	var wire bytes.Buffer
	fw := newFrameWriter(&wire)
	c := NewCollector()
	announced := make([]bool, traces)
	c.Subscribe(func(e *event.Event) {
		if !announced[e.ID.Trace] {
			announced[e.ID.Trace] = true
			fw.trace(e.ID.Trace, c.Store().TraceName(e.ID.Trace))
		}
		fw.event(e, e.Partner, true)
	})
	for i := 0; i < n; i++ {
		tr := i % traces
		kind, msg := event.KindSend, uint64(i/traces*traces+tr+1)
		if i/traces%2 == 1 {
			// Odd rounds receive what the neighbour sent the round before.
			kind, msg = event.KindReceive, uint64((i/traces-1)*traces+(tr+1)%traces+1)
		}
		raw := RawEvent{Trace: fmt.Sprintf("p%d", tr), Seq: i/traces + 1, Kind: kind, Type: "step", Text: fmt.Sprintf("payload-%d", i%100), MsgID: msg}
		if err := c.Report(raw); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.flush(); err != nil {
		t.Fatal(err)
	}
	fr := &frameReader{br: bufio.NewReaderSize(bytes.NewReader(wire.Bytes()), frameBufSize)}
	var f frame
	events := 0
	per := mallocsPer(t, n, func() {
		for {
			if err := fr.next(&f); err != nil {
				t.Fatal(err)
			}
			if f.kind == frameEvent {
				events++
				return
			}
		}
	})
	want := c.Ordered()[n-1]
	if f.ev.ID != want.ID || !f.ev.VC.Equal(want.VC) || f.ev.Text != want.Text {
		t.Fatalf("last decoded event %v, want %v", f.ev, want)
	}
	t.Logf("allocs per decoded event: %.4f", per)
	if per > 0.1 {
		t.Fatalf("decoding a delivered event costs %.4f allocations, want <= 0.1", per)
	}
}

// TestFrameEncodeAllocs: framing allocates nothing once the string table
// and the frame body have warmed — not the length prefix, which escaped
// through the buffered writer as a local, one allocation per frame on
// every reporter, monitor, replica and export stream.
func TestFrameEncodeAllocs(t *testing.T) {
	const n = 20000
	fw := newFrameWriter(io.Discard)
	evs := make([]*event.Event, 64)
	raws := make([]RawEvent, len(evs))
	for i := range evs {
		vc := make(vclock.VC, 32)
		vc[i%32] = int32(i)
		evs[i] = &event.Event{ID: event.ID{Trace: event.TraceID(i % 32), Index: i + 1}, Kind: event.KindSend, Type: "step", Text: "payload", VC: vc.Stamp(i % 32)}
		raws[i] = RawEvent{Trace: fmt.Sprintf("p%d", i%32), Seq: i + 1, Kind: event.KindSend, Type: "step", Text: "payload", MsgID: uint64(i + 1)}
	}
	frame := func(i int) {
		fw.event(evs[i%len(evs)], evs[i%len(evs)].Partner, true)
		fw.raw(&raws[i%len(raws)])
		fw.export(&shardExport{MsgID: uint64(i), ID: evs[i%len(evs)].ID, VC: evs[i%len(evs)].VC}, true)
	}
	for i := range evs {
		frame(i)
	}
	i := 0
	per := mallocsPer(t, n, func() { frame(i); i++ }) / 3
	if err := fw.flush(); err != nil {
		t.Fatal(err)
	}
	t.Logf("allocs per frame: %.4f", per)
	if per > 0.01 {
		t.Fatalf("framing costs %.4f allocations per frame, want <= 0.01", per)
	}
}

// ringReporter reports a ring of send/receive pairs over traces, one
// pair per call, each receive naming the previous send.
func ringReporter(t *testing.T, c *Collector, traces int) func() {
	seqs, names := make([]int, traces), make([]string, traces)
	for tr := range names {
		names[tr] = fmt.Sprintf("p%d", tr)
	}
	i := 0
	report := func(tr int, kind event.Kind) {
		seqs[tr]++
		r := RawEvent{Trace: names[tr], Seq: seqs[tr], Kind: kind, Type: "step", MsgID: uint64(i + 1)}
		if err := c.Report(r); err != nil {
			t.Fatal(err)
		}
	}
	return func() {
		report(i%traces, event.KindSend)
		report((i+1)%traces, event.KindReceive)
		i++
	}
}

// TestCursorDeliveryAllocs: a batch subscriber framing every event for
// the wire, as a monitor connection does, adds no allocation per event
// to what Report makes alone. The handler is handed the collector's own
// events, cut from its delivery log: no private copy, no queue slot, no
// batch slice. (The queue it replaces copied every event into a slab and
// made a slice per cut.)
func TestCursorDeliveryAllocs(t *testing.T) {
	const (
		traces = 8
		warm   = 4096
		rounds = 200
		pairs  = 100 // per round
	)
	perEvent := func(subscribe bool) float64 {
		c := NewCollector()
		defer c.Close()
		pair := ringReporter(t, c, traces)
		flush := func() {}
		if subscribe {
			fw := newFrameWriter(io.Discard)
			sub := c.SubscribeBatch(func(batch []*event.Event) {
				for _, e := range batch {
					fw.event(e, readablePartner(e), true)
				}
			}, AsyncOptions{OnTrace: func(id event.TraceID, name string) { fw.trace(id, name) }})
			flush = sub.Flush
		}
		for i := 0; i < warm; i++ {
			pair()
		}
		flush()
		return mallocsPer(t, rounds, func() {
			for i := 0; i < pairs; i++ {
				pair()
			}
			flush()
		}) / (2 * pairs)
	}
	alone, subscribed := perEvent(false), perEvent(true)
	t.Logf("allocs per event: Report alone %.4f, with a framing batch subscriber %.4f", alone, subscribed)
	if subscribed-alone > 0.01 {
		t.Fatalf("a batch subscriber adds %.4f allocations per event, want <= 0.01", subscribed-alone)
	}
}

// TestSubscribeReplayFromAllocs: resuming a batch subscriber at offset 0
// costs the same allocations on a collector holding 100 k events as on
// one holding 1 k, drain included — the subscriber is a position in the
// delivery log, not a copy of it made under the ingest lock.
func TestSubscribeReplayFromAllocs(t *testing.T) {
	per := func(events int) float64 {
		c := NewCollector()
		pair := ringReporter(t, c, 8)
		for i := 0; i < events/2; i++ {
			pair()
		}
		handled := 0
		got := mallocsPer(t, 20, func() {
			sub, err := c.SubscribeBatchReplayFrom(0, func(b []*event.Event) { handled += len(b) }, AsyncOptions{})
			if err != nil {
				t.Fatal(err)
			}
			sub.Cancel() // drains the whole history
		})
		if handled != 20*events {
			t.Fatalf("the subscribers handled %d events, want %d", handled, 20*events)
		}
		return got
	}
	small, large := per(1000), per(100_000)
	t.Logf("allocs per replaying subscription: 1 k events %.2f, 100 k events %.2f", small, large)
	if large > small+0.5 {
		t.Fatalf("subscribing at offset 0 to 100 k events costs %.2f allocations, to 1 k events %.2f: the history is copied", large, small)
	}
}

// TestStampHeapPerEvent pins what stamps cost where a 128-trace ring
// materialises them: in the collector, and in a delta decoder whose
// events a monitor keeps. One event in ten is a receive; the nine
// between share their trace's join clock on both sides (290 B per event
// retained, Linux amd64, Go 1.24). Before stamps were shared both sides
// held a full clock per event, the decoder's as wide as the widest clock
// on its connection: 1 139.9 B; the budget is 60 % of that.
func TestStampHeapPerEvent(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes heap sizes")
	}
	const (
		traces = 128
		rounds = 100
		n      = traces * rounds * 10
		budget = 0.6 * 1139.9
	)
	var wire bytes.Buffer
	before := liveHeap()
	c := NewCollector()
	fw := newFrameWriter(&wire)
	c.Subscribe(func(e *event.Event) {
		if e.ID.Index == 1 {
			fw.trace(e.ID.Trace, c.Store().TraceName(e.ID.Trace))
		}
		fw.event(e, e.Partner, true)
	})
	msg := func(round, tr int) uint64 { return uint64(round*traces+tr) + 1 }
	for r := 0; r < rounds; r++ {
		for tr := 0; tr < traces; tr++ {
			name, seq := fmt.Sprintf("p%d", tr), r*10
			report := func(kind event.Kind, m uint64) {
				seq++
				if err := c.Report(RawEvent{Trace: name, Seq: seq, Kind: kind, Type: "work", MsgID: m}); err != nil {
					t.Fatal(err)
				}
			}
			if r == 0 {
				report(event.KindInternal, 0) // nothing to receive yet
			} else {
				report(event.KindReceive, msg(r-1, (tr+traces-1)%traces))
			}
			for k := 0; k < 8; k++ {
				report(event.KindInternal, 0)
			}
			report(event.KindSend, msg(r, tr))
		}
	}
	if err := fw.flush(); err != nil {
		t.Fatal(err)
	}
	fr := &frameReader{br: bufio.NewReaderSize(bytes.NewReader(wire.Bytes()), frameBufSize)}
	decoded := make([]*event.Event, 0, n)
	for len(decoded) < n {
		var f frame
		if err := fr.next(&f); err != nil {
			t.Fatal(err)
		}
		if f.kind == frameEvent {
			decoded = append(decoded, f.ev)
		}
	}
	fr, fw, wire = nil, nil, bytes.Buffer{}
	per := float64(liveHeap()-before) / n
	t.Logf("%.1f B retained per event by the collector and the decoded stream together", per)
	if err := eventtest.CheckStamps(decoded); err != nil {
		t.Fatal(err)
	}
	if per > budget {
		t.Errorf("%.1f B retained per event, budget %.1f", per, budget)
	}
	runtime.KeepAlive(c)
	runtime.KeepAlive(decoded)
}

// TestStampHeapPerEventPaired pins the join clocks of the deadlock
// shape: 32 traces in fixed pairs, p2k and p2k+1 trading a message every
// round, a third of the events receives. A join clock stores only its
// window, two entries here whatever the pair's trace IDs, so it costs
// its two-word header and two entries: 16 B. Dense from trace 0, pair
// k's clocks cost (2k+3)×4 B, 72 B on average. The test keeps the
// stamps alone, of the collector's events and of the events a delta
// decoder reads from its stream, and weighs what their join clocks
// retain per join, slab slack included; the budget is 16 B and a
// quarter.
func TestStampHeapPerEventPaired(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes heap sizes")
	}
	const (
		traces = 32
		rounds = 300
		n      = traces * rounds * 3
		joins  = 2 * traces * (rounds - 1) // the collector's and the decoder's
		budget = (2 + 2) * 4 * 1.25
	)
	stamps := make([]vclock.Stamp, 0, 2*n)
	var wire bytes.Buffer
	before := liveHeap()
	c := NewCollector()
	fw := newFrameWriter(&wire)
	c.Subscribe(func(e *event.Event) {
		if e.ID.Index == 1 {
			fw.trace(e.ID.Trace, c.Store().TraceName(e.ID.Trace))
		}
		fw.event(e, e.Partner, true)
	})
	msg := func(round, tr int) uint64 { return uint64(round*traces+tr) + 1 }
	for r := 0; r < rounds; r++ {
		for tr := 0; tr < traces; tr++ {
			name, seq := fmt.Sprintf("p%d", tr), r*3
			report := func(kind event.Kind, m uint64) {
				seq++
				if err := c.Report(RawEvent{Trace: name, Seq: seq, Kind: kind, Type: "work", MsgID: m}); err != nil {
					t.Fatal(err)
				}
			}
			if r == 0 {
				report(event.KindInternal, 0) // nothing to receive yet
			} else {
				report(event.KindReceive, msg(r-1, tr^1))
			}
			report(event.KindInternal, 0)
			report(event.KindSend, msg(r, tr))
		}
	}
	if err := fw.flush(); err != nil {
		t.Fatal(err)
	}
	fr := &frameReader{br: bufio.NewReaderSize(bytes.NewReader(wire.Bytes()), frameBufSize)}
	decoded := make([]*event.Event, 0, n)
	for len(decoded) < n {
		var f frame
		if err := fr.next(&f); err != nil {
			t.Fatal(err)
		}
		if f.kind == frameEvent {
			decoded = append(decoded, f.ev)
		}
	}
	if err := eventtest.CheckStamps(decoded); err != nil {
		t.Fatal(err)
	}
	for i, e := range c.Ordered() {
		if !e.VC.Equal(decoded[i].VC) {
			t.Fatalf("event %v: collected %v, decoded %v", e.ID, e.VC, decoded[i].VC)
		}
		stamps = append(stamps, e.VC, decoded[i].VC)
	}
	c, fr, fw, wire, decoded = nil, nil, nil, bytes.Buffer{}, nil
	per := float64(liveHeap()-before) / joins
	t.Logf("%.1f B of join clock retained per join", per)
	if per > budget {
		t.Errorf("%.1f B of join clock retained per join, budget %.1f", per, budget)
	}
	runtime.KeepAlive(stamps)
}

// TestCollectorHeapPerEvent pins the bytes a collector with no journal
// and no subscriber retains per in-order event: the slabs may not cost
// more than the per-event objects they replaced did (163.6 B over 21
// traces and 383.7 B over 128 before them).
func TestCollectorHeapPerEvent(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes heap sizes")
	}
	const n = 120000
	for _, tc := range []struct {
		traces int
		budget float64
	}{{21, 163.6}, {128, 383.7}} {
		names := make([]string, tc.traces)
		for i := range names {
			names[i] = fmt.Sprintf("p%d", i)
		}
		before := liveHeap()
		c := NewCollector()
		for i := 0; i < n; i++ {
			// Internal events, round-robin: trace t's clock is t+1 wide.
			raw := RawEvent{Trace: names[i%tc.traces], Seq: i/tc.traces + 1, Kind: event.KindInternal, Type: "step"}
			if err := c.Report(raw); err != nil {
				t.Fatal(err)
			}
		}
		per := float64(liveHeap()-before) / n
		t.Logf("%d traces: %.1f B retained per event", tc.traces, per)
		if per > tc.budget {
			t.Errorf("%d traces: %.1f B retained per event, budget %.1f", tc.traces, per, tc.budget)
		}
		runtime.KeepAlive(c)
	}
}

// ringStream is n events (rounded up to whole rounds) on a ring of
// traces: each round every trace receives its predecessor's last send,
// logs eight internal events and sends.
func ringStream(traces, n int) []RawEvent {
	var evs []RawEvent
	for r := 0; len(evs) < n; r++ {
		for tr := 0; tr < traces; tr++ {
			name, seq := fmt.Sprintf("p%d", tr), r*10
			add := func(kind event.Kind, msg uint64) {
				seq++
				evs = append(evs, RawEvent{Trace: name, Seq: seq, Kind: kind, Type: "work", MsgID: msg})
			}
			if r == 0 {
				add(event.KindInternal, 0)
			} else {
				add(event.KindReceive, uint64((r-1)*traces+(tr+traces-1)%traces)+1)
			}
			for k := 0; k < 8; k++ {
				add(event.KindInternal, 0)
			}
			add(event.KindSend, uint64(r*traces+tr)+1)
		}
	}
	return evs
}

// TestJournalBytesPerEvent pins what the journal holds per event on a
// 100 000-event ring, both as the journal counts itself
// (ReplicationStats.JournalBytes) and as the live heap sees it beside a
// collector that keeps none. Through its chunk's string table a record
// spells a repeating string as a one-byte reference: where trace, type
// and text repeat, a record is its integers, three reference bytes and a
// length byte, plus 2 B; where every text is new, it is at most the
// literal spelling plus 2 B (the length byte and the text's reference
// 0). Each budget has one chunk, and the heap's one chunk's table, of
// slack. A journal of RawEvent structs held 80 B a record, and the
// literal spelling 14.8 B on the ring.
func TestJournalBytesPerEvent(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes heap sizes")
	}
	ring := ringStream(32, 100000)
	unique := append([]RawEvent(nil), ring...)
	for i := range unique {
		unique[i].Text = fmt.Sprintf("payload-%d", i)
	}
	for _, w := range []struct {
		name string
		evs  []RawEvent
		per  func(raw *RawEvent) int // a record's budget
	}{
		{"repeating", ring, func(raw *RawEvent) int {
			return len(literalRecord(raw)) - len(raw.Trace) - len(raw.Type) - len(raw.Text) + 1 + 2
		}},
		{"unique-text", unique, func(raw *RawEvent) int { return len(literalRecord(raw)) + 2 }},
	} {
		evs := w.evs
		literal, budget := 0, fifo.ChunkBytes
		for i := range evs {
			literal += len(literalRecord(&evs[i]))
			budget += w.per(&evs[i])
		}
		held := func(journal bool) (int64, ReplicationStats) {
			before := liveHeap()
			c := NewCollector()
			if journal {
				if err := c.EnableReplicationLog(); err != nil {
					t.Fatal(err)
				}
			}
			for _, e := range evs {
				if err := c.Report(e); err != nil {
					t.Fatal(err)
				}
			}
			heap := liveHeap() - before
			runtime.KeepAlive(c)
			return heap, c.ReplicationStats()
		}
		withJournal, st := held(true)
		without, _ := held(false)
		runtime.KeepAlive(evs) // or the second collector's heap is net of the stream's
		n := float64(len(evs))
		t.Logf("%s: %d events, literal records %.1f B each; the journal counts %.1f B and the heap %.1f B per record, budget %.1f",
			w.name, len(evs), float64(literal)/n, float64(st.JournalBytes)/n, float64(withJournal-without)/n, float64(budget)/n)
		if st.Records != len(evs) || st.JournalBytes > budget {
			t.Errorf("%s: the journal of %d records counts %d bytes, budget %d", w.name, st.Records, st.JournalBytes, budget)
		}
		if tab := int64(maxInterned) * 64; withJournal-without > int64(budget)+tab {
			t.Errorf("%s: the journal holds %d bytes of heap, budget %d and a table's %d", w.name, withJournal-without, budget, tab)
		}
	}
}

// TestReplicaTranscodeAllocs: streaming journal records to a replica
// through a warm frameWriter allocates nothing per record — no RawEvent
// is built and no string copied — and frames them byte for byte as the
// RawEvent path did (raw, traceReg and export frames on a twin writer).
func TestReplicaTranscodeAllocs(t *testing.T) {
	const n = 10000
	rng := rand.New(rand.NewSource(5))
	var j journal
	model := make([]jrec, n)
	for i := range model {
		r := jrec{RawEvent: RawEvent{Trace: fmt.Sprintf("p%d", i%32), Seq: i/32 + 1, Kind: event.Kind(i % 3), Type: "step", Text: fmt.Sprintf("payload-%d", rng.Intn(1000)), MsgID: uint64(i)}}
		switch {
		case i%500 == 7:
			r = jrec{RawEvent: RawEvent{Trace: fmt.Sprintf("reg%d", i)}}
		case i%100 == 3:
			r = jrec{remote: true, x: shardExport{MsgID: uint64(i), ID: event.ID{Trace: 1, Index: i}, VC: vclock.VC{int32(i), 2}.Stamp(1)}}
		case i%1000 == 11:
			r.Type = strings.Repeat("t", 300) // past the table: spelled out every time
		}
		model[i] = r
		j.add(r)
	}
	stream := func(fw *frameWriter) (events int) {
		for sp, cur := j.span(journalCursor{}); len(sp.b) > 0; sp, cur = j.span(cur) {
			events += fw.replicate(sp, true)
		}
		return events
	}
	var got, want bytes.Buffer
	fw, twin := newFrameWriter(&got), newFrameWriter(&want)
	if events, want := stream(fw), j.events(); events != want {
		t.Fatalf("streamed %d event records of %d", events, want)
	}
	for i := range model {
		switch r := &model[i]; {
		case r.remote:
			twin.export(&r.x, false)
		default:
			twin.raw(&r.RawEvent)
		}
	}
	if err := errors.Join(fw.flush(), twin.flush()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("the transcoded stream (%d bytes) differs from the RawEvent path's (%d bytes)", got.Len(), want.Len())
	}
	warm := newFrameWriter(io.Discard)
	stream(warm)
	per := mallocsPer(t, 1, func() { stream(warm) }) / n
	t.Logf("allocs per streamed record: %.4f", per)
	if per > 0.01 {
		t.Fatalf("streaming a journal record to a replica costs %.4f allocations, want <= 0.01", per)
	}
}

// BenchmarkReplicateSpan streams a 100 000-event ring journal, with
// texts from a small set, to a replica connection through a warm
// frameWriter: the transcode from each journal chunk's string table to
// the connection's, per record.
func BenchmarkReplicateSpan(b *testing.B) {
	j := journal{strs: make(stringTable)}
	for i, e := range ringStream(32, 100000) {
		e.Text = fmt.Sprintf("t%d", i%16)
		j.record(nil, &e, nil)
	}
	fw := newFrameWriter(io.Discard)
	stream := func() {
		for sp, cur := j.span(journalCursor{}); len(sp.b) > 0; sp, cur = j.span(cur) {
			fw.replicate(sp, true)
		}
	}
	stream()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stream()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*j.n), "ns/record")
}
