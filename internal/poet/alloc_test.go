package poet

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"runtime"
	"testing"

	"ocep/internal/event"
	"ocep/internal/event/eventtest"
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
// wire allocates its Text and nothing else that is not a share of a
// chunk — the event and its timestamp come from the reader's slab, the
// Type from the connection's string table.
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
		fw.event(e, true)
	})
	for i := 0; i < n; i++ {
		tr := i % traces
		kind, msg := event.KindSend, uint64(i/traces*traces+tr+1)
		if i/traces%2 == 1 {
			// Odd rounds receive what the neighbour sent the round before.
			kind, msg = event.KindReceive, uint64((i/traces-1)*traces+(tr+1)%traces+1)
		}
		raw := RawEvent{Trace: fmt.Sprintf("p%d", tr), Seq: i/traces + 1, Kind: kind, Type: "step", Text: fmt.Sprintf("payload-%d", i), MsgID: msg}
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
	if per > 1.1 {
		t.Fatalf("decoding a delivered event costs %.4f allocations, want <= 1.1 (its Text)", per)
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
		fw.event(evs[i%len(evs)], true)
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

// TestQueuePushAllocs: the delivery queue's private copy of an event
// comes from the queue's slab.
func TestQueuePushAllocs(t *testing.T) {
	const n = 20000
	q := newQueue(func([]*event.Event) {}, AsyncOptions{QueueDepth: n}, queueMetrics{})
	e := &event.Event{ID: event.ID{Trace: 0, Index: 1}, Kind: event.KindInternal, Type: "step"}
	// No consumer runs: the buffer holds every push.
	per := mallocsPer(t, n, func() { q.push(e, "p0") })
	t.Logf("allocs per push: %.4f", per)
	if per > 0.1 {
		t.Fatalf("queue.push costs %.4f allocations per event, want <= 0.1", per)
	}
	at := func(i int) *event.Event { return q.buf.span(i)[0] }
	if q.buf.len() != n || at(0) == at(1) || at(0) == e || at(n-1).ID != e.ID {
		t.Fatalf("the queue holds %d events, want %d private copies", q.buf.len(), n)
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
		fw.event(e, true)
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
