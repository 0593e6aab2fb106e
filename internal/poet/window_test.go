package poet

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"
	"unsafe"

	"ocep/internal/event"
	"ocep/internal/fifo"
)

// windowModel is the reporter's window as one plain slice, pruned the
// way the window was before it was chunked: on every pass after an ack
// advanced, every acked entry, wherever it sits.
type windowModel struct {
	evs   []RawEvent
	sent  int
	acks  map[string]int
	moved bool
	stats ReporterStats
}

func (m *windowModel) applyAcks(acks []traceAck) {
	for _, a := range acks {
		if a.Seq > m.acks[a.Trace] {
			m.acks[a.Trace] = a.Seq
			m.moved = true
		}
	}
}

func (m *windowModel) prune() {
	if !m.moved {
		return
	}
	m.moved = false
	var kept []RawEvent
	sent := 0
	for i, ev := range m.evs {
		if ev.Seq <= m.acks[ev.Trace] {
			m.stats.Acked++
			continue
		}
		if i < m.sent {
			sent++
		}
		kept = append(kept, ev)
	}
	m.evs, m.sent = kept, sent
}

func (m *windowModel) hello() (names []string, covered int) {
	for _, ev := range m.evs {
		if !slices.Contains(names, ev.Trace) {
			names = append(names, ev.Trace)
		}
	}
	return names, len(m.evs)
}

func (m *windowModel) resume(acks []traceAck, covered int) {
	m.applyAcks(acks)
	m.sent = 0
	for _, ev := range m.evs[:covered] {
		if ev.Seq > m.acks[ev.Trace] {
			m.stats.Retransmits++
		}
	}
	m.stats.Reconnects++
}

// ingestModel is the server side of a script: each connection's events
// in flight, oldest connection first, and every trace's ingested Seqs.
// A connection delivers its flight in order, and a cut loses a suffix of
// it; what survives may still be ingested after the reconnect.
type ingestModel struct {
	flights [][]RawEvent
	got     map[string]map[int]bool
	acked   map[string]int
}

func (s *ingestModel) ingest(rng *rand.Rand, k int) {
	for ; k > 0; k-- {
		var live []int
		for i, f := range s.flights {
			if len(f) > 0 {
				live = append(live, i)
			}
		}
		if len(live) == 0 {
			return
		}
		f := &s.flights[live[rng.Intn(len(live))]]
		ev := (*f)[0]
		*f = (*f)[1:]
		if s.got[ev.Trace] == nil {
			s.got[ev.Trace] = map[int]bool{}
		}
		s.got[ev.Trace][ev.Seq] = true
		for s.got[ev.Trace][s.acked[ev.Trace]+1] {
			s.acked[ev.Trace]++
		}
	}
}

// acksFor answers for the named traces, or for every trace.
func (s *ingestModel) acksFor(names []string) []traceAck {
	if names == nil {
		for n := range s.acked {
			names = append(names, n)
		}
		sort.Strings(names)
	}
	out := make([]traceAck, 0, len(names))
	for _, n := range names {
		out = append(out, traceAck{Trace: n, Seq: s.acked[n]})
	}
	return out
}

// windowScript returns traces × perTrace internal events whose Seqs run
// in order per trace except for seeded local displacements, interleaved
// across traces at random.
func windowScript(rng *rand.Rand, traces, perTrace int) []RawEvent {
	lists := make([][]int, traces)
	for tr := range lists {
		seqs := make([]int, perTrace)
		for i := range seqs {
			seqs[i] = i + 1
		}
		for i := 0; i+1 < perTrace; i++ {
			if rng.Intn(20) == 0 {
				j := min(perTrace-1, i+1+rng.Intn(5))
				seqs[i], seqs[j] = seqs[j], seqs[i]
			}
		}
		lists[tr] = seqs
	}
	var out []RawEvent
	for len(out) < traces*perTrace {
		tr := rng.Intn(traces)
		if len(lists[tr]) == 0 {
			continue
		}
		out = append(out, RawEvent{Trace: fmt.Sprintf("p%d", tr), Seq: lists[tr][0], Kind: event.KindInternal, Type: "x"})
		lists[tr] = lists[tr][1:]
	}
	return out
}

// TestReporterWindowMatchesModel runs seeded scripts — reports with
// out-of-order Seqs within a trace, sender passes with acks landing
// between claiming a span and encoding it, server ingestion across old
// and new connections, acks, and reconnects that lose part of what was
// in flight — against the reporter's own window code and against a
// plain-slice model. After every step they must hold the same entries,
// so no acked entry is left behind an unacked one to count toward the
// bound or go out again; and they must agree on the hello's names, the
// retransmit counts, ReporterStats and the Flush outcome. The wire case
// runs the same kind of input through a real server whose link is cut
// mid-stream, concurrently, for the race detector.
func TestReporterWindowMatchesModel(t *testing.T) {
	bound := 3 * fifo.ChunkCap[RawEvent]() / 2 // spans chunks, and the scripts fill it
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		events := windowScript(rng, 1+rng.Intn(5), 300+rng.Intn(300))
		r := &Reporter{cfg: defaultRepCfg(), acks: map[string]int{}}
		r.cfg.buffer = bound
		r.cond = sync.NewCond(&r.mu)
		m := &windowModel{acks: map[string]int{}}
		srv := &ingestModel{flights: [][]RawEvent{nil}, got: map[string]map[int]bool{}, acked: map[string]int{}}

		fail := func(step int, format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d step %d: %s", seed, step, fmt.Sprintf(format, args...))
		}
		check := func(step int) {
			t.Helper()
			r.mu.Lock()
			defer r.mu.Unlock()
			var got []RawEvent
			for i := 0; i < r.window.Len(); i++ {
				got = append(got, *r.window.At(i))
			}
			if !slices.Equal(got, m.evs) || r.sent != m.sent {
				fail(step, "window holds %d entries (%d sent), model %d (%d sent)", len(got), r.sent, len(m.evs), m.sent)
			}
			if r.stats != m.stats {
				fail(step, "stats %+v, model %+v", r.stats, m.stats)
			}
		}
		// reportSome reports up to k events while the model's window has
		// room; the model's window is the reporter's, so Report never
		// blocks.
		reportSome := func(k int) error {
			for ; k > 0 && len(events) > 0 && len(m.evs) < bound; k-- {
				if err := r.Report(events[0]); err != nil {
					return err
				}
				m.evs = append(m.evs, events[0])
				m.stats.Reported++
				events = events[1:]
			}
			return nil
		}
		report := func(step, k int) {
			if err := reportSome(k); err != nil {
				fail(step, "report: %v", err)
			}
		}
		ack := func() {
			acks := srv.acksFor(nil)
			r.mu.Lock()
			r.applyAcksLocked(acks)
			r.mu.Unlock()
			m.applyAcks(acks)
		}
		// send is the sender's loop: prune, claim a chunk's unsent
		// entries, encode them, until nothing is unsent. The model claims
		// everything at once, and prunes again once the acks that landed
		// mid-claim are in.
		send := func() {
			m.prune()
			m.sent = len(m.evs)
			for {
				r.mu.Lock()
				r.pruneLocked()
				claim, _ := r.claimLocked()
				r.mu.Unlock()
				if len(claim) == 0 {
					break
				}
				if rng.Intn(3) == 0 {
					srv.ingest(rng, rng.Intn(400))
					ack()
				}
				live := &srv.flights[len(srv.flights)-1]
				*live = append(*live, claim...)
			}
			m.prune()
		}
		// reconnect cuts the live session, losing a suffix of its flight
		// or not, and runs the reporter's handshake against a peer that
		// reads the hello, lets Report run while its answer is on the way,
		// and answers with what the server has ingested.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		var conns []net.Conn
		t.Cleanup(func() {
			_ = ln.Close()
			for _, c := range conns {
				_ = c.Close()
			}
		})
		type answer struct {
			conn  net.Conn
			names []string
			acks  []traceAck
			err   error
		}
		reconnect := func(step int, lose bool) {
			if live := &srv.flights[len(srv.flights)-1]; lose {
				*live = (*live)[:rng.Intn(len(*live)+1)]
			}
			srv.flights = append(srv.flights, nil)
			for _, c := range conns {
				_ = c.Close()
			}
			mNames, mCovered := m.hello()
			during := 0
			if rng.Intn(3) == 0 {
				during = rng.Intn(20)
			}
			answered := make(chan answer, 1)
			go func() {
				var a answer
				defer func() { answered <- a }()
				if a.conn, a.err = ln.Accept(); a.err != nil {
					return
				}
				var f frame
				if a.err = (&frameReader{br: bufio.NewReader(a.conn)}).next(&f); a.err != nil {
					return
				}
				if a.names = f.hello.traces; len(a.names) > 0 {
					a.acks = srv.acksFor(a.names)
				}
				if a.err = reportSome(during); a.err != nil {
					return
				}
				fw := newFrameWriter(a.conn)
				fw.acks(a.acks)
				a.err = fw.flush()
			}()
			c, retrans, err := r.handshake(ln.Addr().String())
			a := <-answered
			if err != nil || a.err != nil {
				fail(step, "handshake: %v; peer: %v", err, a.err)
			}
			conns = append(conns[:0], c, a.conn)
			if !slices.Equal(a.names, mNames) {
				fail(step, "hello names %v, model %v", a.names, mNames)
			}
			r.mu.Lock()
			r.stats.Reconnects++
			r.stats.Retransmits += retrans
			r.mu.Unlock()
			m.resume(a.acks, mCovered)
		}

		step := 0
		for ; step < 300; step++ {
			switch op := rng.Intn(10); {
			case op < 4:
				report(step, 1+rng.Intn(120))
			case op < 6:
				send()
			case op < 8:
				srv.ingest(rng, rng.Intn(300))
			case op < 9:
				ack()
			default:
				reconnect(step, rng.Intn(2) == 0)
			}
			check(step)
		}

		if seed%2 == 1 {
			// Closed mid-stream: Flush reports what is still unacked.
			r.mu.Lock()
			r.closed = true
			r.mu.Unlock()
			want := ""
			if len(m.evs) > 0 {
				want = fmt.Sprintf("poet reporter: closed with %d unacked events", len(m.evs))
			}
			if err := r.Flush(); fmt.Sprint(err) != want && !(err == nil && want == "") {
				fail(step, "Flush on close = %v, want %q", err, want)
			}
			continue
		}
		// Drained: report the rest, retransmit whatever a cut lost, until
		// the window is empty, and Flush returns at once.
		for round := 0; len(events) > 0 || len(m.evs) > 0; round++ {
			if round == 100 {
				fail(step, "window never drained: %d entries, %d unreported", len(m.evs), len(events))
			}
			report(step, bound)
			reconnect(step, false)
			send()
			srv.ingest(rng, 1<<30)
			ack()
			send()
			check(step)
		}
		if err := r.Flush(); err != nil {
			fail(step, "Flush on an empty window: %v", err)
		}
		if r.stats.Acked != r.stats.Reported {
			fail(step, "acked %d of %d reported", r.stats.Acked, r.stats.Reported)
		}
	}

	t.Run("wire", func(t *testing.T) {
		c, srv, p := startFaultServer(t)
		rep, err := DialReporter(p.Addr(),
			WithReporterBuffer(bound),
			WithReporterBackoff(2*time.Millisecond, 50*time.Millisecond),
			WithReporterHeartbeat(20*time.Millisecond),
			WithReporterReconnect(10*time.Second),
			WithReporterLog(t.Logf))
		if err != nil {
			t.Fatal(err)
		}
		defer rep.Close()
		events := windowScript(rand.New(rand.NewSource(7)), 4, 1500)
		for i, ev := range events {
			if i%1000 == 500 {
				p.CutAll()
			}
			if err := rep.Report(ev); err != nil {
				t.Fatalf("report %d: %v", i, err)
			}
		}
		if err := rep.Flush(); err != nil {
			t.Fatal(err)
		}
		st, n := rep.Stats(), len(events)
		if st.Reported != n || st.Acked != n || c.Delivered() != n {
			t.Fatalf("stats %+v, delivered %d: want %d reported, acked and delivered", st, c.Delivered(), n)
		}
		if stale := srv.WireStats().StaleEvents; stale > st.Retransmits {
			t.Fatalf("server absorbed %d stale frames, reporter retransmitted %d", stale, st.Retransmits)
		}
		if st.Reconnects == 0 {
			t.Fatal("no cut forced a reconnect: the wire case proved nothing")
		}
	})
}

// TestReporterWindowHeap: once Flush returns, a reporter whose window
// carried 100 k events holds at most one chunk of it more than a fresh
// reporter does. A window kept as one regrowing array held its peak.
func TestReporterWindowHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes heap sizes")
	}
	const n = 100_000
	// A peer that acks only when told, so the window fills to n, and
	// keeps nothing it reads.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var mu sync.Mutex
	cond := sync.NewCond(&mu)
	frames := 0
	var fw *frameWriter
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		fr := &frameReader{br: bufio.NewReader(conn)}
		var f frame
		if fr.next(&f) != nil {
			return
		}
		mu.Lock()
		fw = newFrameWriter(conn)
		fw.acks(nil)
		err = fw.flush()
		mu.Unlock()
		for err == nil {
			if err = fr.next(&f); err == nil && f.kind == frameRaw {
				mu.Lock()
				frames++
				cond.Broadcast()
				mu.Unlock()
			}
		}
	}()
	rep, err := DialReporter(ln.Addr().String(), WithReporterBuffer(n))
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()

	fresh := liveHeap()
	for i := 1; i <= n; i++ {
		if err := rep.Report(RawEvent{Trace: "p0", Seq: i, Kind: event.KindInternal, Type: "x"}); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	for frames < n {
		cond.Wait()
	}
	fw.acks([]traceAck{{Trace: "p0", Seq: n}})
	err = fw.flush()
	mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Flush(); err != nil {
		t.Fatal(err)
	}
	held := liveHeap() - fresh
	chunk := int64(fifo.ChunkCap[RawEvent]()) * int64(unsafe.Sizeof(RawEvent{}))
	t.Logf("after Flush the reporter holds %d B more than fresh (one chunk is %d B; the peak window was %d B)",
		held, chunk, n*int64(unsafe.Sizeof(RawEvent{})))
	if held > chunk+8<<10 {
		t.Fatalf("a flushed reporter holds %d B more than a fresh one, want at most one %d B chunk", held, chunk)
	}
}

// TestDefaultWindowNotTimerBound: a default-window reporter streams five
// windows of events to a server whose ack ticker never fires in the
// test's lifetime, and sends it no heartbeat either. Only acks that
// follow each applied burst release the window; acks on the timer alone,
// or ones woken when bytes arrive rather than once they are applied,
// leave a burst's tail waiting for the next bytes or the ticker, and
// Flush behind the backstop.
func TestDefaultWindowNotTimerBound(t *testing.T) {
	c := NewCollector()
	s := NewServer(c, t.Logf)
	s.SetWireTiming(time.Hour, 0, 0)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	rep, err := DialReporter(addr, WithReporterHeartbeat(time.Hour), WithReporterLog(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()

	// Five windows, each flushed: every Flush waits on its last burst's
	// ack.
	const traces, n = 8, 5 * defaultReporterBuffer
	names := make([]string, traces)
	for i := range names {
		names[i] = fmt.Sprintf("p%d", i)
	}
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			ev := RawEvent{Trace: names[i%traces], Seq: i/traces + 1, Kind: event.KindInternal, Type: "x"}
			if err := rep.Report(ev); err != nil {
				done <- err
				return
			}
			if (i+1)%defaultReporterBuffer == 0 {
				if err := rep.Flush(); err != nil {
					done <- err
					return
				}
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("%d of %d events acked after 5s: acks wait for the ack ticker", rep.Stats().Acked, n)
	}
	if st := rep.Stats(); st.Acked != n || c.Delivered() != n || st.Reconnects != 0 {
		t.Fatalf("stats %+v, delivered %d: want all %d acked and delivered over one connection", st, c.Delivered(), n)
	}
}
