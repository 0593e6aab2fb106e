package poet

// Fault-injection tests for the v2 wire layer: every test routes the
// TCP session through a faultnet proxy and asserts the exactly-once
// contract — no event lost, none double-delivered — across resets,
// partial writes, stalls and dead peers.

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
	"time"

	"ocep/internal/event"
	"ocep/internal/faultnet"
)

// startFaultServer starts a server with fast wire timers (so faults and
// recoveries play out in milliseconds) and a proxy in front of it.
func startFaultServer(t *testing.T) (*Collector, *Server, *faultnet.Proxy) {
	t.Helper()
	c := NewCollector()
	s := NewServer(c, t.Logf)
	s.SetWireTiming(10*time.Millisecond, 20*time.Millisecond, 2*time.Second)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	p, err := faultnet.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })
	return c, s, p
}

// fastReporter dials through the proxy with an aggressive reconnect
// schedule so outages resolve quickly under test.
func fastReporter(t *testing.T, p *faultnet.Proxy) *Reporter {
	t.Helper()
	rep, err := DialReporter(p.Addr(),
		WithReporterBackoff(2*time.Millisecond, 50*time.Millisecond),
		WithReporterHeartbeat(20*time.Millisecond),
		WithReporterReconnect(10*time.Second),
		WithReporterLog(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rep.Close() })
	return rep
}

// TestReporterSurvivesMidStreamResets cuts the reporter's connection
// repeatedly while it streams, and requires the collector to end up
// with every event exactly once: the resume handshake prunes what was
// acked, the suffix is retransmitted, and the server absorbs the
// overlap as stale no-ops.
func TestReporterSurvivesMidStreamResets(t *testing.T) {
	c, srv, p := startFaultServer(t)
	rep := fastReporter(t, p)

	const total = 2000
	for i := 1; i <= total; i++ {
		if err := rep.Report(RawEvent{Trace: "p0", Seq: i, Kind: event.KindInternal, Type: "x"}); err != nil {
			t.Fatalf("report %d: %v", i, err)
		}
		if i%400 == 0 {
			p.CutAll()
		}
	}
	if err := rep.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	waitFor(t, func() bool { return c.Delivered() == total })

	// Exactly once: the collector delivered each seq precisely one time
	// (a double delivery would push Delivered past total or error the
	// report path; a loss would stall it below).
	if got := c.Delivered(); got != total {
		t.Fatalf("delivered %d events, want exactly %d", got, total)
	}
	st := rep.Stats()
	if st.Reconnects == 0 {
		t.Fatalf("stats = %+v: the cuts never forced a reconnect (test proved nothing)", st)
	}
	if st.Acked != total {
		t.Fatalf("acked %d of %d reported events", st.Acked, total)
	}
	t.Logf("reporter: %+v, server: %+v, proxy: %+v", st, srv.WireStats(), p.Stats())
}

// TestMonitorResumesGapAndDuplicateFree cuts the monitor's connection
// while it drains a long replay and requires the resumed stream to be
// the exact continuation: indices 1..N in order, nothing skipped,
// nothing repeated.
func TestMonitorResumesGapAndDuplicateFree(t *testing.T) {
	c, _, p := startFaultServer(t)

	const total = 5000
	for i := 1; i <= total; i++ {
		if err := c.Report(RawEvent{Trace: "p0", Seq: i, Kind: event.KindInternal, Type: "x"}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return c.Delivered() == total })

	// Throttle the proxy so the replay is still in flight when the cuts
	// land; an unthrottled loopback would buffer the whole stream before
	// the first cut, and the test would prove nothing.
	p.SetChunk(256, 200*time.Microsecond)
	mon, err := DialMonitor(p.Addr(),
		WithMonitorReconnect(10*time.Second),
		WithMonitorBackoff(2*time.Millisecond, 50*time.Millisecond),
		WithMonitorLog(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()

	for i := 1; i <= total; i++ {
		e, err := mon.Next()
		if err != nil {
			t.Fatalf("next %d: %v", i, err)
		}
		if e.ID.Index != i {
			t.Fatalf("event %d has index %d: stream gap or duplicate across resume", i, e.ID.Index)
		}
		// Sever mid-replay a few times; the client must resume at its
		// exact offset.
		if i == 1000 || i == 2500 || i == 4000 {
			p.CutAll()
		}
	}
	if st := mon.Stats(); st.Reconnects == 0 {
		t.Fatalf("stats = %+v: the cuts never forced a resume (test proved nothing)", st)
	}
}

// TestWireSurvivesPartialWrites forces every frame to cross the
// proxy in 3-byte fragments — each message split over dozens of TCP
// writes — in both directions, and requires full fidelity end to end.
func TestWireSurvivesPartialWrites(t *testing.T) {
	c, _, p := startFaultServer(t)
	p.SetChunk(3, 50*time.Microsecond)

	rep := fastReporter(t, p)
	mon, err := DialMonitor(p.Addr(), WithMonitorReconnect(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()

	const total = 100
	for i := 1; i <= total; i++ {
		if err := rep.Report(RawEvent{Trace: "p0", Seq: i, Kind: event.KindSend, Type: "send", Text: "payload-payload-payload", MsgID: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := rep.Flush(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return c.Delivered() == total })
	for i := 1; i <= total; i++ {
		e, err := mon.Next()
		if err != nil {
			t.Fatalf("next %d: %v", i, err)
		}
		if e.ID.Index != i || e.Type != "send" || e.Text != "payload-payload-payload" {
			t.Fatalf("event %d corrupted: %+v", i, e)
		}
	}
}

// TestReporterResetDuringReplay cuts the connection again while the
// reporter is retransmitting after the first cut: resume must compose
// with resume.
func TestReporterResetDuringReplay(t *testing.T) {
	c, _, p := startFaultServer(t)
	rep := fastReporter(t, p)

	const total = 3000
	// A byte-budget kill on every future connection: each resume session
	// dies after 64 KiB, so replays themselves are interrupted until the
	// budget is lifted.
	for i := 1; i <= total; i++ {
		if err := rep.Report(RawEvent{Trace: "p0", Seq: i, Kind: event.KindInternal, Type: "x"}); err != nil {
			t.Fatal(err)
		}
		if i == total/2 {
			p.SetKillAfter(64 * 1024)
			p.CutAll()
		}
	}
	// Let a few byte-limited sessions die mid-replay, then heal the link.
	time.Sleep(150 * time.Millisecond)
	p.SetKillAfter(0)
	if err := rep.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	waitFor(t, func() bool { return c.Delivered() == total })
	if got := c.Delivered(); got != total {
		t.Fatalf("delivered %d events, want exactly %d", got, total)
	}
}

// TestHeartbeatsKeepIdleConnectionAlive: an idle but heartbeating
// reporter must survive a server peer timeout several times over.
func TestHeartbeatsKeepIdleConnectionAlive(t *testing.T) {
	c := NewCollector()
	s := NewServer(c, t.Logf)
	// Aggressive dead-peer detection: 120ms of silence kills a target.
	s.SetWireTiming(20*time.Millisecond, 20*time.Millisecond, 120*time.Millisecond)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })

	rep, err := DialReporter(addr, WithReporterHeartbeat(25*time.Millisecond), WithReporterLog(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	if err := rep.Report(RawEvent{Trace: "p0", Seq: 1, Kind: event.KindInternal, Type: "x"}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return c.Delivered() == 1 })

	// Idle for 4x the server's peer timeout; only heartbeats flow.
	time.Sleep(500 * time.Millisecond)
	if err := rep.Report(RawEvent{Trace: "p0", Seq: 2, Kind: event.KindInternal, Type: "x"}); err != nil {
		t.Fatal(err)
	}
	if err := rep.Flush(); err != nil {
		t.Fatalf("flush after idle period: %v", err)
	}
	waitFor(t, func() bool { return c.Delivered() == 2 })
	if st := rep.Stats(); st.Reconnects != 0 {
		t.Fatalf("stats = %+v: the idle connection was severed despite heartbeats", st)
	}
}

// TestServerDetectsDeadTarget: a target that goes silent (no events, no
// heartbeats — a crashed process or blackholed link) is detected and
// its connection reclaimed within the peer timeout.
func TestServerDetectsDeadTarget(t *testing.T) {
	c := NewCollector()
	s := NewServer(c, t.Logf)
	s.SetWireTiming(20*time.Millisecond, 20*time.Millisecond, 100*time.Millisecond)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })

	// A raw connection that completes the handshake and then plays dead.
	conn, err := dialRaw(addr, hello{magic: wireMagic, role: roleTarget})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// The server must hang up on its own; consume until it does.
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 4096)
	for {
		if _, err := conn.Read(buf); err != nil {
			if isTimeout(err) {
				t.Fatal("server never severed the silent target")
			}
			return // closed by the server: dead peer detected
		}
	}
}

// TestMonitorDetectsStalledServer: with reconnection disabled, a
// blackholed link (no events, no heartbeats arriving) must surface as
// ErrStreamInterrupted within the read timeout — not hang, and not
// masquerade as a clean end of stream.
func TestMonitorDetectsStalledServer(t *testing.T) {
	c, _, p := startFaultServer(t)
	if err := c.Report(RawEvent{Trace: "p0", Seq: 1, Kind: event.KindInternal, Type: "x"}); err != nil {
		t.Fatal(err)
	}
	mon, err := DialMonitor(p.Addr(),
		WithMonitorReconnect(0),
		WithMonitorReadTimeout(150*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	if _, err := mon.Next(); err != nil {
		t.Fatalf("next before blackhole: %v", err)
	}

	p.SetBlackhole(true)
	defer p.SetBlackhole(false)
	start := time.Now()
	_, err = mon.Next()
	if err == nil || err == io.EOF {
		t.Fatalf("Next under blackhole = %v, want ErrStreamInterrupted", err)
	}
	if !errors.Is(err, ErrStreamInterrupted) {
		t.Fatalf("Next under blackhole = %v, want ErrStreamInterrupted", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("dead-server detection took %v, want ~the 150ms read timeout", elapsed)
	}
}

// TestMonitorReconnectBudgetExhausted: when the server is gone for good,
// a reconnecting client gives up after its budget and reports the
// interruption with the budget in the error.
func TestMonitorReconnectBudgetExhausted(t *testing.T) {
	c, srv, p := startFaultServer(t)
	if err := c.Report(RawEvent{Trace: "p0", Seq: 1, Kind: event.KindInternal, Type: "x"}); err != nil {
		t.Fatal(err)
	}
	mon, err := DialMonitor(p.Addr(),
		WithMonitorReconnect(200*time.Millisecond),
		WithMonitorBackoff(10*time.Millisecond, 40*time.Millisecond),
		WithMonitorReadTimeout(100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	if _, err := mon.Next(); err != nil {
		t.Fatal(err)
	}

	// Take the server away entirely; the proxy refuses new sessions too.
	// A crash, not a Close: a graceful End frame that won the race with
	// the proxy's teardown would end the stream cleanly instead.
	srv.abort()
	_ = p.Close()
	_, err = mon.Next()
	if err == nil || err == io.EOF {
		t.Fatalf("Next after permanent outage = %v, want budget-exhausted interruption", err)
	}
	if !errors.Is(err, ErrStreamInterrupted) || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("Next after permanent outage = %v, want ErrStreamInterrupted with exhausted budget", err)
	}
}

// TestReporterBufferBoundedUnderOutage: with a small unacked buffer and
// the server blackholed, Report must block (bounded memory) rather than
// grow without limit, and must come unstuck when the link heals.
func TestReporterBufferBoundedUnderOutage(t *testing.T) {
	c, _, p := startFaultServer(t)
	rep, err := DialReporter(p.Addr(),
		WithReporterBuffer(64),
		WithReporterBackoff(2*time.Millisecond, 20*time.Millisecond),
		WithReporterHeartbeat(20*time.Millisecond),
		WithReporterLog(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()

	p.SetBlackhole(true)
	blocked := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		// 200 events into a 64-slot buffer: Report must block partway.
		var err error
		for i := 1; i <= 200 && err == nil; i++ {
			if i == 100 {
				close(blocked)
			}
			err = rep.Report(RawEvent{Trace: "p0", Seq: i, Kind: event.KindInternal, Type: "x"})
		}
		done <- err
	}()
	select {
	case <-done:
		t.Fatal("200 reports completed against a blackholed 64-slot buffer")
	case <-time.After(300 * time.Millisecond):
	}
	p.SetBlackhole(false)
	// Healing the link may not be enough: the stalled session's deadline
	// has to expire first, then the reporter reconnects and drains.
	if err := <-done; err != nil {
		t.Fatalf("report after heal: %v", err)
	}
	if err := rep.Flush(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return c.Delivered() == 200 })
	_ = blocked
}

// TestWireFaultSoak is the long-running chaos test: tens of thousands
// of events streamed while the link is continuously cut, stalled,
// fragmented and byte-capped at random, then a final assertion of the
// exactly-once contract on both sides of the wire. Skipped under
// -short; CI runs it in the fault-injection job.
func TestWireFaultSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("fault soak skipped in -short mode")
	}
	c, srv, p := startFaultServer(t)
	rep := fastReporter(t, p)
	mon, err := DialMonitor(p.Addr(),
		WithMonitorReconnect(time.Minute),
		WithMonitorBackoff(2*time.Millisecond, 50*time.Millisecond),
		WithMonitorLog(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()

	const total = 20000
	rng := rand.New(rand.NewSource(1))

	stopChaos := make(chan struct{})
	chaosDone := make(chan struct{})
	go func() {
		defer close(chaosDone)
		for {
			select {
			case <-stopChaos:
				// Heal everything before the final drain.
				p.SetBlackhole(false)
				p.SetChunk(0, 0)
				p.SetKillAfter(0)
				p.SetLatency(0)
				return
			case <-time.After(time.Duration(10+rng.Intn(40)) * time.Millisecond):
			}
			switch rng.Intn(5) {
			case 0:
				p.CutAll()
			case 1:
				p.SetBlackhole(true)
				time.Sleep(time.Duration(20+rng.Intn(60)) * time.Millisecond)
				p.SetBlackhole(false)
			case 2:
				p.SetChunk(1+rng.Intn(32), 20*time.Microsecond)
			case 3:
				p.SetKillAfter(int64(4096 + rng.Intn(32*1024)))
				time.Sleep(50 * time.Millisecond)
				p.SetKillAfter(0)
			case 4:
				p.SetLatency(time.Duration(rng.Intn(3)) * time.Millisecond)
			}
		}
	}()

	// The consumer runs concurrently with the chaos, checking the stream
	// for gaps and duplicates as it goes.
	consumerDone := make(chan error, 1)
	go func() {
		for i := 1; i <= total; i++ {
			e, err := mon.Next()
			if err != nil {
				consumerDone <- fmt.Errorf("next %d: %w", i, err)
				return
			}
			if e.ID.Index != i {
				consumerDone <- fmt.Errorf("event %d has index %d: gap or duplicate", i, e.ID.Index)
				return
			}
		}
		consumerDone <- nil
	}()

	for i := 1; i <= total; i++ {
		if err := rep.Report(RawEvent{Trace: "p0", Seq: i, Kind: event.KindInternal, Type: "x"}); err != nil {
			t.Fatalf("report %d: %v", i, err)
		}
	}
	close(stopChaos)
	<-chaosDone
	if err := rep.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	waitFor(t, func() bool { return c.Delivered() == total })
	if got := c.Delivered(); got != total {
		t.Fatalf("delivered %d, want exactly %d", got, total)
	}
	select {
	case err := <-consumerDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("consumer did not finish draining the stream")
	}
	t.Logf("soak: reporter %+v, server %+v, proxy %+v", rep.Stats(), srv.WireStats(), p.Stats())
}
