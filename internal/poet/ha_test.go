package poet

// High-availability tests: warm-standby replication, the ack and
// monitor-send barriers that make failover exact, client endpoint
// pools, graceful drain, and the exactly-once contract across a
// primary crash (Server.abort, the in-process SIGKILL stand-in).

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ocep/internal/event"
	"ocep/internal/faultnet"
)

// startReplicatedPair starts a primary with the replication log enabled
// and a standby following it, both with fast wire timers. The standby's
// server is gated (SetStandby) but listening, so pooled clients can
// probe it. Returns both collectors, both servers, and their addresses.
func startReplicatedPair(t *testing.T) (c1 *Collector, s1 *Server, addr1 string, c2 *Collector, s2 *Server, addr2 string, rep *Replicator) {
	t.Helper()
	c1 = NewCollector()
	if err := c1.EnableReplicationLog(); err != nil {
		t.Fatal(err)
	}
	c1.SetReplicationAckWait(50 * time.Millisecond)
	s1 = NewServer(c1, t.Logf)
	s1.SetWireTiming(10*time.Millisecond, 20*time.Millisecond, 2*time.Second)
	var err error
	addr1, err = s1.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s1.Close() })

	c2 = NewCollector()
	if err := c2.EnableReplicationLog(); err != nil {
		t.Fatal(err)
	}
	s2 = NewServer(c2, t.Logf)
	s2.SetWireTiming(10*time.Millisecond, 20*time.Millisecond, 2*time.Second)
	s2.SetStandby(true)
	addr2, err = s2.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s2.Close() })

	rep, err = FollowPrimary(addr1, c2,
		WithSessionHeartbeat(20*time.Millisecond),
		WithSessionBackoff(2*time.Millisecond, 50*time.Millisecond),
		WithSessionReconnect(500*time.Millisecond),
		WithSessionLog(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rep.Stop)
	return c1, s1, addr1, c2, s2, addr2, rep
}

// promoteOnDone watches the replicator and promotes the standby when
// following ends for a promotable reason — the same classification
// poetd applies.
func promoteOnDone(t *testing.T, rep *Replicator, s2 *Server) {
	t.Helper()
	go func() {
		<-rep.Done()
		err := rep.Err()
		if err == nil || errors.Is(err, ErrPrimaryDrained) || errors.Is(err, ErrStreamInterrupted) {
			s2.Promote()
			return
		}
		t.Errorf("replication ended unpromotably: %v", err)
	}()
}

// TestReplicaTailsPrimary checks the basic warm-standby property: every
// ingested event and explicit trace registration reaches the standby's
// collector, producing the identical delivered state.
func TestReplicaTailsPrimary(t *testing.T) {
	c1, _, addr1, c2, _, _, _ := startReplicatedPair(t)

	c1West := "explicit-trace"
	srvRep, err := DialReporter(addr1, WithSessionLog(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	defer srvRep.Close()

	const total = 500
	c1.RegisterTrace(c1West)
	for i := 1; i <= total; i++ {
		raw := RawEvent{Trace: "p0", Seq: i, Kind: event.KindInternal, Type: "x"}
		if i%2 == 0 {
			raw.Trace = "p1"
			raw.Seq = i / 2
		} else {
			raw.Seq = (i + 1) / 2
		}
		if err := srvRep.Report(raw); err != nil {
			t.Fatal(err)
		}
	}
	if err := srvRep.Flush(); err != nil {
		t.Fatal(err)
	}
	// Acked implies replicated: by the time Flush returns, the attached
	// standby has confirmed every event.
	if got := c2.IngestCount(); got != total {
		t.Fatalf("standby applied %d events at flush time, want %d (ack released before replication)", got, total)
	}
	waitFor(t, func() bool { return c2.Delivered() == c1.Delivered() })
	// The explicit registration replicated too.
	found := false
	for _, ts := range c2.TraceStats() {
		if ts.Name == c1West {
			found = true
		}
	}
	if !found {
		t.Fatalf("explicit trace registration did not replicate")
	}
	st := c1.ReplicationStats()
	if st.Sessions != 1 || st.Confirmed != total {
		t.Fatalf("primary replication stats = %+v", st)
	}
}

// TestReplicaResumesThroughOutage cuts the replication link mid-stream
// and checks the replica resumes from its exact applied offset: the
// standby converges on the full stream with no event lost or
// double-applied.
func TestReplicaResumesThroughOutage(t *testing.T) {
	c1 := NewCollector()
	if err := c1.EnableReplicationLog(); err != nil {
		t.Fatal(err)
	}
	s1 := NewServer(c1, t.Logf)
	s1.SetWireTiming(10*time.Millisecond, 20*time.Millisecond, 2*time.Second)
	addr1, err := s1.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s1.Close() })
	p, err := faultnet.Listen(addr1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })

	c2 := NewCollector()
	rep, err := FollowPrimary(p.Addr(), c2,
		WithSessionHeartbeat(20*time.Millisecond),
		WithSessionBackoff(2*time.Millisecond, 50*time.Millisecond),
		WithSessionReconnect(10*time.Second),
		WithSessionLog(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rep.Stop)

	const total = 1500
	for i := 1; i <= total; i++ {
		if err := c1.Report(RawEvent{Trace: "p0", Seq: i, Kind: event.KindInternal, Type: "x"}); err != nil {
			t.Fatal(err)
		}
		if i%300 == 0 {
			p.CutAll()
		}
	}
	waitFor(t, func() bool { return c2.IngestCount() == total })
	if got := c2.Delivered(); got != total {
		t.Fatalf("standby delivered %d, want exactly %d", got, total)
	}
	if rep.Stats().Reconnects == 0 {
		t.Fatalf("the cuts never forced a replication reconnect (test proved nothing)")
	}
}

// TestAcksWithheldUntilReplicaConfirms attaches a replica session that
// never confirms and checks the durability contract's replication half:
// reporter acks are withheld (Flush cannot complete) until the mute
// replica detaches, at which point the barrier lifts.
func TestAcksWithheldUntilReplicaConfirms(t *testing.T) {
	c := NewCollector()
	if err := c.EnableReplicationLog(); err != nil {
		t.Fatal(err)
	}
	c.SetReplicationAckWait(30 * time.Millisecond)
	s := NewServer(c, t.Logf)
	s.SetWireTiming(10*time.Millisecond, 20*time.Millisecond, 10*time.Second)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })

	// A mute replica: completes the handshake, then never acks.
	mute, err := dialRaw(addr, hello{magic: wireMagic, role: roleReplica})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return c.ReplicationStats().Sessions == 1 })

	rep, err := DialReporter(addr,
		WithSessionHeartbeat(20*time.Millisecond),
		WithSessionBackoff(2*time.Millisecond, 50*time.Millisecond),
		WithSessionLog(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	if err := rep.Report(RawEvent{Trace: "p0", Seq: 1, Kind: event.KindInternal, Type: "x"}); err != nil {
		t.Fatal(err)
	}

	flushed := make(chan error, 1)
	go func() { flushed <- rep.Flush() }()
	select {
	case err := <-flushed:
		t.Fatalf("flush completed (err=%v) while an attached replica had confirmed nothing", err)
	case <-time.After(300 * time.Millisecond):
		// Withheld, as required: acked would mean replicated, and it isn't.
	}

	// The mute replica leaves; availability wins and the acks flow.
	_ = mute.Close()
	select {
	case err := <-flushed:
		if err != nil {
			t.Fatalf("flush after replica detach: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("acks still withheld after the only replica detached")
	}
}

// TestFailoverExactlyOnce is the package-level crash differential: a
// pooled reporter and monitor work against a primary+standby pair, the
// primary is severed abruptly mid-workload (abort — no drain notices,
// no End frames, the in-process SIGKILL), the standby promotes, and the
// monitor must observe every event exactly once, in linearization
// order, across the failover.
func TestFailoverExactlyOnce(t *testing.T) {
	_, s1, addr1, c2, s2, addr2, rep := startReplicatedPair(t)
	promoteOnDone(t, rep, s2)
	pool := addr1 + "," + addr2

	wrep, err := DialReporter(pool,
		WithSessionHeartbeat(20*time.Millisecond),
		WithSessionBackoff(2*time.Millisecond, 50*time.Millisecond),
		WithSessionReconnect(30*time.Second),
		WithSessionLog(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	defer wrep.Close()
	mon, err := DialMonitor(pool,
		WithSessionBackoff(2*time.Millisecond, 50*time.Millisecond),
		WithSessionReconnect(30*time.Second),
		WithSessionHeartbeat(400*time.Millisecond),
		WithSessionLog(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()

	// First half against the primary. Flush before the kill: acked
	// implies replicated, so the standby provably holds this prefix.
	const total = 1200
	for i := 1; i <= total/2; i++ {
		if err := wrep.Report(RawEvent{Trace: "p0", Seq: i, Kind: event.KindInternal, Type: "x"}); err != nil {
			t.Fatalf("report %d: %v", i, err)
		}
	}
	if err := wrep.Flush(); err != nil {
		t.Fatalf("flush before kill: %v", err)
	}

	s1.abort() // SIGKILL stand-in: no drain notice, no End frames

	// Second half can only be ingested by the promoted standby; the
	// pooled reporter rides the outage on its reconnect budget.
	reportErr := make(chan error, 1)
	go func() {
		for i := total/2 + 1; i <= total; i++ {
			if err := wrep.Report(RawEvent{Trace: "p0", Seq: i, Kind: event.KindInternal, Type: "x"}); err != nil {
				reportErr <- fmt.Errorf("report %d: %w", i, err)
				return
			}
		}
		reportErr <- wrep.Flush()
	}()

	got := make([]int, 0, total)
	for len(got) < total {
		e, err := mon.Next()
		if err != nil {
			t.Fatalf("monitor next after %d events: %v", len(got), err)
		}
		got = append(got, e.ID.Index)
	}
	if err := <-reportErr; err != nil {
		t.Fatalf("reporter: %v", err)
	}
	for i, idx := range got {
		if idx != i+1 {
			t.Fatalf("event %d has linearization index %d: the failover broke gap/duplicate freedom", i, idx)
		}
	}
	waitFor(t, func() bool { return c2.Delivered() == total })
	if s2.Standby() {
		t.Fatalf("standby never promoted yet the monitor finished: events leaked from the dead primary")
	}
	ms := mon.Stats()
	rs := wrep.Stats()
	if ms.Failovers == 0 || rs.Failovers == 0 {
		t.Fatalf("no failover recorded (monitor %+v, reporter %+v): the abort never bit", ms, rs)
	}
	t.Logf("monitor: %+v, reporter: %+v, standby wire: %+v", ms, rs, s2.WireStats())
}

// TestDrainHandsOffMidBatch drains the primary while a pooled reporter
// streams a workload: connected peers get drain notices, fail over to
// the standby (promoted by the drain's clean handoff), and the monitor
// observes the full stream gap- and duplicate-free. Unlike the abort
// test, nothing here relies on timeouts — the drain choreography alone
// must move every session.
func TestDrainHandsOffMidBatch(t *testing.T) {
	c1, s1, addr1, c2, s2, addr2, rep := startReplicatedPair(t)
	promoteOnDone(t, rep, s2)
	pool := addr1 + "," + addr2

	wrep, err := DialReporter(pool,
		WithSessionHeartbeat(20*time.Millisecond),
		WithSessionBackoff(2*time.Millisecond, 50*time.Millisecond),
		WithSessionLog(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	defer wrep.Close()
	mon, err := DialMonitor(pool,
		WithSessionBackoff(2*time.Millisecond, 50*time.Millisecond),
		WithSessionHeartbeat(400*time.Millisecond),
		WithSessionLog(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()

	const total = 800
	reportErr := make(chan error, 1)
	go func() {
		for i := 1; i <= total; i++ {
			if err := wrep.Report(RawEvent{Trace: "p0", Seq: i, Kind: event.KindInternal, Type: "x"}); err != nil {
				reportErr <- fmt.Errorf("report %d: %w", i, err)
				return
			}
		}
		reportErr <- wrep.Flush()
	}()

	drained := make(chan error, 1)
	go func() {
		waitFor(t, func() bool { return c1.Delivered() > total/10 })
		drained <- s1.Drain(10 * time.Second)
	}()

	got := make([]int, 0, total)
	for len(got) < total {
		e, err := mon.Next()
		if err != nil {
			t.Fatalf("monitor next after %d events: %v", len(got), err)
		}
		got = append(got, e.ID.Index)
	}
	if err := <-reportErr; err != nil {
		t.Fatalf("reporter: %v", err)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	for i, idx := range got {
		if idx != i+1 {
			t.Fatalf("event %d has linearization index %d: the drain handoff broke gap/duplicate freedom", i, idx)
		}
	}
	waitFor(t, func() bool { return c2.Delivered() == total })
	if s1.WireStats().Drains != 1 {
		t.Fatalf("primary drain not counted: %+v", s1.WireStats())
	}
}

// TestStandbyRejectsSessionsRetriably checks the standby gate: before
// promotion, reporter and monitor hellos get a retriable rejection (a
// pool keeps probing), not a terminal one (which would kill the
// client's reconnect loop for good).
func TestStandbyRejectsSessionsRetriably(t *testing.T) {
	c := NewCollector()
	s := NewServer(c, t.Logf)
	s.SetStandby(true)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })

	conn, err := dialRaw(addr, hello{magic: wireMagic, role: roleMonitor})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ans := conn.answer(t)
	if ans.kind != frameError {
		t.Fatalf("standby accepted a monitor session before promotion")
	}
	if !ans.retry {
		t.Fatalf("standby rejection is terminal (%q); pooled clients would give up on this endpoint", ans.reason)
	}

	// After promotion the same hello succeeds.
	s.Promote()
	mon, err := DialMonitor(addr)
	if err != nil {
		t.Fatalf("dial after promotion: %v", err)
	}
	_ = mon.Close()
}

// TestResumeBeyondWatermarkStaysTerminal gives a pooled monitor an
// offset deeper than a fallback server's stream and requires the
// rejection to surface as terminal ErrSessionRejected — not be retried
// against the other endpoint, and not be misreported as an exhausted
// reconnect budget.
func TestResumeBeyondWatermarkStaysTerminal(t *testing.T) {
	// Server A: 10 events. Server B: empty — it never saw A's stream.
	cA := NewCollector()
	sA := NewServer(cA, t.Logf)
	addrA, err := sA.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cB := NewCollector()
	sB := NewServer(cB, t.Logf)
	addrB, err := sB.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sB.Close() })
	for i := 1; i <= 10; i++ {
		if err := cA.Report(RawEvent{Trace: "p0", Seq: i, Kind: event.KindInternal, Type: "x"}); err != nil {
			t.Fatal(err)
		}
	}

	mon, err := DialMonitor(addrA+","+addrB,
		WithSessionBackoff(2*time.Millisecond, 20*time.Millisecond),
		WithSessionReconnect(60*time.Second), // a budget this test must NOT consume
		WithSessionHeartbeat(40*time.Millisecond),
		WithSessionLog(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	for i := 0; i < 10; i++ {
		if _, err := mon.Next(); err != nil {
			t.Fatalf("next %d: %v", i, err)
		}
	}
	sA.abort() // no End frame: the monitor will try to resume at offset 10

	start := time.Now()
	_, err = mon.Next()
	if err == nil {
		t.Fatalf("next succeeded against a server that cannot replay offset 10")
	}
	if !errors.Is(err, ErrSessionRejected) {
		t.Fatalf("resume error = %v, want terminal ErrSessionRejected", err)
	}
	if !errors.Is(err, ErrStreamInterrupted) {
		t.Fatalf("resume error = %v, want ErrStreamInterrupted context", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("terminal rejection took %v: it was retried instead of surfacing", elapsed)
	}
}

// TestAllEndpointsDownNamesEachError takes the whole pool down and
// requires the surfaced error to name every endpoint with its own
// failure, so an operator sees the full picture instead of one
// arbitrary dial error.
func TestAllEndpointsDownNamesEachError(t *testing.T) {
	// Two listeners opened and closed: both addresses refuse connections.
	deadAddr := func() string {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		_ = ln.Close()
		return addr
	}
	a, b := deadAddr(), deadAddr()
	_, err := DialMonitor(a+","+b, WithSessionBackoff(time.Millisecond, 2*time.Millisecond))
	if err == nil {
		t.Fatalf("dial succeeded against a dead pool")
	}
	if !strings.Contains(err.Error(), a) || !strings.Contains(err.Error(), b) {
		t.Fatalf("dead-pool error %q does not name both endpoints", err)
	}
	_, err = DialReporter(a+","+b, WithSessionBackoff(time.Millisecond, 2*time.Millisecond))
	if err == nil {
		t.Fatalf("reporter dial succeeded against a dead pool")
	}
	if !strings.Contains(err.Error(), a) || !strings.Contains(err.Error(), b) {
		t.Fatalf("dead-pool reporter error %q does not name both endpoints", err)
	}
}

// fakePeer is the server end of any role's session: it accepts the
// first hello with an acks frame and cuts the session at once. After
// that it either refuses every hello terminally (refuse) or stops
// listening, so dials fail. hellos counts the hellos it read.
type fakePeer struct {
	ln     net.Listener
	hellos atomic.Int32
}

func startFakePeer(t *testing.T, refuse bool) *fakePeer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	p := &fakePeer{ln: ln}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			var f frame
			if (&frameReader{br: bufio.NewReader(conn)}).next(&f) == nil {
				fw := newFrameWriter(conn)
				first := p.hellos.Add(1) == 1
				if first {
					fw.acks(nil)
				} else {
					fw.refuse("fake peer refuses every session but the first", false)
				}
				_ = fw.flush()
				if first && !refuse {
					_ = ln.Close()
				}
			}
			_ = conn.Close()
		}
	}()
	return p
}

// roleClient is one wire client under test, whatever its role: its
// engine, a channel that yields why it ended (nil for a stop), and how
// to stop it.
type roleClient struct {
	engine *wireClient
	ended  <-chan error
	stop   func()
}

func endedWith(done <-chan struct{}, why func() error) <-chan error {
	ended := make(chan error, 1)
	go func() {
		<-done
		ended <- why()
	}()
	return ended
}

// sessionRoles starts each of the four wire clients against addr.
var sessionRoles = []struct {
	name  string
	start func(addr string, opts []SessionOption) (roleClient, error)
}{
	{"reporter", func(addr string, opts []SessionOption) (roleClient, error) {
		r, err := DialReporter(addr, opts...)
		if err != nil {
			return roleClient{}, err
		}
		return roleClient{&r.wireClient, endedWith(r.done, r.Err), func() { _ = r.Close() }}, nil
	}},
	{"monitor", func(addr string, opts []SessionOption) (roleClient, error) {
		m, err := DialMonitor(addr, opts...)
		if err != nil {
			return roleClient{}, err
		}
		// A monitor redials inside Next, so Next runs until the stream ends.
		ended := make(chan error, 1)
		go func() {
			for {
				if _, err := m.Next(); err != nil {
					if err == io.EOF {
						err = nil
					}
					ended <- err
					return
				}
			}
		}()
		return roleClient{&m.wireClient, ended, func() { _ = m.Close() }}, nil
	}},
	{"replica", func(addr string, opts []SessionOption) (roleClient, error) {
		r, err := FollowPrimary(addr, NewCollector(), opts...)
		if err != nil {
			return roleClient{}, err
		}
		return roleClient{&r.wireClient, endedWith(r.Done(), r.Err), r.Stop}, nil
	}},
	{"shard", func(addr string, opts []SessionOption) (roleClient, error) {
		c := NewCollector()
		if err := c.EnableSharding(1, 2); err != nil {
			return roleClient{}, err
		}
		f, err := FollowShardPeer(addr, c, opts...)
		if err != nil {
			return roleClient{}, err
		}
		return roleClient{&f.wireClient, endedWith(f.Done(), f.Err), f.Stop}, nil
	}},
}

// TestCloseInterruptsBackoff runs every wire role through the ways a
// session engine ends, against a peer that cuts the first session:
//   - stopped while parked in a 30s reconnect backoff, it ends within 2s
//     with no error (a bare time.Sleep once held Close hostage there);
//   - with its reconnect budget spent, it ends with an
//     ErrStreamInterrupted wrap that says so;
//   - given a breaker, only the shard follower holds on past a spent
//     budget, probing; every other role still ends as above;
//   - refused terminally on redial, it ends with ErrSessionRejected at
//     once, without trying again;
//   - with a zero budget, the first dial's round is all it gets: no
//     redial after the cut, though the peer still listens.
func TestCloseInterruptsBackoff(t *testing.T) {
	rows := []struct {
		name   string
		refuse bool
		opts   []SessionOption
		check  func(t *testing.T, p *fakePeer, c roleClient)
	}{
		{"stopped in backoff", false, []SessionOption{WithSessionBackoff(30*time.Second, 60*time.Second), WithSessionReconnect(10 * time.Minute)},
			func(t *testing.T, p *fakePeer, c roleClient) {
				// A failed redial charges the endpoint; the next sleep is ≥ 15s.
				waitFor(t, func() bool { return c.engine.eps.Snapshot()[0].ConsecutiveFailures > 0 })
				// A role's stop may itself wait for the client to end (the
				// replica's does), so the stop call is what the 2s bounds.
				start := time.Now()
				stopped := make(chan struct{})
				go func() {
					c.stop()
					close(stopped)
				}()
				select {
				case <-stopped:
				case <-time.After(2 * time.Second):
					t.Fatalf("stop still blocked on the backoff %v after it was called", time.Since(start))
				}
				select {
				case err := <-c.ended:
					if err != nil {
						t.Fatalf("stopped client ended with %v, want nil", err)
					}
				case <-time.After(2*time.Second - time.Since(start)):
					t.Fatalf("client still parked in its backoff %v after the stop", time.Since(start))
				}
			}},
		{"budget exhausted", false, []SessionOption{WithSessionBackoff(5*time.Millisecond, 10*time.Millisecond), WithSessionReconnect(50 * time.Millisecond)},
			func(t *testing.T, p *fakePeer, c roleClient) {
				err := awaitEnd(t, c)
				if !errors.Is(err, ErrStreamInterrupted) || !strings.Contains(err.Error(), "budget") {
					t.Fatalf("ended with %v, want an ErrStreamInterrupted wrap naming the exhausted budget", err)
				}
			}},
		{"breaker only on the shard follower", false, []SessionOption{WithSessionBackoff(5*time.Millisecond, 10*time.Millisecond), WithSessionReconnect(50 * time.Millisecond), WithShardBreaker(1, 20*time.Millisecond)},
			func(t *testing.T, p *fakePeer, c roleClient) {
				if c.engine.name != "shard" {
					// Any other role ignores the breaker: a standby must
					// still end, and promote, on an exhausted budget.
					err := awaitEnd(t, c)
					if !errors.Is(err, ErrStreamInterrupted) || !strings.Contains(err.Error(), "budget") {
						t.Fatalf("ended with %v, want an ErrStreamInterrupted wrap naming the exhausted budget", err)
					}
					return
				}
				waitFor(t, func() bool {
					c.engine.mu.Lock()
					defer c.engine.mu.Unlock()
					return c.engine.breaker != BreakerClosed
				})
				select {
				case err := <-c.ended:
					t.Fatalf("shard follower with an open breaker ended with %v; want it probing", err)
				case <-time.After(200 * time.Millisecond):
				}
			}},
		{"terminal refusal", true, []SessionOption{WithSessionBackoff(time.Millisecond, 2*time.Millisecond), WithSessionReconnect(10 * time.Second)},
			func(t *testing.T, p *fakePeer, c roleClient) {
				err := awaitEnd(t, c)
				if !errors.Is(err, ErrSessionRejected) || !errors.Is(err, ErrStreamInterrupted) {
					t.Fatalf("ended with %v, want ErrSessionRejected in an ErrStreamInterrupted wrap", err)
				}
				if n := p.hellos.Load(); n != 2 {
					t.Fatalf("peer read %d hellos, want 2: a terminal refusal is not retried", n)
				}
			}},
		{"zero budget", true, []SessionOption{WithSessionBackoff(time.Millisecond, 2*time.Millisecond), WithSessionReconnect(0)},
			func(t *testing.T, p *fakePeer, c roleClient) {
				err := awaitEnd(t, c)
				if !errors.Is(err, ErrStreamInterrupted) || !strings.Contains(err.Error(), "reconnection disabled") {
					t.Fatalf("ended with %v, want an ErrStreamInterrupted wrap: reconnection disabled", err)
				}
				// The peer still listens: a redial would have reached it.
				if n := p.hellos.Load(); n != 1 {
					t.Fatalf("peer read %d hellos, want 1: a zero budget redials nothing", n)
				}
			}},
	}
	for _, row := range rows {
		for _, role := range sessionRoles {
			t.Run(row.name+"/"+role.name, func(t *testing.T) {
				p := startFakePeer(t, row.refuse)
				c, err := role.start(p.ln.Addr().String(), append(row.opts, WithSessionLog(t.Logf)))
				if err != nil {
					t.Fatal(err)
				}
				defer c.stop()
				row.check(t, p, c)
			})
		}
	}
}

// awaitEnd waits for a client to end on its own and returns why.
func awaitEnd(t *testing.T, c roleClient) error {
	t.Helper()
	select {
	case err := <-c.ended:
		return err
	case <-time.After(5 * time.Second):
		t.Fatal("client did not end within 5s")
		return nil
	}
}

func TestDrainWithNoHealthyAlternativeEndsCleanly(t *testing.T) {
	// One live server plus a dead endpoint: the monitor fails the dead
	// address on dial (charging its streak) and lands on the live one.
	// When the live server then drains, there is no credible place to
	// fail over to — the client must hold its session and take the End
	// frame instead of abandoning a complete stream for a dead pool.
	c := NewCollector()
	s := NewServer(c, t.Logf)
	s.SetWireTiming(10*time.Millisecond, 20*time.Millisecond, 2*time.Second)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
	})
	deadLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := deadLn.Addr().String()
	_ = deadLn.Close()
	pool := dead + "," + addr

	wrep, err := DialReporter(pool,
		WithSessionBackoff(2*time.Millisecond, 50*time.Millisecond),
		WithSessionLog(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	defer wrep.Close()
	mon, err := DialMonitor(pool,
		WithSessionBackoff(2*time.Millisecond, 50*time.Millisecond),
		WithSessionHeartbeat(400*time.Millisecond),
		WithSessionLog(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()

	const total = 50
	for i := 1; i <= total; i++ {
		if err := wrep.Report(RawEvent{Trace: "p0", Seq: i, Kind: event.KindInternal, Type: "x"}); err != nil {
			t.Fatalf("report %d: %v", i, err)
		}
	}
	if err := wrep.Flush(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return c.Delivered() == total })

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(5 * time.Second) }()

	got := 0
	for {
		_, err := mon.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("monitor next after %d events: %v (want the clean End frame)", got, err)
		}
		got++
	}
	if got != total {
		t.Fatalf("monitor received %d events before End, want %d", got, total)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if fo := mon.Stats().Failovers; fo != 1 {
		// Exactly the initial dead-endpoint rotation: the drain notice
		// must not have triggered another one.
		t.Fatalf("monitor failovers = %d, want 1 (dial-time rotation only)", fo)
	}
}
