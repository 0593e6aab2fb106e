package poet

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"ocep/internal/event"
	"ocep/internal/faultnet"
	"ocep/internal/telemetry"
	"ocep/internal/vclock"
)

func waitShard(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestEnableShardingValidation(t *testing.T) {
	c := NewCollector()
	if err := c.EnableSharding(-1, 2); err == nil {
		t.Fatal("negative shard id accepted")
	}
	if err := c.EnableSharding(2, 2); err == nil {
		t.Fatal("out-of-range shard id accepted")
	}
	if err := c.EnableSharding(0, 0); err == nil {
		t.Fatal("zero-width tier accepted")
	}
	if c.Sharded() {
		t.Fatal("failed EnableSharding left the collector sharded")
	}
	if err := c.EnableSharding(1, 3); err != nil {
		t.Fatal(err)
	}
	if err := c.EnableSharding(1, 3); err != nil {
		t.Fatalf("idempotent re-enable failed: %v", err)
	}
	if err := c.EnableSharding(0, 3); err == nil {
		t.Fatal("re-sharding with different arguments accepted")
	}
	st := c.ShardStats()
	if !st.Enabled || st.ShardID != 1 || st.NumShards != 3 {
		t.Fatalf("ShardStats = %+v", st)
	}

	// After ingest it is too late.
	c2 := NewCollector()
	if err := c2.Report(RawEvent{Trace: "a", Seq: 1, Kind: event.KindInternal, Type: "x"}); err != nil {
		t.Fatal(err)
	}
	if err := c2.EnableSharding(0, 2); err == nil {
		t.Fatal("EnableSharding after ingest accepted")
	}

	// Retention and sharding are mutually exclusive.
	c3 := NewCollector()
	if err := c3.SetRetention(100); err != nil {
		t.Fatal(err)
	}
	if err := c3.EnableSharding(0, 2); err == nil {
		t.Fatal("EnableSharding with retention accepted")
	}
}

func TestShardedTraceIDsAreStriped(t *testing.T) {
	c := NewCollector()
	if err := c.EnableSharding(1, 3); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("p%d", i)
		if err := c.Report(RawEvent{Trace: name, Seq: 1, Kind: event.KindInternal, Type: "x"}); err != nil {
			t.Fatal(err)
		}
	}
	for i, e := range c.Ordered() {
		want := event.TraceID(1 + 3*i)
		if e.ID.Trace != want {
			t.Fatalf("event %d homed on trace %d, want striped %d", i, e.ID.Trace, want)
		}
	}
	if st := c.ShardStats(); st.HomeTraces != 4 {
		t.Fatalf("HomeTraces = %d", st.HomeTraces)
	}
}

func TestSupplyRemoteSendGatesReceives(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := NewCollector()
	c.InstrumentMetrics(reg)
	if err := c.EnableSharding(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := c.SupplyRemoteSend(7, event.ID{}, vclock.VC{1}.Stamp(0)); err == nil {
		// allowed: sharded collector; but a zero MsgID is not
		t.Log("ok")
	}
	if err := c.SupplyRemoteSend(0, event.ID{}, vclock.VC{1}.Stamp(0)); err == nil {
		t.Fatal("zero MsgID accepted")
	}

	// The receive arrives first and must pend.
	if err := c.Report(RawEvent{Trace: "b", Seq: 1, Kind: event.KindReceive, Type: "recv", MsgID: 42}); err != nil {
		t.Fatal(err)
	}
	if got := c.Delivered(); got != 0 {
		t.Fatalf("receive delivered before its remote send: %d", got)
	}

	// The peer's export: trace 0 (homed on shard 0), send stamped [3].
	sendID := event.ID{Trace: 0, Index: 3}
	if err := c.SupplyRemoteSend(42, sendID, vclock.VC{3}.Stamp(0)); err != nil {
		t.Fatal(err)
	}
	waitShard(t, "gated receive", func() bool { return c.Delivered() == 1 })
	e := c.Ordered()[0]
	if e.ID.Trace != 1 {
		t.Fatalf("receive homed on trace %d, want striped 1", e.ID.Trace)
	}
	if e.Partner != sendID {
		t.Fatalf("receive partner = %v, want %v", e.Partner, sendID)
	}
	// The receive's stamp merges the remote send's: entry for trace 0
	// must be 3.
	if got := e.VC.Get(0); got != 3 {
		t.Fatalf("receive VC[0] = %d, want 3 (merged from remote send)", got)
	}

	// Duplicates are absorbed.
	if err := c.SupplyRemoteSend(42, sendID, vclock.VC{3}.Stamp(0)); err != nil {
		t.Fatalf("duplicate remote send rejected: %v", err)
	}
	if st := c.ShardStats(); st.RemoteSends != 2 {
		// 42 plus the unused 7 from above.
		t.Fatalf("RemoteSends = %d", st.RemoteSends)
	}

	// A local send wins over a late echo of itself.
	if err := c.Report(RawEvent{Trace: "b", Seq: 2, Kind: event.KindSend, Type: "send", MsgID: 99}); err != nil {
		t.Fatal(err)
	}
	waitShard(t, "local send", func() bool { return c.Delivered() == 2 })
	if err := c.SupplyRemoteSend(99, event.ID{Trace: 0, Index: 9}, vclock.VC{9}.Stamp(0)); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.remoteSendFor(99); ok {
		t.Fatal("echo of a local send was recorded as remote")
	}

	if got := reg.String(); !strings.Contains(got, "poet_shard_remote_sends_total 2") {
		t.Fatalf("metrics missing remote-send counter:\n%s", got)
	}
}

// remoteSendFor exposes the remote-send table to tests.
func (c *Collector) remoteSendFor(msgID uint64) (remoteSend, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rs, ok := c.remoteSends[msgID]
	return rs, ok
}

func TestSupplyRemoteSendRequiresSharding(t *testing.T) {
	c := NewCollector()
	if err := c.SupplyRemoteSend(1, event.ID{Trace: 0, Index: 1}, vclock.VC{1}.Stamp(0)); err == nil {
		t.Fatal("unsharded collector accepted a remote send")
	}
}

// startShardPair wires a two-shard tier over real TCP: collectors,
// servers, and the cross-shard followers in both directions.
func startShardPair(t *testing.T) (c0, c1 *Collector, addr0, addr1 string, cleanup func()) {
	t.Helper()
	c0, c1 = NewCollector(), NewCollector()
	if err := c0.EnableSharding(0, 2); err != nil {
		t.Fatal(err)
	}
	if err := c1.EnableSharding(1, 2); err != nil {
		t.Fatal(err)
	}
	s0, s1 := NewServer(c0, t.Logf), NewServer(c1, t.Logf)
	s0.SetWireTiming(20*time.Millisecond, 50*time.Millisecond, 2*time.Second)
	s1.SetWireTiming(20*time.Millisecond, 50*time.Millisecond, 2*time.Second)
	var err error
	addr0, err = s0.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr1, err = s1.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f0, err := FollowShardPeer(addr1, c0, WithSessionLog(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	f1, err := FollowShardPeer(addr0, c1, WithSessionLog(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	cleanup = func() {
		f0.Stop()
		f1.Stop()
		<-f0.Done()
		<-f1.Done()
		_ = s0.Close()
		_ = s1.Close()
	}
	return c0, c1, addr0, addr1, cleanup
}

// A message each way across the tier: the exchange must gate and stamp
// receives with the peer's exported timestamps, end to end over TCP.
func TestCrossShardExchangeOverTCP(t *testing.T) {
	c0, c1, _, _, cleanup := startShardPair(t)
	defer cleanup()

	// Trace "a" reports to shard 0, "b" to shard 1. a sends m1; b
	// receives m1 and replies m2; a receives m2.
	if err := c0.Report(RawEvent{Trace: "a", Seq: 1, Kind: event.KindSend, Type: "send", MsgID: 1}); err != nil {
		t.Fatal(err)
	}
	if err := c1.Report(RawEvent{Trace: "b", Seq: 1, Kind: event.KindReceive, Type: "recv", MsgID: 1}); err != nil {
		t.Fatal(err)
	}
	if err := c1.Report(RawEvent{Trace: "b", Seq: 2, Kind: event.KindSend, Type: "send", MsgID: 2}); err != nil {
		t.Fatal(err)
	}
	if err := c0.Report(RawEvent{Trace: "a", Seq: 2, Kind: event.KindReceive, Type: "recv", MsgID: 2}); err != nil {
		t.Fatal(err)
	}

	waitShard(t, "shard 0 deliveries", func() bool { return c0.Delivered() == 2 })
	waitShard(t, "shard 1 deliveries", func() bool { return c1.Delivered() == 2 })

	// Striping: a -> trace 0 on shard 0, b -> trace 1 on shard 1.
	recvB := c1.Ordered()[0]
	if recvB.ID.Trace != 1 || recvB.VC.Get(0) != 1 {
		t.Fatalf("b's receive mis-stamped: %v vc=%v", recvB.ID, recvB.VC)
	}
	recvA := c0.Ordered()[1]
	if recvA.ID.Trace != 0 || recvA.VC.Get(1) != 2 {
		t.Fatalf("a's receive mis-stamped: %v vc=%v", recvA.ID, recvA.VC)
	}
	if st := c0.ShardStats(); st.Exports != 1 {
		t.Fatalf("shard 0 Exports = %d", st.Exports)
	}
}

// A replicated sharded primary must stream remote-send applications at
// their linearization position, so a promoted standby reproduces the
// identical stream.
func TestShardedReplicationReplaysRemoteSends(t *testing.T) {
	primary := NewCollector()
	if err := primary.EnableSharding(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := primary.EnableReplicationLog(); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(primary, t.Logf)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	standby := NewCollector()
	if err := standby.EnableSharding(1, 2); err != nil {
		t.Fatal(err)
	}
	rep, err := FollowPrimary(addr, standby)
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Stop()

	// Receive gated on a remote send, then a local internal event.
	if err := primary.Report(RawEvent{Trace: "b", Seq: 1, Kind: event.KindReceive, Type: "recv", MsgID: 5}); err != nil {
		t.Fatal(err)
	}
	if err := primary.SupplyRemoteSend(5, event.ID{Trace: 0, Index: 2}, vclock.VC{2}.Stamp(0)); err != nil {
		t.Fatal(err)
	}
	if err := primary.Report(RawEvent{Trace: "b", Seq: 2, Kind: event.KindInternal, Type: "step"}); err != nil {
		t.Fatal(err)
	}
	waitShard(t, "primary deliveries", func() bool { return primary.Delivered() == 2 })
	waitShard(t, "standby catch-up", func() bool { return standby.Delivered() == 2 })

	pe, se := primary.Ordered(), standby.Ordered()
	for i := range pe {
		if pe[i].ID != se[i].ID || !pe[i].VC.Equal(se[i].VC) || pe[i].Partner != se[i].Partner {
			t.Fatalf("standby diverged at %d: %v vs %v", i, pe[i], se[i])
		}
	}
	if _, ok := standby.remoteSendFor(5); !ok {
		t.Fatal("standby did not record the replicated remote send")
	}
}

// Followers always resume from zero; after a reconnect the re-streamed
// log must be absorbed without duplicating state.
func TestShardFollowerRestreamsIdempotently(t *testing.T) {
	exporter := NewCollector()
	if err := exporter.EnableSharding(0, 2); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(exporter, t.Logf)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for i := 1; i <= 5; i++ {
		if err := exporter.Report(RawEvent{Trace: "a", Seq: i, Kind: event.KindSend, Type: "send", MsgID: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	waitShard(t, "exports", func() bool { return exporter.ShardStats().Exports == 5 })

	follower := NewCollector()
	if err := follower.EnableSharding(1, 2); err != nil {
		t.Fatal(err)
	}
	f, err := FollowShardPeer(addr, follower,
		WithSessionLog(t.Logf), WithSessionHeartbeat(100*time.Millisecond), WithSessionBackoff(5*time.Millisecond, 20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { f.Stop(); <-f.Done() }()

	waitShard(t, "first stream", func() bool { return follower.ShardStats().RemoteSends == 5 })

	// Yank the session out from under the follower: it reconnects and
	// re-streams everything from zero.
	f.mu.Lock()
	live := f.live
	f.mu.Unlock()
	_ = live.Close()
	waitShard(t, "re-stream", func() bool { return f.Stats().Received >= 10 })
	if got := follower.ShardStats().RemoteSends; got != 5 {
		t.Fatalf("re-stream duplicated remote sends: %d", got)
	}
	if f.Stats().Reconnects == 0 {
		t.Fatal("no reconnect counted")
	}
	if f.Stats().Head != 5 {
		t.Fatalf("Head = %d", f.Stats().Head)
	}

	// And the follower can use a re-streamed record.
	if err := follower.Report(RawEvent{Trace: "b", Seq: 1, Kind: event.KindReceive, Type: "recv", MsgID: 3}); err != nil {
		t.Fatal(err)
	}
	waitShard(t, "gated receive", func() bool { return follower.Delivered() == 1 })
}

func TestFollowShardPeerValidation(t *testing.T) {
	c := NewCollector()
	if _, err := FollowShardPeer("127.0.0.1:1", c); err == nil {
		t.Fatal("unsharded collector accepted")
	}
	if err := c.EnableSharding(0, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := FollowShardPeer(" , ", c); err == nil {
		t.Fatal("empty pool accepted")
	}
}

func TestHandleShardRejectsUnshardedCollector(t *testing.T) {
	c := NewCollector()
	srv := NewServer(c, t.Logf)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	follower := NewCollector()
	if err := follower.EnableSharding(1, 2); err != nil {
		t.Fatal(err)
	}
	f, err := FollowShardPeer(addr, follower, WithSessionBackoff(time.Millisecond, 2*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Stop()
	select {
	case <-f.Done():
		if !errors.Is(f.Err(), ErrSessionRejected) {
			t.Fatalf("Err = %v, want ErrSessionRejected", f.Err())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("follower did not finish on terminal rejection")
	}
}

func TestShardFollowerGivesUpAfterBudget(t *testing.T) {
	c := NewCollector()
	if err := c.EnableSharding(0, 2); err != nil {
		t.Fatal(err)
	}
	f, err := FollowShardPeer("127.0.0.1:1", c,
		WithSessionReconnect(50*time.Millisecond), WithSessionBackoff(5*time.Millisecond, 10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Stop()
	select {
	case <-f.Done():
		if !errors.Is(f.Err(), ErrStreamInterrupted) {
			t.Fatalf("Err = %v, want ErrStreamInterrupted wrap", f.Err())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("follower did not exhaust its budget")
	}
}

// Delta and dense shard sessions must deliver identical records; the
// server counts the frontier entries it actually sent.
func TestShardSessionWireStats(t *testing.T) {
	exporter := NewCollector()
	if err := exporter.EnableSharding(0, 2); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(exporter, t.Logf)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for i := 1; i <= 20; i++ {
		if err := exporter.Report(RawEvent{Trace: "a", Seq: i, Kind: event.KindSend, Type: "send", MsgID: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	waitShard(t, "exports", func() bool { return exporter.ShardStats().Exports == 20 })

	follower := NewCollector()
	if err := follower.EnableSharding(1, 2); err != nil {
		t.Fatal(err)
	}
	f, err := FollowShardPeer(addr, follower)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { f.Stop(); <-f.Done() }()
	waitShard(t, "records", func() bool { return follower.ShardStats().RemoteSends == 20 })

	ws := srv.WireStats()
	if ws.ShardSessions != 1 || ws.ShardRecords != 20 {
		t.Fatalf("WireStats shard counters = %+v", ws)
	}
	// Consecutive exports of one trace differ in one VC entry each; a
	// delta session should send far fewer than the dense 20 entries per
	// record would.
	if ws.ShardVCEntries >= 20*2 {
		t.Fatalf("delta shard session sent %d VC entries for 20 single-trace exports", ws.ShardVCEntries)
	}
}

// Held-event accounting: a receive gated on a missing peer export shows
// up in ShardStats with an age, and clears when the export arrives — or
// when the sender turns out to be local after all.
func TestShardStatsCountsHeldReceives(t *testing.T) {
	c := NewCollector()
	if err := c.EnableSharding(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := c.Report(RawEvent{Trace: "b", Seq: 1, Kind: event.KindReceive, Type: "recv", MsgID: 42}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	st := c.ShardStats()
	if st.HeldEvents != 1 {
		t.Fatalf("HeldEvents = %d, want 1", st.HeldEvents)
	}
	if st.OldestHeld <= 0 {
		t.Fatalf("OldestHeld = %v, want > 0", st.OldestHeld)
	}
	if err := c.SupplyRemoteSend(42, event.ID{Trace: 0, Index: 1}, vclock.VC{1}.Stamp(0)); err != nil {
		t.Fatal(err)
	}
	if st := c.ShardStats(); st.HeldEvents != 0 || st.OldestHeld != 0 {
		t.Fatalf("after SupplyRemoteSend: %+v, want no held receives", st)
	}

	// A sender that shows up locally clears the held stamp too: the
	// receive is then waiting on local delivery order, not on a peer.
	if err := c.Report(RawEvent{Trace: "b", Seq: 2, Kind: event.KindReceive, Type: "recv", MsgID: 9}); err != nil {
		t.Fatal(err)
	}
	if st := c.ShardStats(); st.HeldEvents != 1 {
		t.Fatalf("HeldEvents = %d before the local send, want 1", st.HeldEvents)
	}
	if err := c.Report(RawEvent{Trace: "d", Seq: 1, Kind: event.KindSend, Type: "send", MsgID: 9}); err != nil {
		t.Fatal(err)
	}
	if st := c.ShardStats(); st.HeldEvents != 0 {
		t.Fatalf("HeldEvents = %d after the local send delivered, want 0", st.HeldEvents)
	}
}

// The circuit breaker: a peer that exhausts the configured number of
// reconnect budgets flips the follower to open instead of finishing it;
// periodic half-open probes reconnect once the peer appears, and the
// exchange then works normally.
func TestShardFollowerBreakerOpensAndRecovers(t *testing.T) {
	// Reserve an address the peer will eventually listen on.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()

	follower := NewCollector()
	if err := follower.EnableSharding(1, 2); err != nil {
		t.Fatal(err)
	}
	f, err := FollowShardPeer(addr, follower,
		WithSessionLog(t.Logf),
		WithSessionReconnect(30*time.Millisecond),
		WithSessionBackoff(2*time.Millisecond, 5*time.Millisecond),
		WithShardBreaker(2, 25*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { f.Stop(); <-f.Done() }()

	waitShard(t, "breaker to open", func() bool {
		st := f.Stats()
		return st.BreakerState == BreakerOpen && st.BudgetExhaustions >= 2
	})
	select {
	case <-f.Done():
		t.Fatalf("follower finished (%v) instead of holding the breaker open", f.Err())
	default:
	}

	// The peer comes up: a half-open probe must find it, close the
	// breaker, and stream the export log.
	exporter := NewCollector()
	if err := exporter.EnableSharding(0, 2); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := exporter.Report(RawEvent{Trace: "a", Seq: i, Kind: event.KindSend, Type: "send", MsgID: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	srv := NewServer(exporter, t.Logf)
	if _, err := srv.Listen(addr); err != nil {
		t.Skipf("reserved address %s re-taken: %v", addr, err)
	}
	defer srv.Close()

	waitShard(t, "breaker to close and records to stream", func() bool {
		return f.Stats().BreakerState == BreakerClosed && follower.ShardStats().RemoteSends == 3
	})
	if st := f.Stats(); st.BudgetExhaustions != 0 {
		t.Fatalf("BudgetExhaustions = %d after recovery, want 0", st.BudgetExhaustions)
	}
}

// The stall watchdog predicate: a blackholed export stream ages past
// the threshold, a healed one comes back under it, and a stopped or
// unconfigured watchdog never reports a stall.
func TestShardFollowerStalledOnSilentPeer(t *testing.T) {
	exporter := NewCollector()
	if err := exporter.EnableSharding(0, 2); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(exporter, t.Logf)
	srv.SetWireTiming(20*time.Millisecond, 30*time.Millisecond, 2*time.Second)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	proxy, err := faultnet.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	follower := NewCollector()
	if err := follower.EnableSharding(1, 2); err != nil {
		t.Fatal(err)
	}
	f, err := FollowShardPeer(proxy.Addr(), follower,
		WithSessionLog(t.Logf),
		WithSessionHeartbeat(60*time.Millisecond),
		WithSessionReconnect(60*time.Second),
		WithSessionBackoff(5*time.Millisecond, 20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { f.Stop(); <-f.Done() }()

	waitShard(t, "initial contact", func() bool { return !f.Stalled(50 * time.Millisecond) })
	if f.Stalled(0) {
		t.Fatal("zero threshold must disable the watchdog")
	}

	// Partition the peer's export direction: records and heartbeats stop,
	// handshake acks are swallowed, so contact ages past the threshold.
	proxy.SetBlackholeDir(faultnet.ServerToClient, true)
	waitShard(t, "stall detection", func() bool { return f.Stalled(150 * time.Millisecond) })

	// Heal: the follower re-establishes contact and the stall clears.
	proxy.SetBlackholeDir(faultnet.ServerToClient, false)
	waitShard(t, "stall recovery", func() bool { return !f.Stalled(150 * time.Millisecond) })

	f.Stop()
	<-f.Done()
	if f.Stalled(time.Nanosecond) {
		t.Fatal("a stopped follower must not report a stall")
	}
}
