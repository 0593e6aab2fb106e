package poet_test

import (
	"testing"
	"time"

	"ocep/internal/event"
	"ocep/internal/event/eventtest"
	"ocep/internal/faultnet"
	"ocep/internal/poet"
	"ocep/internal/shard"
)

// waitUntil polls cond for up to ten seconds.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	deadline := time.After(10 * time.Second)
	for !cond() {
		select {
		case <-tick.C:
		case <-deadline:
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestShardExportFailoverStamps: a peer shard keeps the first stamp it is
// sent for a message, so a shard must never export a send its promoted
// standby could stamp differently. Shard 0's primary numbers trace u
// before trace x and exports x's send while its standby has confirmed
// nothing; the primary dies, and the reporters retransmit to the
// promoted standby x first, which numbers x where the primary had u. The
// merged stream over the standby and shard 1 must still carry stamps
// that replay from its own structure: shard 1's receive must have been
// stamped from the standby's export, not the dead primary's.
func TestShardExportFailoverStamps(t *testing.T) {
	newShard := func(i int) *poet.Collector {
		c := poet.NewCollector()
		if err := c.EnableSharding(i, 2); err != nil {
			t.Fatal(err)
		}
		if err := c.EnableReplicationLog(); err != nil {
			t.Fatal(err)
		}
		return c
	}
	listen := func(c *poet.Collector, standby bool) (*poet.Server, string) {
		s := poet.NewServer(c, t.Logf)
		// A long peer timeout: the mute replica stays attached.
		s.SetWireTiming(10*time.Millisecond, 20*time.Millisecond, time.Minute)
		s.SetStandby(standby)
		addr, err := s.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = s.Close() })
		return s, addr
	}
	proxy := func(addr string) *faultnet.Proxy {
		p, err := faultnet.Listen(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = p.Close() })
		return p
	}

	c0, c0b, c1 := newShard(0), newShard(0), newShard(1)
	s0, addr0 := listen(c0, false)
	s0b, addr0b := listen(c0b, true)
	_, addr1 := listen(c1, false)

	// The standby attaches at offset 0, then hears nothing and confirms
	// nothing: its link is blackholed.
	repLink := proxy(addr0)
	rep, err := poet.FollowPrimary(repLink.Addr(), c0b,
		poet.WithSessionHeartbeat(time.Second), poet.WithSessionLog(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rep.Stop)
	repLink.SetBlackhole(true)

	// Shard 1 follows shard 0's pair, the primary through a proxy.
	exportLink := proxy(addr0)
	f1, err := poet.FollowShardPeer(exportLink.Addr()+","+addr0b, c1,
		poet.WithSessionBackoff(2*time.Millisecond, 20*time.Millisecond), poet.WithSessionLog(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f1.Stop(); <-f1.Done() })

	// Trace y on shard 1 receives x's message; u and x are homed on shard 0.
	recv := poet.RawEvent{Trace: "y", Seq: 1, Kind: event.KindReceive, Type: "recv", MsgID: 1}
	send := poet.RawEvent{Trace: "x", Seq: 1, Kind: event.KindSend, Type: "send", MsgID: 1}
	step := poet.RawEvent{Trace: "u", Seq: 1, Kind: event.KindInternal, Type: "step"}
	if err := c1.Report(recv); err != nil {
		t.Fatal(err)
	}
	for _, raw := range []poet.RawEvent{step, send} {
		if err := c0.Report(raw); err != nil {
			t.Fatal(err)
		}
	}
	// The export head reaches shard 1, in a head frame before the record
	// or in a heartbeat while the record waits.
	waitUntil(t, "shard 1 to learn shard 0's export head", func() bool { return f1.Stats().Head >= 1 })

	// The primary dies. Nothing it writes from here on reaches shard 1.
	exportLink.SetDropDir(faultnet.ServerToClient, true)
	s0.Abort()
	exportLink.CutAll()
	rep.Stop()
	<-rep.Done()
	s0b.Promote()
	for _, raw := range []poet.RawEvent{send, step} {
		if err := c0b.Report(raw); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "shard 1 to deliver its receive", func() bool { return c1.Delivered() == 1 })

	merged, err := shard.DialMergedMonitor(addr0b+";"+addr1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer merged.Close()
	got := make([]*event.Event, 3)
	for i := range got {
		if got[i], err = merged.Next(); err != nil {
			t.Fatalf("merged event %d: %v", i, err)
		}
	}
	if err := eventtest.CheckStamps(got); err != nil {
		t.Fatal(err)
	}
}
