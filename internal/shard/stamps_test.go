package shard

import (
	"fmt"
	"testing"
	"time"

	"ocep/internal/event"
	"ocep/internal/event/eventtest"
	"ocep/internal/poet"
)

// TestMergedStreamStamps runs a ring over eight traces through a
// two-shard tier — every message crosses shards, so every receive is
// stamped from a peer's export record and every shard's stream is
// delta-decoded with shared stamps — and holds the merged linearization
// to the independent stamp replay of eventtest.CheckStamps.
func TestMergedStreamStamps(t *testing.T) {
	const traces, rounds = 8, 40
	var cs [2]*poet.Collector
	var addrs [2]string
	for i := range cs {
		cs[i] = poet.NewCollector()
		if err := cs[i].EnableSharding(i, 2); err != nil {
			t.Fatal(err)
		}
		s := poet.NewServer(cs[i], t.Logf)
		addr, err := s.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = s.Close() })
		addrs[i] = addr
	}
	for i := range cs {
		f, err := poet.FollowShardPeer(addrs[1-i], cs[i], poet.WithSessionLog(t.Logf))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Stop(); <-f.Done() })
	}
	// Trace p<k> is homed on shard k%2 and sends to p<k+1>, on the other.
	seq := make([]int, traces)
	report := func(k int, kind event.Kind, msg uint64) {
		seq[k]++
		raw := poet.RawEvent{Trace: fmt.Sprintf("p%d", k), Seq: seq[k], Kind: kind, Type: "step", MsgID: msg}
		if err := cs[k%2].Report(raw); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < rounds; r++ {
		for k := 0; k < traces; k++ {
			report(k, event.KindSend, uint64(r*traces+k+1))
			report(k, event.KindInternal, 0)
			if r > 0 {
				report(k, event.KindReceive, uint64((r-1)*traces+(k+traces-1)%traces+1))
			}
			report(k, event.KindInternal, 0)
		}
	}
	total := 0
	for _, n := range seq {
		total += n
	}
	deadline := time.Now().Add(10 * time.Second)
	for cs[0].Delivered()+cs[1].Delivered() < total {
		if time.Now().After(deadline) {
			t.Fatalf("the tier delivered %d of %d events", cs[0].Delivered()+cs[1].Delivered(), total)
		}
		time.Sleep(time.Millisecond)
	}
	merged, err := DialMergedMonitor(addrs[0]+";"+addrs[1], nil)
	if err != nil {
		t.Fatal(err)
	}
	defer merged.Close()
	got := make([]*event.Event, total)
	for i := range got {
		if got[i], err = merged.Next(); err != nil {
			t.Fatalf("merged event %d: %v", i, err)
		}
	}
	if err := eventtest.CheckStamps(got); err != nil {
		t.Fatal(err)
	}
}
