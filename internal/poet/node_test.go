package poet

import (
	"cmp"
	"errors"
	"strings"
	"testing"
	"time"

	"ocep/internal/event"
)

// openNode opens spec as a test node — unsharded unless it names Peers,
// on a free port unless it names one, with fast wire timers and
// millisecond redial backoff — and closes it at cleanup.
func openNode(t *testing.T, spec Spec) *Node {
	t.Helper()
	if len(spec.Peers) == 0 {
		spec.ShardID = -1
	}
	spec.Listen = cmp.Or(spec.Listen, "127.0.0.1:0")
	spec.AckInterval = cmp.Or(spec.AckInterval, 10*time.Millisecond)
	spec.Heartbeat = cmp.Or(spec.Heartbeat, 20*time.Millisecond)
	n, err := Open(spec, Env{Logf: t.Logf, SessionLogf: t.Logf,
		sessionOpts: []SessionOption{WithSessionBackoff(2*time.Millisecond, 50*time.Millisecond)}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = n.Close(false) })
	return n
}

// startReplicatedPair opens a primary and a standby following it. The
// standby listens, gated, so pooled clients can probe it.
func startReplicatedPair(t *testing.T) (primary, standby *Node) {
	t.Helper()
	primary = openNode(t, Spec{})
	return primary, openNode(t, Spec{Follow: primary.Addr, FollowReconnect: 500 * time.Millisecond})
}

// TestSpecValidate: one row per rule. Each refusal names the settings
// it is about, and every combination poetd refuses on its command line
// (TestPoetdRejectedFlagCombinations) is refused here.
func TestSpecValidate(t *testing.T) {
	tier := []string{"127.0.0.1:1", "127.0.0.1:2"}
	for _, row := range []struct {
		spec  Spec
		wants []string // nil: valid
	}{
		{Spec{ShardID: -1}, nil},
		{Spec{ShardID: 1, Peers: tier, Follow: "127.0.0.1:3", DataDir: "d", Dump: "x", Fsync: "none", MonitorPolicy: "block"}, nil},
		{Spec{ShardID: -1, RetainEvents: 100, MemLimit: "64KiB"}, nil},
		{Spec{ShardID: -1, MonitorPolicy: "bogus"}, []string{"-monitor-policy", "bogus"}},
		{Spec{ShardID: -1, Fsync: "bogus"}, []string{"-fsync", "bogus"}},
		{Spec{ShardID: -1, MemLimit: "1X", RetainEvents: 100}, []string{"-mem-limit", "1X"}},
		{Spec{ShardID: -1, MemLimit: "1G"}, []string{"-mem-limit", "-retain-events"}},
		{Spec{ShardID: -1, Follow: "127.0.0.1:1", Reload: "x"}, []string{"-follow is incompatible with -reload"}},
		{Spec{ShardID: -1, Peers: tier}, []string{"-peers", "-shard-id"}},
		{Spec{ShardID: -1, Peers: []string{}}, []string{"-peers", "-shard-id"}},
		{Spec{ShardID: 0}, []string{"-shard-id", "-peers"}},
		{Spec{ShardID: 2, Peers: tier}, []string{"-shard-id", "-peers"}},
		{Spec{ShardID: 0, Peers: tier, Reload: "x"}, []string{"-shard-id is incompatible with -reload"}},
		{Spec{ShardID: -1, RetainEvents: 100, Dump: "x"}, []string{"-retain-events", "-dump", "incompatible with the journal"}},
		{Spec{ShardID: -1, RetainEvents: 100, DataDir: "d"}, []string{"-retain-events", "-data-dir", "incompatible with the journal"}},
		{Spec{ShardID: 0, Peers: tier, RetainEvents: 100}, []string{"-retain-events", "-shard-id", "incompatible with sharding"}},
	} {
		err := row.spec.Validate()
		if (err == nil) != (row.wants == nil) {
			t.Errorf("%+v: Validate() = %v", row.spec, err)
			continue
		}
		for _, want := range row.wants {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%+v: %q does not name %q", row.spec, err, want)
			}
		}
	}
}

// TestSpecMonitorPolicy: an opened node evicts lagging monitors (the
// server's own default) unless its spec says block.
func TestSpecMonitorPolicy(t *testing.T) {
	for policy, want := range map[string]BackpressurePolicy{"": BackpressureDrop, "drop": BackpressureDrop, "block": BackpressureBlock} {
		if s := openNode(t, Spec{MonitorPolicy: policy, MonitorQueue: 7}).Server; s.monPolicy != want || s.monQueue != 7 {
			t.Errorf("-monitor-policy %q -monitor-queue 7: policy %v depth %d, want %v depth 7", policy, s.monPolicy, s.monQueue, want)
		}
	}
}

// TestNodePromotionRule: a standby whose primary drains promotes and
// serves sessions; one unfollowed by hand promotes too, where a primary
// has nothing to unfollow; one whose resume the primary refuses stays a
// standby and says why on Failed.
func TestNodePromotionRule(t *testing.T) {
	pair := func(t *testing.T) (primary, standby *Node) {
		p, s := startReplicatedPair(t)
		reportAll(t, p.Collector, durWorkload(5))
		waitFor(t, func() bool { return s.Collector.IngestCount() == p.Collector.IngestCount() })
		return p, s
	}
	t.Run("drained", func(t *testing.T) {
		p, s := pair(t)
		if err := p.Close(true); err != nil {
			t.Fatal(err)
		}
		waitFor(t, func() bool { return !s.Server.Standby() })
		r, err := DialReporter(s.Addr, WithSessionLog(t.Logf))
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if err := r.Report(RawEvent{Trace: "late", Seq: 1, Kind: event.KindInternal, Type: "x"}); err != nil {
			t.Fatal(err)
		}
		if err := r.Flush(); err != nil || s.Collector.AckFor("late") != 1 {
			t.Fatalf("the promoted standby did not take a session: flush %v, ack %d", err, s.Collector.AckFor("late"))
		}
	})
	t.Run("unfollowed", func(t *testing.T) {
		p, s := pair(t)
		if p.Unfollow() || !s.Unfollow() || s.Server.Standby() {
			t.Fatalf("Unfollow: primary %v, standby still gated %v", p.Unfollow(), s.Server.Standby())
		}
	})
	t.Run("refused resume", func(t *testing.T) {
		p, s := pair(t)
		p.Server.abort()
		openNode(t, Spec{Listen: p.Addr}) // an empty primary: the standby's offset lies beyond it
		select {
		case err := <-s.Failed():
			if !errors.Is(err, ErrSessionRejected) {
				t.Fatalf("Failed yielded %v, want ErrSessionRejected", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("the refused resume never reached Failed")
		}
		if !s.Server.Standby() {
			t.Fatal("the standby promoted on a refused resume")
		}
	})
}
