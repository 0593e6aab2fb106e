package poet

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"ocep/internal/telemetry"
)

// Spec describes one collector node: a standalone server, a warm
// standby (Follow), or a shard of a tier (ShardID and Peers). Each field
// is the poetd flag named in its comment, and its zero value means what
// that comment says; mind that ShardID's is shard 0, so an unsharded
// node sets it negative.
type Spec struct {
	Listen           string        // -listen: the protocol address (port 0: any free port)
	Reload           string        // -reload: a dump or data directory replayed at startup
	Dump             string        // -dump: where Close writes the journal's raw events
	MonitorQueue     int           // -monitor-queue: per-monitor lag bound (0: 65536)
	MonitorPolicy    string        // -monitor-policy: drop (default) or block
	AckInterval      time.Duration // -ack-interval: idle floor of target acks
	Heartbeat        time.Duration // -heartbeat: keep-alive cadence; targets silent 8× this (min 2s) are dead
	DataDir          string        // -data-dir: the write-ahead log's directory
	Fsync            string        // -fsync: always (default), interval or none
	FsyncInterval    time.Duration // -fsync-interval: flush cadence for interval and none (0: 100ms)
	RetainEvents     int           // -retain-events: delivered events kept (0: all, and a journal)
	MaxPending       int           // -max-pending: out-of-order events buffered per trace (0: unbounded)
	MemLimit         string        // -mem-limit: soft heap ceiling in bytes, K/M/G suffixes accepted
	Follow           string        // -follow: the primary this standby replicates
	FollowReconnect  time.Duration // -follow-reconnect: budget before an unreachable primary counts as dead (0: 10s)
	DrainTimeout     time.Duration // -drain-timeout: how long Close(true) drains (0: DefaultDrainWait)
	ShardID          int           // -shard-id: this node's index in Peers; negative disables sharding
	Peers            []string      // -peers, split: every shard's failover pool, in shard order (nil: no -peers)
	PeerStallTimeout time.Duration // -peer-stall-timeout: silence after which a peer reads as stalled (0: never)
}

// Env is what a node is given rather than configured with. Every field
// may be left zero.
type Env struct {
	Logf        func(format string, args ...any) // lifecycle lines: recovery, promotion, shutdown
	SessionLogf func(format string, args ...any) // per-connection diagnostics
	Health      *telemetry.Health                // probes: the node registers its checks here
	Registry    *telemetry.Registry              // nil: no instruments
	sessionOpts []SessionOption                  // follow the node's own on every session it dials (tests' fast backoff)
}

// specValues are a Spec's parsed values.
type specValues struct {
	policy   BackpressurePolicy
	fsync    SyncPolicy
	memLimit int64
}

// Validate reports the first setting or combination of settings a node
// cannot run with. It creates nothing: Open calls it first.
func (s Spec) Validate() error {
	_, err := s.parse()
	return err
}

func (s Spec) parse() (v specValues, err error) {
	switch s.MonitorPolicy {
	case "", "drop":
		v.policy = BackpressureDrop
	case "block":
		v.policy = BackpressureBlock
	default:
		return v, fmt.Errorf("unknown -monitor-policy %q (want drop or block)", s.MonitorPolicy)
	}
	if s.Fsync != "" {
		if v.fsync, err = ParseSyncPolicy(s.Fsync); err != nil {
			return v, fmt.Errorf("-fsync: %w", err)
		}
	}
	if v.memLimit, err = parseBytes(s.MemLimit); err != nil {
		return v, fmt.Errorf("-mem-limit: %w", err)
	}
	for _, rule := range []struct {
		broken bool
		why    string
	}{
		{v.memLimit > 0 && s.RetainEvents <= 0, "-mem-limit needs -retain-events as its starting retention window"},
		{s.Follow != "" && s.Reload != "", "-follow is incompatible with -reload (the standby's state must be the primary's stream, nothing else)"},
		{s.ShardID < 0 && s.Peers != nil, "-peers needs -shard-id"},
		{s.ShardID >= 0 && len(s.Peers) == 0, "-shard-id needs -peers naming every shard in the tier"},
		{s.ShardID >= len(s.Peers) && len(s.Peers) > 0, fmt.Sprintf("-shard-id %d out of range: -peers names %d shards", s.ShardID, len(s.Peers))},
		{s.ShardID >= 0 && s.Reload != "", "-shard-id is incompatible with -reload (a reloaded trace is not striped for this tier)"},
		{s.RetainEvents > 0 && (s.Dump != "" || s.DataDir != ""), "-retain-events is incompatible with the journal that -dump and -data-dir read from record zero"},
		{s.RetainEvents > 0 && s.ShardID >= 0, "-retain-events is incompatible with sharding: -shard-id peers re-stream the export log from record zero"},
	} {
		if rule.broken {
			return v, errors.New(rule.why)
		}
	}
	return v, nil
}

// Node is an open collector node: its collector, its listening server,
// and what it follows.
type Node struct {
	Collector *Collector
	Server    *Server
	Addr      string // the address Server listens on

	spec         Spec
	env          Env
	durable      *Durability
	stopGovernor func()
	failed       chan error
	watched      chan struct{} // closed once a standby's replication has ended
	followers    []shardPeer   // set by Open or watch; read by others once watched is closed

	mu     sync.Mutex
	rep    *Replicator // while following
	closed bool
}

// shardPeer is a follower of the peer shard with that ID.
type shardPeer struct {
	id int
	f  *ShardFollower
}

// Open validates spec and builds the node it describes, in the one
// order that is safe (docs/ARCHITECTURE.md, "Opening a node"): sharding,
// then the journal, retention and admission, then recovery and reload,
// then the server, its instruments and checks, the standby gate, the
// listener, and last the replicator or the shard followers and the
// memory governor.
func Open(spec Spec, env Env) (*Node, error) {
	v, err := spec.parse()
	if err != nil {
		return nil, err
	}
	for _, f := range []*func(string, ...any){&env.Logf, &env.SessionLogf} {
		if *f == nil {
			*f = func(string, ...any) {}
		}
	}
	if env.Health == nil {
		env.Health = telemetry.NewHealth()
	}
	c := NewCollector()
	n := &Node{Collector: c, spec: spec, env: env, failed: make(chan error, 1), stopGovernor: func() {}}
	if spec.ShardID >= 0 {
		if err := c.EnableSharding(spec.ShardID, len(spec.Peers)); err != nil {
			return nil, fmt.Errorf("-shard-id: %w", err)
		}
	}
	heartbeat := spec.Heartbeat
	if heartbeat <= 0 {
		heartbeat = DefaultHeartbeat
	}
	if spec.RetainEvents > 0 {
		env.Logf("note: -retain-events keeps no journal; replica sessions will be rejected")
		if err := c.SetRetention(spec.RetainEvents); err != nil {
			return nil, fmt.Errorf("-retain-events: %w", err)
		}
	} else {
		if err := c.EnableReplicationLog(); err != nil {
			return nil, fmt.Errorf("enabling the journal: %w", err)
		}
		c.SetReplicationAckWait(heartbeat / 2)
	}
	if spec.MaxPending > 0 {
		c.SetAdmissionLimit(spec.MaxPending)
	}
	if spec.DataDir != "" {
		n.durable, err = OpenDurable(c, DurableOptions{Dir: spec.DataDir, Fsync: v.fsync, FsyncInterval: spec.FsyncInterval, Logf: env.Logf})
		if err != nil {
			return nil, fmt.Errorf("opening data directory: %w", err)
		}
		rec := n.durable.Recovery()
		env.Logf("data dir %s: fsync=%s, recovered %d delivered + %d pending events in %v (%d WAL records discarded as corrupt)",
			spec.DataDir, v.fsync, rec.Delivered, rec.Pending, rec.Elapsed.Round(time.Millisecond), rec.DiscardedRecords)
	}
	n.Server = NewServer(c, env.SessionLogf)
	if err := n.start(spec, v, heartbeat); err != nil {
		n.Server.abort()
		if n.durable != nil {
			_ = n.durable.Close()
		}
		return nil, err
	}
	return n, nil
}

// start is Open from the reload on: a failure from here closes the
// server and the data directory.
func (n *Node) start(spec Spec, v specValues, heartbeat time.Duration) error {
	c, s, env := n.Collector, n.Server, n.env
	if spec.Reload != "" {
		k, err := c.ReloadFile(spec.Reload)
		if err != nil {
			return fmt.Errorf("reload: %w", err)
		}
		env.Logf("reloaded %d events from %s", k, spec.Reload)
	}
	s.SetMonitorQueue(spec.MonitorQueue, v.policy)
	s.SetWireTiming(spec.AckInterval, heartbeat, max(8*heartbeat, 2*time.Second))
	if env.Registry != nil {
		c.InstrumentMetrics(env.Registry) // and the attached durability
		s.InstrumentMetrics(env.Registry)
		telemetry.RegisterRuntimeMetrics(env.Registry)
	}
	for _, check := range []struct {
		name  string
		fails func() bool
		why   string
	}{
		{"overload", s.Shedding, "shedding load: collector above its -max-pending admission limit"},
		{"standby", s.Standby, "standby: replicating from " + spec.Follow + ", not promoted"},
		{"draining", s.Draining, "draining: shutting down, no new sessions"},
	} {
		env.Health.RegisterCheck(check.name, func() error {
			if check.fails() {
				return errors.New(check.why)
			}
			return nil
		})
	}
	s.SetStandby(spec.Follow != "")
	var err error
	if n.Addr, err = s.Listen(spec.Listen); err != nil {
		return err
	}
	if spec.Follow == "" {
		n.followShardPeers()
	} else {
		opts := []SessionOption{WithSessionLog(env.SessionLogf), WithSessionHeartbeat(heartbeat)}
		if spec.FollowReconnect > 0 {
			opts = append(opts, WithSessionReconnect(spec.FollowReconnect))
		}
		rep, err := FollowPrimary(spec.Follow, c, append(opts, env.sessionOpts...)...)
		if err != nil {
			return fmt.Errorf("-follow: %w", err)
		}
		env.Logf("standby: replicating from %s (already applied %d events)", spec.Follow, c.IngestCount())
		if env.Registry != nil {
			env.Registry.GaugeFunc("poet_replica_lag_events", "Events the primary has ingested that this standby has not yet applied.", func() int64 {
				return int64(rep.Stats().Lag)
			})
		}
		n.rep, n.watched = rep, make(chan struct{})
		go n.watch(rep)
	}
	n.stopGovernor = startMemGovernor(c, v.memLimit, spec.RetainEvents, env.Logf)
	return nil
}

// watch applies the promotion rule once a standby's replication ends:
// a stop (nil), a drained primary, or a primary lost past the reconnect
// budget promotes the node and starts its deferred shard followers; a
// refused resume is fatal — the pairing is wrong — and goes to Failed.
func (n *Node) watch(rep *Replicator) {
	defer close(n.watched)
	<-rep.Done()
	err, st := rep.Err(), rep.Stats()
	n.mu.Lock()
	n.rep = nil
	closed := n.closed
	n.mu.Unlock()
	switch rejected := errors.Is(err, ErrSessionRejected); {
	case closed:
	case err == nil, errors.Is(err, ErrPrimaryDrained), errors.Is(err, ErrStreamInterrupted) && !rejected:
		reason := "manual stop"
		if err != nil {
			reason = err.Error()
		}
		n.Server.Promote()
		n.env.Logf("promoted (%s): %d events applied, %d replication reconnects", reason, st.Applied, st.Reconnects)
		n.followShardPeers()
	default:
		n.failed <- fmt.Errorf("replication from %s failed: %w", n.spec.Follow, err)
	}
}

// Failed yields the error a standby's replication ended with when that
// end does not promote it (a refused resume); nothing else is sent.
func (n *Node) Failed() <-chan error { return n.failed }

// Unfollow detaches a standby from its primary; promotion follows as
// for a drained primary. It reports false when the node follows nothing.
func (n *Node) Unfollow() bool {
	n.mu.Lock()
	rep := n.rep
	n.mu.Unlock()
	if rep == nil {
		return false
	}
	n.env.Logf("detaching from %s for manual promotion", n.spec.Follow)
	rep.Stop()
	<-n.watched
	return true
}

// followShardPeers attaches the cross-shard exchange: a follower
// per peer shard, each tailing that peer's export stream through its
// failover pool, with their probe lines and gauges.
func (n *Node) followShardPeers() {
	spec, env, c := n.spec, n.env, n.Collector
	if spec.ShardID < 0 || len(spec.Peers) < 2 || n.followers != nil {
		return
	}
	for i, p := range spec.Peers {
		if i == spec.ShardID {
			continue
		}
		// The breaker keeps a node useful next to a dead peer: after two
		// exhausted reconnect budgets the follower stops burning dial
		// loops and probes every 5s until the peer returns.
		opts := append([]SessionOption{WithSessionLog(env.SessionLogf), WithShardBreaker(2, 5*time.Second)}, env.sessionOpts...)
		f, err := FollowShardPeer(p, c, opts...)
		if err != nil {
			env.Logf("shard peer %d (%s): %v", i, p, err)
			continue
		}
		n.followers = append(n.followers, shardPeer{i, f})
		env.Health.RegisterInfo(fmt.Sprintf("shard-peer-%d", i), func() string {
			st := f.Stats()
			return fmt.Sprintf("pool=%s connected=%v lag=%d reconnects=%d breaker=%s last-contact=%s",
				st.Peer, st.Connected, st.Lag, st.Reconnects, breakerNames[st.BreakerState],
				st.SinceContact.Round(time.Millisecond))
		})
	}
	env.Logf("shard %d/%d: following %d peer export streams", spec.ShardID, len(spec.Peers), len(n.followers))
	followers, stall := n.followers, spec.PeerStallTimeout
	// The stall watchdog: a silent peer may hold receives here
	// indefinitely, so the balancer should route elsewhere until the
	// exchange heals.
	env.Health.RegisterCheck("shard-peers", func() error {
		if stall <= 0 {
			return nil
		}
		var stalled []string
		for _, sp := range followers {
			if sp.f.Stalled(stall) {
				st := sp.f.Stats()
				stalled = append(stalled, fmt.Sprintf("peer %d (%s) silent for %s, breaker=%s",
					sp.id, st.Peer, st.SinceContact.Round(time.Millisecond), breakerNames[st.BreakerState]))
			}
		}
		if len(stalled) == 0 {
			return nil
		}
		ss := c.ShardStats()
		return fmt.Errorf("export stream stalled past %v: %s; %d receives held (oldest %s)",
			stall, strings.Join(stalled, "; "), ss.HeldEvents, ss.OldestHeld.Round(time.Millisecond))
	})
	env.Health.RegisterInfo("shard-held", func() string {
		ss := c.ShardStats()
		if ss.HeldEvents == 0 {
			return "0 receives held on the cross-shard exchange"
		}
		return fmt.Sprintf("%d receives held on the cross-shard exchange (oldest %s)",
			ss.HeldEvents, ss.OldestHeld.Round(time.Millisecond))
	})
	if env.Registry == nil || len(followers) == 0 {
		return
	}
	gauge := func(name, help string, of func(*ShardFollower) int64, worst bool) {
		env.Registry.GaugeFunc(name, help, func() (v int64) {
			for _, sp := range followers {
				if x := of(sp.f); !worst {
					v += x
				} else if x > v {
					v = x
				}
			}
			return v
		})
	}
	gauge("poet_shard_peer_lag_records", "Cross-shard send records peers have exported that this shard has not yet applied, summed over all peers.",
		func(f *ShardFollower) int64 { return int64(f.Stats().Lag) }, false)
	gauge("poet_shard_peer_reconnects", "Peer export-stream reconnects, summed over all peers.",
		func(f *ShardFollower) int64 { return int64(f.Stats().Reconnects) }, false)
	gauge("poet_shard_peer_breaker_state", "Worst circuit-breaker state over all peer followers (0 closed, 1 half-open, 2 open).",
		func(f *ShardFollower) int64 { return int64(f.Stats().BreakerState) }, true)
	gauge("poet_shard_peer_stalled", "Peer export streams currently silent past -peer-stall-timeout.",
		func(f *ShardFollower) int64 {
			if f.Stalled(stall) {
				return 1
			}
			return 0
		}, false)
	gauge("poet_shard_peer_last_contact_ms", "Age in milliseconds of the stalest peer's last sign of life.",
		func(f *ShardFollower) int64 { return f.Stats().SinceContact.Milliseconds() }, true)
}

// breakerNames render follower breaker states for probe bodies.
var breakerNames = [...]string{BreakerClosed: "closed", BreakerHalfOpen: "half-open", BreakerOpen: "open"}

// Close shuts the node down in order: its replicator and shard
// followers stop, the server drains (up to the spec's DrainTimeout) or
// closes at once, the write-ahead log is synced and closed, and the
// journal is dumped. Calls after the first do nothing.
func (n *Node) Close(drain bool) error {
	n.mu.Lock()
	closed := n.closed
	n.closed = true
	rep := n.rep
	n.mu.Unlock()
	if closed {
		return nil
	}
	if rep != nil {
		rep.Stop()
	}
	if n.watched != nil {
		<-n.watched
	}
	for _, sp := range n.followers {
		sp.f.Stop()
	}
	n.stopGovernor()
	if drain {
		if err := n.Server.Drain(n.spec.DrainTimeout); err != nil {
			n.env.Logf("drain: %v", err)
		}
	} else if err := n.Server.Close(); err != nil {
		n.env.Logf("close: %v", err)
	}
	if n.durable != nil {
		if err := n.durable.Close(); err != nil {
			return fmt.Errorf("closing data directory: %w", err)
		}
		n.env.Logf("data dir %s: write-ahead log synced and closed", n.spec.DataDir)
	}
	if n.spec.Dump != "" {
		if err := n.Collector.DumpFile(n.spec.Dump); err != nil {
			return fmt.Errorf("dump: %w", err)
		}
		n.env.Logf("dumped trace to %s", n.spec.Dump)
	}
	return nil
}

// parseBytes parses a byte count with an optional K/M/G suffix
// (case-insensitive; "KiB"/"MB" style spellings accepted). Empty means
// 0 (disabled).
func parseBytes(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, nil
	}
	num := s
	var mult int64 = 1
	upper := strings.ToUpper(strings.TrimSuffix(strings.TrimSuffix(strings.ToUpper(s), "B"), "I"))
	for suffix, m := range map[string]int64{"K": 1 << 10, "M": 1 << 20, "G": 1 << 30} {
		if strings.HasSuffix(upper, suffix) {
			num = strings.TrimSuffix(upper, suffix)
			mult = m
			break
		}
	}
	if mult == 1 {
		num = upper
	}
	n, err := strconv.ParseInt(strings.TrimSpace(num), 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("not a byte count: %q", s)
	}
	return n * mult, nil
}

// startMemGovernor enforces a soft heap ceiling: the runtime's GC
// target is set to it (so collection intensifies as the ceiling
// nears), and a sampler halves the collector's retention window each
// time the live heap crosses 85% of the ceiling — shedding history
// instead of growing without bound. Returns a stop func; a no-op when
// no ceiling is set.
func startMemGovernor(c *Collector, ceiling int64, keep int, logf func(string, ...any)) func() {
	if ceiling <= 0 {
		return func() {}
	}
	prev := debug.SetMemoryLimit(ceiling)
	stop := make(chan struct{})
	go func() {
		const (
			pollEvery = 500 * time.Millisecond
			floor     = 256
		)
		trip := ceiling - ceiling/8 + ceiling/40 // ~85%
		t := time.NewTicker(pollEvery)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
			}
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			if int64(ms.HeapAlloc) <= trip || keep <= floor {
				continue
			}
			keep /= 2
			if keep < floor {
				keep = floor
			}
			if err := c.SetRetention(keep); err != nil {
				logf("mem governor: tightening retention: %v", err)
				return
			}
			logf("mem governor: heap %d MiB over 85%% of the %d MiB ceiling; retention tightened to %d events",
				ms.HeapAlloc>>20, ceiling>>20, keep)
		}
	}()
	return func() {
		close(stop)
		debug.SetMemoryLimit(prev)
	}
}
