// Command poetd runs a standalone POET collector server: instrumented
// targets connect to report raw events, monitor clients (e.g. ocepmon)
// connect to receive the linearized, vector-timestamped event stream.
//
// Usage:
//
//	poetd [-listen addr] [-reload trace.poet|datadir] [-dump trace.poet]
//	      [-data-dir dir] [-fsync always|interval|none]
//	      [-fsync-interval d] [-snapshot-every n]
//	      [-monitor-queue n] [-monitor-policy drop|block]
//	      [-ack-interval d] [-heartbeat d] [-metrics-addr addr] [-quiet]
//	      [-retain-events n] [-max-pending n] [-mem-limit bytes]
//	      [-follow primaryaddr] [-drain-timeout d]
//	      [-shard-id n -peers "s0a,s0b;s1;s2"]
//
// The collector keeps one journal of what it ingested, in ingestion
// order; -dump, -data-dir and replica sessions all read it.
//
// With -dump, the journal's raw events are written to the given file on
// shutdown (SIGINT/SIGTERM), reusable later with -reload — POET's dump
// and reload features. -reload also accepts a -data-dir directory,
// replaying its recovered state (snapshot plus write-ahead log) into a
// fresh collector.
//
// With -data-dir, the collector is crash-durable: the journal is
// write-ahead-logged to the directory (fsync policy selected by
// -fsync), a snapshot of it is written every -snapshot-every events (and
// on clean shutdown) after which the redundant log prefix is truncated,
// and a restart against the same directory recovers the collector —
// event store, vector clocks, ack watermarks, monitor stream offsets
// and a standby's replication offset — to the exact state peers expect,
// truncating the log at the first torn or corrupt record rather than
// refusing to start. Under
// -fsync always an acknowledged event is never lost, so reconnecting
// reporters and resuming monitors compose transparently with crash
// recovery.
//
// Each monitor connection reads the delivery log through its own cursor,
// with a bounded lag (-monitor-queue events). With -monitor-policy drop
// (the default) a monitor that lags past it is evicted and disconnected,
// to resume from its offset, so it cannot stall the collector; with
// block, ingestion throttles to the slowest monitor and no monitor is
// ever disconnected for lagging.
//
// The wire layer is fault-tolerant: target connections are acknowledged
// after every burst the server ingests, so reporters release their
// retransmit windows as fast as the server works, and at least every
// -ack-interval, which doubles as their heartbeat; idle monitor streams
// carry a keep-alive frame every -heartbeat, and a target silent for 8x
// the heartbeat interval (minimum 2s) is declared dead and its
// connection reclaimed.
// Reconnecting peers resume their sessions: reporters replay only what
// was never acknowledged, monitors continue from the exact event index
// they had reached.
//
// With -metrics-addr, a second listener serves operational telemetry:
// /metrics (Prometheus text), /debug/vars (the same registry as JSON),
// /debug/pprof, and the /healthz + /readyz probe pair. The metrics
// listener is deliberately separate from -listen so scrapes never share
// a socket with the protocol stream, and it starts before crash
// recovery so orchestration can distinguish "recovering" (alive, not
// ready: /readyz answers 503) from "dead" (probe times out). /readyz
// also answers 503 while the server is shedding load.
//
// Resource governance: -retain-events bounds the collector's memory by
// evicting the oldest delivered events past the bound (such a daemon
// keeps no journal, so not with -dump, -data-dir or -shard-id, whose
// readers start from record zero); -max-pending caps
// the out-of-order events buffered per trace, shedding the excess back
// onto reporter buffers; -mem-limit sets a soft heap ceiling (bytes,
// with optional K/M/G suffix) — the Go runtime GC target is set to it,
// a sampler watches the heap, and each time usage crosses 85% of the
// ceiling the retention window is halved, trading history depth for a
// flat footprint. -mem-limit requires -retain-events as its starting
// window.
//
// High availability: with -follow, poetd starts as a warm standby of
// the primary at the given address — it listens, answers queries and
// probes, and tails the primary's replication stream into its own
// collector (and WAL, with -data-dir), but rejects reporter/monitor
// sessions with a retriable ack until promoted. Promotion happens when
// the primary drains cleanly, when it stays unreachable past the
// replication reconnect budget (-follow-reconnect), or on SIGUSR1
// (manual). Clients given a
// comma-separated endpoint pool ("primary:7524,standby:7524") fail over
// to the promoted standby and resume their sessions exactly — no event
// lost, duplicated, or reordered. The standby's /readyz answers 503
// ("standby") until promotion, and poet_replica_lag_events on the
// metrics listener tracks how far it trails the primary.
//
// Unless -retain-events is set, every poetd keeps the journal and serves
// replica sessions, so a promoted standby can in turn be followed.
//
// Horizontal sharding: with -shard-id and -peers, this poetd is one
// shard of a collector tier. -peers names every shard in the tier,
// ';'-separated and ordered by shard ID; each entry may itself be a
// comma-separated failover pool for that shard (primary first). The
// daemon stripes its global trace IDs so they never collide with the
// other shards', tails every peer's cross-shard send-export stream
// (dialing through that peer's pool), and serves its own export stream
// to them, so receives whose matching send was reported to another
// shard still causally order. Peer followers always re-stream from
// record zero after a reconnect — duplicates are absorbed as idempotent
// no-ops — which is what makes a peer's crash, restart, or failover to
// its standby invisible here. A sharded standby (-follow plus -shard-id)
// defers its peer followers until it is promoted: until then the
// primary's replication stream is the only writer of its state.
// A sharded daemon refuses -reload and -retain-events.
//
// Shutdown: SIGTERM drains gracefully — new sessions are rejected,
// connected peers receive a drain notice (pooled clients fail over
// immediately), reporter acks keep flowing while targets flush, and
// after at most -drain-timeout the server closes with End frames.
// SIGINT skips the drain and closes at once.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ocep/internal/poet"
	"ocep/internal/shard"
	"ocep/internal/telemetry"
)

func main() {
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	log.SetPrefix("poetd: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// breakerName renders a follower breaker state for probe bodies.
func breakerName(state int) string {
	switch state {
	case poet.BreakerOpen:
		return "open"
	case poet.BreakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

func run() error {
	var (
		listen    = flag.String("listen", "127.0.0.1:7524", "address to listen on")
		reload    = flag.String("reload", "", "trace file to replay into the collector at startup")
		dump      = flag.String("dump", "", "write the journal's raw events, in ingestion order, to this file on shutdown")
		monQueue  = flag.Int("monitor-queue", 0, "per-monitor delivery queue depth (0 = default 65536)")
		monPolicy = flag.String("monitor-policy", "drop", "full-queue policy: drop (disconnect laggards) or block (throttle ingestion)")
		ackEvery  = flag.Duration("ack-interval", poet.DefaultAckInterval, "idle floor of ingestion acknowledgements to targets (acks also follow every ingested burst)")
		heartbeat = flag.Duration("heartbeat", poet.DefaultHeartbeat, "idle keep-alive cadence on monitor streams; targets silent for 8x this (min 2s) are declared dead")
		metrics   = flag.String("metrics-addr", "", "address for the telemetry listener (/metrics, /debug/vars, /debug/pprof); empty disables it")
		quiet     = flag.Bool("quiet", false, "suppress per-connection diagnostics")

		dataDir   = flag.String("data-dir", "", "directory for the journal's write-ahead log and snapshots; enables crash-durable operation and recovery on restart")
		fsyncMode = flag.String("fsync", "always", "WAL durability: always (fsync before acking), interval (periodic fsync), none (OS page cache only)")
		fsyncInt  = flag.Duration("fsync-interval", 100*time.Millisecond, "flush/fsync cadence for -fsync interval and none")
		snapEvery = flag.Int("snapshot-every", 0, "snapshot + WAL truncation every n ingested events (0 = default 8192, negative = only on shutdown)")

		retain     = flag.Int("retain-events", 0, "bound the delivered-event log: evict the oldest events past this count (0 = keep everything); such a daemon keeps no journal, so not with -dump, -data-dir or -shard-id")
		maxPending = flag.Int("max-pending", 0, "cap the out-of-order events buffered per trace; excess reports are shed back onto reporter buffers (0 = unbounded)")
		memLimit   = flag.String("mem-limit", "", "soft heap ceiling in bytes (K/M/G suffixes accepted); halves -retain-events each time the heap crosses 85% of it")

		follow       = flag.String("follow", "", "run as a warm standby replicating from the primary at this address; promoted when the primary drains or dies, or on SIGUSR1")
		followBudget = flag.Duration("follow-reconnect", 0, "cumulative backoff budget before an unreachable primary is declared dead and the standby promotes itself (0 = default 10s)")
		drainWait    = flag.Duration("drain-timeout", poet.DefaultDrainWait, "on SIGTERM, how long the graceful drain waits for targets to flush and replicas to catch up before closing")

		shardID   = flag.Int("shard-id", -1, "this daemon's 0-based shard ID within the -peers tier; -1 disables sharding")
		peers     = flag.String("peers", "", "the whole collector tier, ';'-separated and ordered by shard ID; each entry is that shard's comma-separated failover pool (required with -shard-id)")
		peerStall = flag.Duration("peer-stall-timeout", 10*time.Second, "declare a peer's export stream stalled after this long without a record, heartbeat, or successful handshake: /readyz answers 503 naming the peer and held-event debt (0 disables the watchdog)")
	)
	flag.Parse()

	logf := log.Printf
	if *quiet {
		logf = func(string, ...any) {}
	}

	memCeiling, err := parseBytes(*memLimit)
	if err != nil {
		return fmt.Errorf("-mem-limit: %w", err)
	}
	if memCeiling > 0 && *retain <= 0 {
		return fmt.Errorf("-mem-limit needs -retain-events as its starting retention window")
	}
	if *follow != "" && *reload != "" {
		return fmt.Errorf("-follow is incompatible with -reload (the standby's state must be the primary's stream, nothing else)")
	}
	var shardPools []string
	if *shardID >= 0 {
		shardPools = shard.SplitSpec(*peers)
		if len(shardPools) == 0 {
			return fmt.Errorf("-shard-id needs -peers naming every shard in the tier")
		}
		if *shardID >= len(shardPools) {
			return fmt.Errorf("-shard-id %d out of range: -peers names %d shards", *shardID, len(shardPools))
		}
		if *reload != "" {
			return fmt.Errorf("-shard-id is incompatible with -reload (a reloaded trace is not striped for this tier)")
		}
	} else if *peers != "" {
		return fmt.Errorf("-peers needs -shard-id")
	}

	collector := poet.NewCollector()
	if *shardID >= 0 {
		// Before recovery: the striped trace-ID space must be fixed before
		// any event — replayed or live — is registered.
		if err := collector.EnableSharding(*shardID, len(shardPools)); err != nil {
			return fmt.Errorf("-shard-id: %w", err)
		}
	}
	if *dump != "" || *dataDir != "" || *retain == 0 {
		// The journal: what the dump and the snapshots are written from and
		// what warm standbys tail — every non-evicting poetd keeps it, so a
		// promoted standby can in turn be followed. Before recovery/-reload:
		// every reader needs it from the first record.
		if err := collector.EnableReplicationLog(); err != nil {
			return fmt.Errorf("enabling the journal: %w", err)
		}
		// Withheld acks must still leave room for the empty frame to
		// heartbeat the reporter within its peer timeout.
		collector.SetReplicationAckWait(*heartbeat / 2)
	} else {
		log.Printf("note: -retain-events keeps no journal; replica sessions will be rejected")
	}
	if *retain > 0 {
		// The library refuses a collector whose journal or export log is
		// on; these are the flags that turn them on.
		if err := collector.SetRetention(*retain); err != nil {
			return fmt.Errorf("-retain-events cannot be combined with -dump, -data-dir or -shard-id: %w", err)
		}
	}
	if *maxPending > 0 {
		collector.SetAdmissionLimit(*maxPending)
	}

	// The health/metrics listener starts before recovery: a poetd
	// replaying a large write-ahead log is alive but not ready, and
	// orchestration needs the probes to say so instead of timing out.
	health := telemetry.NewHealth()
	var ready atomic.Bool
	health.RegisterCheck("startup", func() error {
		if !ready.Load() {
			return fmt.Errorf("starting: recovery or reload still in progress")
		}
		return nil
	})
	reg := telemetry.NewRegistry()
	var metricsSrv *http.Server
	if *metrics != "" {
		mux := http.NewServeMux()
		mux.Handle("/", telemetry.Handler(reg))
		health.Mount(mux)
		ln, err := net.Listen("tcp", *metrics)
		if err != nil {
			return fmt.Errorf("-metrics-addr: %w", err)
		}
		metricsSrv = &http.Server{Handler: mux}
		go func() {
			if err := metricsSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
				log.Printf("metrics listener: %v", err)
			}
		}()
		log.Printf("metrics on http://%s/metrics (probes: /healthz, /readyz)", ln.Addr())
	}

	var durable *poet.Durability
	if *dataDir != "" {
		policy, err := poet.ParseSyncPolicy(*fsyncMode)
		if err != nil {
			return fmt.Errorf("-fsync: %w", err)
		}
		durable, err = poet.OpenDurable(collector, poet.DurableOptions{
			Dir:           *dataDir,
			Fsync:         policy,
			FsyncInterval: *fsyncInt,
			SnapshotEvery: *snapEvery,
			Logf:          log.Printf,
		})
		if err != nil {
			return fmt.Errorf("opening data directory: %w", err)
		}
		rec := durable.Recovery()
		log.Printf("data dir %s: fsync=%s, recovered %d delivered + %d pending events in %v (%d WAL records discarded as corrupt)",
			*dataDir, policy, rec.Delivered, rec.Pending, rec.Elapsed.Round(time.Millisecond), rec.DiscardedRecords)
	}
	if *reload != "" {
		n, err := collector.ReloadFile(*reload)
		if err != nil {
			return fmt.Errorf("reload: %w", err)
		}
		log.Printf("reloaded %d events from %s", n, *reload)
	}
	server := poet.NewServer(collector, logf)
	switch *monPolicy {
	case "drop":
		server.SetMonitorQueue(*monQueue, poet.BackpressureDrop)
	case "block":
		server.SetMonitorQueue(*monQueue, poet.BackpressureBlock)
	default:
		return fmt.Errorf("unknown -monitor-policy %q (want drop or block)", *monPolicy)
	}
	// Dead-peer detection tracks the heartbeat cadence: a peer is given
	// eight missed heartbeats (but never less than 2s) before its
	// connection is reclaimed.
	peerTimeout := 8 * *heartbeat
	if peerTimeout < 2*time.Second {
		peerTimeout = 2 * time.Second
	}
	server.SetWireTiming(*ackEvery, *heartbeat, peerTimeout)

	// Instruments attach after recovery and reload so the counters
	// describe live traffic, not the replayed prefix, and before Listen
	// so every connection is counted from the first byte. The registry
	// was already being served; metrics appear on the next scrape.
	if *metrics != "" {
		collector.InstrumentMetrics(reg) // also instruments the attached durability
		server.InstrumentMetrics(reg)
		telemetry.RegisterRuntimeMetrics(reg)
	}
	// A server parked on overloaded reporters is alive but should stop
	// receiving new traffic from the balancer until the backlog drains.
	health.RegisterCheck("overload", func() error {
		if server.Shedding() {
			return fmt.Errorf("shedding load: collector above its -max-pending admission limit")
		}
		return nil
	})
	// An unpromoted standby and a draining server are both alive but
	// must not receive new sessions from the balancer.
	health.RegisterCheck("standby", func() error {
		if server.Standby() {
			return fmt.Errorf("standby: replicating from %s, not promoted", *follow)
		}
		return nil
	})
	health.RegisterCheck("draining", func() error {
		if server.Draining() {
			return fmt.Errorf("draining: shutting down, no new sessions")
		}
		return nil
	})

	stopSampler := startMemGovernor(collector, memCeiling, *retain)
	defer stopSampler()

	if *follow != "" {
		// Gate sessions before the listener opens: a client that races
		// the standby's startup must see a retriable rejection, never an
		// accepted session on unreplicated state.
		server.SetStandby(true)
	}
	addr, err := server.Listen(*listen)
	if err != nil {
		return err
	}
	// Handle the signals before reporting ready: a SIGTERM sent the moment
	// /readyz answers 200 must drain, not kill, the daemon.
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM, syscall.SIGUSR1)
	ready.Store(true)
	log.Printf("listening on %s", addr)

	// startShardFollowers attaches the cross-shard exchange: one follower
	// per peer shard, each tailing that peer's export stream through its
	// failover pool. A standby defers this until promotion — until then
	// the primary's replication stream must be the only writer of its
	// state, or the standby's linearization could diverge from the
	// primary's.
	type shardPeer struct {
		id int
		f  *poet.ShardFollower
	}
	var shardFollowers []shardPeer
	startShardFollowers := func() {
		if *shardID < 0 || len(shardPools) < 2 || shardFollowers != nil {
			return
		}
		for i, p := range shardPools {
			if i == *shardID {
				continue
			}
			// The breaker keeps a daemon useful next to a dead peer: after
			// two exhausted reconnect budgets the follower stops burning
			// dial loops and probes every 5s until the peer returns.
			f, err := poet.FollowShardPeer(p, collector,
				poet.WithSessionLog(logf),
				poet.WithShardBreaker(2, 5*time.Second))
			if err != nil {
				log.Printf("shard peer %d (%s): %v", i, p, err)
				continue
			}
			peer := shardPeer{id: i, f: f}
			shardFollowers = append(shardFollowers, peer)
			// Per-peer follower health on every /readyz body, even while
			// the probe passes: operators see lag and breaker state before
			// the stall threshold trips.
			health.RegisterInfo(fmt.Sprintf("shard-peer-%d", i), func() string {
				st := peer.f.Stats()
				return fmt.Sprintf("pool=%s connected=%v lag=%d reconnects=%d breaker=%s last-contact=%s",
					st.Peer, st.Connected, st.Lag, st.Reconnects, breakerName(st.BreakerState),
					st.SinceContact.Round(time.Millisecond))
			})
		}
		log.Printf("shard %d/%d: following %d peer export streams", *shardID, len(shardPools), len(shardFollowers))
		peersSnap := shardFollowers
		// The stall watchdog: a peer silent past -peer-stall-timeout means
		// this shard may be holding receives indefinitely, so the balancer
		// should stop routing new sessions here until the exchange heals.
		health.RegisterCheck("shard-peers", func() error {
			if *peerStall <= 0 {
				return nil
			}
			var stalled []string
			for _, sp := range peersSnap {
				if sp.f.Stalled(*peerStall) {
					st := sp.f.Stats()
					stalled = append(stalled, fmt.Sprintf("peer %d (%s) silent for %s, breaker=%s",
						sp.id, st.Peer, st.SinceContact.Round(time.Millisecond), breakerName(st.BreakerState)))
				}
			}
			if len(stalled) == 0 {
				return nil
			}
			ss := collector.ShardStats()
			return fmt.Errorf("export stream stalled past %v: %s; %d receives held (oldest %s)",
				*peerStall, strings.Join(stalled, "; "), ss.HeldEvents, ss.OldestHeld.Round(time.Millisecond))
		})
		health.RegisterInfo("shard-held", func() string {
			ss := collector.ShardStats()
			if ss.HeldEvents == 0 {
				return "0 receives held on the cross-shard exchange"
			}
			return fmt.Sprintf("%d receives held on the cross-shard exchange (oldest %s)",
				ss.HeldEvents, ss.OldestHeld.Round(time.Millisecond))
		})
		if *metrics != "" && len(shardFollowers) > 0 {
			followers := shardFollowers
			reg.GaugeFunc("poet_shard_peer_lag_records", "Cross-shard send records peers have exported that this shard has not yet applied, summed over all peers.", func() int64 {
				var lag int64
				for _, sp := range followers {
					lag += int64(sp.f.Stats().Lag)
				}
				return lag
			})
			reg.GaugeFunc("poet_shard_peer_reconnects", "Peer export-stream reconnects, summed over all peers.", func() int64 {
				var n int64
				for _, sp := range followers {
					n += int64(sp.f.Stats().Reconnects)
				}
				return n
			})
			reg.GaugeFunc("poet_shard_peer_breaker_state", "Worst circuit-breaker state over all peer followers (0 closed, 1 half-open, 2 open).", func() int64 {
				var worst int64
				for _, sp := range followers {
					if s := int64(sp.f.Stats().BreakerState); s > worst {
						worst = s
					}
				}
				return worst
			})
			reg.GaugeFunc("poet_shard_peer_stalled", "Peer export streams currently silent past -peer-stall-timeout.", func() int64 {
				var n int64
				for _, sp := range followers {
					if sp.f.Stalled(*peerStall) {
						n++
					}
				}
				return n
			})
			reg.GaugeFunc("poet_shard_peer_last_contact_ms", "Age in milliseconds of the stalest peer's last sign of life.", func() int64 {
				var worst time.Duration
				for _, sp := range followers {
					if s := sp.f.Stats().SinceContact; s > worst {
						worst = s
					}
				}
				return worst.Milliseconds()
			})
		}
	}
	if *follow == "" {
		startShardFollowers()
	}

	var rep *poet.Replicator
	if *follow != "" {
		repOpts := []poet.SessionOption{
			poet.WithSessionLog(logf),
			poet.WithSessionHeartbeat(*heartbeat),
		}
		if *followBudget > 0 {
			repOpts = append(repOpts, poet.WithSessionReconnect(*followBudget))
		}
		rep, err = poet.FollowPrimary(*follow, collector, repOpts...)
		if err != nil {
			return fmt.Errorf("-follow: %w", err)
		}
		log.Printf("standby: replicating from %s (already applied %d events)", *follow, collector.IngestCount())
		if *metrics != "" {
			reg.GaugeFunc("poet_replica_lag_events", "Events the primary has ingested that this standby has not yet applied.", func() int64 {
				return int64(rep.Stats().Lag)
			})
		}
	}
	// repDone yields the replicator's completion channel, or a nil
	// channel (blocks forever) once following has ended.
	following := rep
	repDone := func() <-chan struct{} {
		if following != nil {
			return following.Done()
		}
		return nil
	}

	drain := false
waitLoop:
	for {
		select {
		case s := <-sig:
			switch s {
			case syscall.SIGUSR1:
				if following != nil {
					log.Printf("SIGUSR1: detaching from primary for manual promotion")
					following.Stop()
					continue // promotion completes via Done below
				}
				log.Printf("SIGUSR1 ignored: not a standby")
				continue
			case syscall.SIGTERM:
				drain = true
			}
			break waitLoop
		case <-repDone():
			err := following.Err()
			st := following.Stats()
			following = nil
			// A refused resume wraps ErrStreamInterrupted too, and is fatal.
			switch rejected := errors.Is(err, poet.ErrSessionRejected); {
			case err == nil, errors.Is(err, poet.ErrPrimaryDrained), errors.Is(err, poet.ErrStreamInterrupted) && !rejected:
				reason := "manual stop"
				if err != nil {
					reason = err.Error()
				}
				server.Promote()
				log.Printf("promoted (%s): %d events applied, %d replication reconnects", reason, st.Applied, st.Reconnects)
				// Only now may a sharded standby start exchanging with its
				// peers: the from-zero re-stream replays every cross-shard
				// record the old primary had applied, idempotently.
				startShardFollowers()
			default:
				return fmt.Errorf("replication from %s failed: %w", *follow, err)
			}
		}
	}
	if following != nil {
		// Shutting down while still a standby: detach cleanly.
		following.Stop()
		<-following.Done()
	}
	for _, sp := range shardFollowers {
		sp.f.Stop()
	}
	log.Printf("shutting down: %d events delivered, %d pending",
		collector.Delivered(), collector.Pending())
	if ss := collector.ShardStats(); ss.Enabled {
		log.Printf("shard %d/%d: %d home traces, %d send exports, %d remote sends applied",
			ss.ShardID, ss.NumShards, ss.HomeTraces, ss.Exports, ss.RemoteSends)
	}
	if ws := server.WireStats(); ws.StaleEvents > 0 || ws.TargetResumes > 0 || ws.MonitorResumes > 0 || ws.LoadSheds > 0 {
		log.Printf("wire: %d stale retransmits absorbed, %d target resumes, %d monitor resumes, %d load sheds",
			ws.StaleEvents, ws.TargetResumes, ws.MonitorResumes, ws.LoadSheds)
	}
	if ws := server.WireStats(); ws.ReplicaSessions > 0 || ws.ReplicaEvents > 0 {
		log.Printf("replication: %d replica sessions served, %d events streamed, final lag %d",
			ws.ReplicaSessions, ws.ReplicaEvents, ws.ReplicationLag)
	}
	if rs := collector.RetentionStats(); rs.Evicted > 0 {
		log.Printf("retention: evicted %d delivered events (%d released from the store), %d retained",
			rs.Evicted, rs.StoreCompacted, rs.Retained)
	}
	for _, ts := range collector.TraceStats() {
		log.Printf("  trace %-20s delivered=%d comm=%d buffered=%d",
			ts.Name, ts.Delivered, ts.Comm, ts.Buffered)
	}
	if drain {
		// SIGTERM: orderly drain — reject new sessions, notify connected
		// peers (pooled clients fail over at once), let targets flush and
		// replicas catch up, then close with End frames.
		if err := server.Drain(*drainWait); err != nil {
			log.Printf("drain: %v", err)
		}
	} else if err := server.Close(); err != nil {
		log.Printf("close: %v", err)
	}
	if metricsSrv != nil {
		_ = metricsSrv.Close()
	}
	if durable != nil {
		// Clean shutdown: final snapshot, WAL truncated, so the next start
		// recovers from the snapshot alone.
		if err := durable.Close(); err != nil {
			return fmt.Errorf("closing data directory: %w", err)
		}
		log.Printf("data dir %s: final snapshot written, WAL truncated", *dataDir)
	}
	if *dump != "" {
		if err := collector.DumpFile(*dump); err != nil {
			return fmt.Errorf("dump: %w", err)
		}
		log.Printf("dumped trace to %s", *dump)
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
func startMemGovernor(c *poet.Collector, ceiling int64, keep int) func() {
	if ceiling <= 0 {
		return func() {}
	}
	prev := debug.SetMemoryLimit(ceiling)
	stop := make(chan struct{})
	var once sync.Once
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
				log.Printf("mem governor: tightening retention: %v", err)
				return
			}
			log.Printf("mem governor: heap %d MiB over 85%% of the %d MiB ceiling; retention tightened to %d events",
				ms.HeapAlloc>>20, ceiling>>20, keep)
		}
	}()
	return func() {
		once.Do(func() {
			close(stop)
			debug.SetMemoryLimit(prev)
		})
	}
}
