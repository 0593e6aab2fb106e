// Command poetd runs a standalone POET collector server: instrumented
// targets connect to report raw events, monitor clients (e.g. ocepmon)
// connect to receive the linearized, vector-timestamped event stream.
//
// Usage: poetd [flags]; poetd -h lists them and README.md's flag table
// says what each does. Every flag but -metrics-addr and -quiet is a
// field of poet.Spec, and poet.Open builds the node they describe
// (docs/ARCHITECTURE.md, "Opening a node").
// Unless -retain-events bounds its memory instead, the collector keeps
// one journal of what it ingested, which -dump, the -data-dir
// write-ahead log (recovered on restart) and replica sessions all read,
// so every poetd can be followed, a promoted standby included. A
// combination of flags the node cannot run with is refused before
// anything is opened, bound or created.
//
// With -metrics-addr, a second listener serves /metrics (Prometheus
// text), /debug/vars, /debug/pprof and the /healthz + /readyz probe
// pair. It starts before crash recovery, so orchestration can tell
// "recovering" (alive, /readyz 503) from "dead" (probe times out);
// /readyz also answers 503 while the server sheds load, while a standby
// is unpromoted, while it drains, and while a shard's peer export
// stream is stalled past -peer-stall-timeout.
//
// With -follow, poetd is a warm standby of the primary at that address:
// it tails the primary's replication stream and rejects reporter and
// monitor sessions retriably until promoted — when the primary drains,
// when it stays unreachable past -follow-reconnect, or on SIGUSR1. A
// refused resume is fatal. With -shard-id and -peers, poetd is one shard
// of a tier and tails every peer's export stream; a sharded standby
// defers that until it is promoted.
//
// Shutdown: SIGTERM drains gracefully — new sessions are rejected,
// connected peers receive a drain notice (pooled clients fail over
// immediately), reporter acks keep flowing while targets flush, and
// after at most -drain-timeout the server closes with End frames.
// SIGINT skips the drain and closes at once.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
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
	if err := run(parseFlags(os.Args[1:])); err != nil {
		log.Fatal(err)
	}
}

// daemon is a command line: the node's Spec and the two settings that
// are the daemon's own.
type daemon struct {
	spec        poet.Spec
	metricsAddr string
	quiet       bool
}

// parseFlags maps the command line onto a daemon, one flag to one
// field. It checks no value: Spec.Validate does.
func parseFlags(args []string) daemon {
	var d daemon
	s := &d.spec
	fs := flag.NewFlagSet("poetd", flag.ExitOnError)
	fs.StringVar(&s.Listen, "listen", "127.0.0.1:7524", "address to listen on")
	fs.StringVar(&s.Reload, "reload", "", "trace file to replay into the collector at startup")
	fs.StringVar(&s.Dump, "dump", "", "write the journal's raw events, in ingestion order, to this file on shutdown")
	fs.IntVar(&s.MonitorQueue, "monitor-queue", 0, "per-monitor delivery queue depth (0 = default 65536)")
	fs.StringVar(&s.MonitorPolicy, "monitor-policy", "drop", "full-queue policy: drop (disconnect laggards) or block (throttle ingestion)")
	fs.DurationVar(&s.AckInterval, "ack-interval", poet.DefaultAckInterval, "idle floor of ingestion acknowledgements to targets (acks also follow every ingested burst)")
	fs.DurationVar(&s.Heartbeat, "heartbeat", poet.DefaultHeartbeat, "idle keep-alive cadence on monitor streams; targets silent for 8x this (min 2s) are declared dead")
	fs.StringVar(&d.metricsAddr, "metrics-addr", "", "address for the telemetry listener (/metrics, /debug/vars, /debug/pprof); empty disables it")
	fs.BoolVar(&d.quiet, "quiet", false, "suppress per-connection diagnostics")
	fs.StringVar(&s.DataDir, "data-dir", "", "directory for the journal's write-ahead log; enables crash-durable operation and recovery on restart")
	fs.StringVar(&s.Fsync, "fsync", "always", "WAL durability: always (fsync before acking), interval (periodic fsync), none (OS page cache only)")
	fs.DurationVar(&s.FsyncInterval, "fsync-interval", 100*time.Millisecond, "flush/fsync cadence for -fsync interval and none")
	fs.IntVar(&s.RetainEvents, "retain-events", 0, "bound the delivered-event log: evict the oldest events past this count (0 = keep everything); such a daemon keeps no journal, so not with -dump, -data-dir or -shard-id")
	fs.IntVar(&s.MaxPending, "max-pending", 0, "cap the out-of-order events buffered per trace; excess reports are shed back onto reporter buffers (0 = unbounded)")
	fs.StringVar(&s.MemLimit, "mem-limit", "", "soft heap ceiling in bytes (K/M/G suffixes accepted); halves -retain-events each time the heap crosses 85% of it")
	fs.StringVar(&s.Follow, "follow", "", "run as a warm standby replicating from the primary at this address; promoted when the primary drains or dies, or on SIGUSR1")
	fs.DurationVar(&s.FollowReconnect, "follow-reconnect", 0, "cumulative backoff budget before an unreachable primary is declared dead and the standby promotes itself (0 = default 10s)")
	fs.DurationVar(&s.DrainTimeout, "drain-timeout", poet.DefaultDrainWait, "on SIGTERM, how long the graceful drain waits for targets to flush and replicas to catch up before closing")
	fs.IntVar(&s.ShardID, "shard-id", -1, "this daemon's 0-based shard ID within the -peers tier; -1 disables sharding")
	peers := fs.String("peers", "", "the whole collector tier, ';'-separated and ordered by shard ID; each entry is that shard's comma-separated failover pool (required with -shard-id)")
	fs.DurationVar(&s.PeerStallTimeout, "peer-stall-timeout", 10*time.Second, "declare a peer's export stream stalled after this long without a record, heartbeat, or successful handshake: /readyz answers 503 naming the peer and held-event debt (0 disables the watchdog)")
	_ = fs.Parse(args) // ExitOnError: -h and bad flags exit here
	if *peers != "" {
		s.Peers = append([]string{}, shard.SplitSpec(*peers)...) // non-nil if it names no shard: Validate refuses -peers alone
	}
	return d
}

func run(d daemon) error {
	if err := d.spec.Validate(); err != nil {
		return err // before anything is opened, bound or created
	}
	env := poet.Env{Logf: log.Printf, SessionLogf: log.Printf, Health: telemetry.NewHealth()}
	if d.quiet {
		env.SessionLogf = func(string, ...any) {}
	}
	// The probes are served before the node opens: a poetd replaying a
	// large write-ahead log is alive but not ready, and orchestration
	// needs them to say so instead of timing out.
	var ready atomic.Bool
	env.Health.RegisterCheck("startup", func() error {
		if !ready.Load() {
			return fmt.Errorf("starting: recovery or reload still in progress")
		}
		return nil
	})
	if d.metricsAddr != "" {
		env.Registry = telemetry.NewRegistry()
		mux := http.NewServeMux()
		mux.Handle("/", telemetry.Handler(env.Registry))
		env.Health.Mount(mux)
		ln, err := net.Listen("tcp", d.metricsAddr)
		if err != nil {
			return fmt.Errorf("-metrics-addr: %w", err)
		}
		srv := &http.Server{Handler: mux}
		defer srv.Close()
		go func() {
			if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
				log.Printf("metrics listener: %v", err)
			}
		}()
		log.Printf("metrics on http://%s/metrics (probes: /healthz, /readyz)", ln.Addr())
	}
	n, err := poet.Open(d.spec, env)
	if err != nil {
		return err
	}
	// Handle the signals before reporting ready: a SIGTERM sent the moment
	// /readyz answers 200 must drain, not kill, the daemon.
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM, syscall.SIGUSR1)
	ready.Store(true)
	log.Printf("listening on %s", n.Addr)
	for {
		select {
		case s := <-sig:
			if s != syscall.SIGUSR1 {
				summarize(n)
				return n.Close(s == syscall.SIGTERM)
			}
			if !n.Unfollow() {
				log.Printf("SIGUSR1 ignored: not a standby")
			}
		case err := <-n.Failed():
			_ = n.Close(false)
			return err
		}
	}
}

// summarize logs what the node did, as it shuts down.
func summarize(n *poet.Node) {
	c, ws := n.Collector, n.Server.WireStats()
	log.Printf("shutting down: %d events delivered, %d pending", c.Delivered(), c.Pending())
	if ss := c.ShardStats(); ss.Enabled {
		log.Printf("shard %d/%d: %d home traces, %d send exports, %d remote sends applied",
			ss.ShardID, ss.NumShards, ss.HomeTraces, ss.Exports, ss.RemoteSends)
	}
	if ws.StaleEvents > 0 || ws.TargetResumes > 0 || ws.MonitorResumes > 0 || ws.LoadSheds > 0 {
		log.Printf("wire: %d stale retransmits absorbed, %d target resumes, %d monitor resumes, %d load sheds",
			ws.StaleEvents, ws.TargetResumes, ws.MonitorResumes, ws.LoadSheds)
	}
	if ws.ReplicaSessions > 0 || ws.ReplicaEvents > 0 {
		log.Printf("replication: %d replica sessions served, %d events streamed, final lag %d",
			ws.ReplicaSessions, ws.ReplicaEvents, ws.ReplicationLag)
	}
	if rs := c.RetentionStats(); rs.Evicted > 0 {
		log.Printf("retention: evicted %d delivered events (%d released from the store), %d retained",
			rs.Evicted, rs.StoreCompacted, rs.Retained)
	}
	for _, ts := range c.TraceStats() {
		log.Printf("  trace %-20s delivered=%d comm=%d buffered=%d",
			ts.Name, ts.Delivered, ts.Comm, ts.Buffered)
	}
}
