package main

import (
	"fmt"
	"os"
	"strings"
	"time"

	"ocep"
	"ocep/internal/faultnet"
	"ocep/internal/poet"
	"ocep/internal/shard"
	"ocep/internal/telemetry"
)

// stackKind names a deployment of the event path. The four workloads
// each run on one of them; the stage ladder runs all of them in turn on
// one input, each kind adding a layer to the one before.
type stackKind int

const (
	// stCollector is Collector.Report with no subscriber.
	stCollector stackKind = iota
	// stSync attaches an ocep.Monitor synchronously: one process, no
	// wire, no disk (workload embed-atomicity).
	stSync
	// stAsync attaches the monitor through the async delivery queue.
	stAsync
	// stWire is a poet.Server on loopback, one reporter connection in,
	// one monitor connection out (workload wire-ring).
	stWire
	// stWAL is stWire with OpenDurable(fsync=interval) on the collector.
	stWAL
	// stStandby is stWAL with a warm standby following the primary
	// (workload durable-ha).
	stStandby
	// stShard is stWire split over two meshed shards, with a router in
	// front and a merged monitor behind (workload shard-ring).
	stShard
)

// reporterBuffer is the unacked-event window each benchmark reporter
// dials with. One connection stands in for ~32 instrumented processes,
// so it gets 32 times the default window of 8192; a single default
// reporter is capped at window/ack-interval ≈ 32 k events/s, which
// wire.default_window_events_per_s records.
const reporterBuffer = 32 * 8192

// fsyncInterval is poetd's -fsync-interval default.
const fsyncInterval = 100 * time.Millisecond

type stackOpts struct {
	// dir is where a durable stack keeps its data directory.
	dir string
	// reg, when non-nil, instruments every component (the telemetry
	// overhead stage).
	reg *telemetry.Registry
	// proxied routes every TCP link through a fault-free faultnet.Proxy
	// so the bytes on each link can be counted.
	proxied bool
	// noMonitor leaves a wire stack without a monitor connection:
	// ingestion alone.
	noMonitor bool
	// defaultWindow dials the reporter as a single instrumented process
	// would: with the default 8192-event window.
	defaultWindow bool
}

// stack is one running deployment. report and flush are the generator's
// side; src (nil when the monitor is in-process) is the monitor's.
type stack struct {
	mon *ocep.Monitor
	src poet.EventSource
	// cols are the ingesting collectors: one, or one per shard.
	cols []*poet.Collector

	report    func(poet.RawEvent) error
	reporters []*poet.Reporter
	servers   []*poet.Server
	followers []*poet.ShardFollower
	router    *shard.Router[poet.RawEvent]
	merged    *shard.MergedClient
	monClient *poet.MonitorClient
	durable   *poet.Durability
	dataDir   string
	standby   *poet.Collector
	standbySv *poet.Server
	repl      *poet.Replicator

	// Counting proxies by link, when opts.proxied.
	reportProxies, monitorProxies, peerProxies, replProxies []*faultnet.Proxy
}

// shardHome places a trace on a two-shard tier by the number its name
// ends in, so ring neighbours p(i) and p(i+1) never share a shard.
func shardHome(trace string) int {
	n := 0
	for i := len(trace) - 1; i >= 0 && trace[i] >= '0' && trace[i] <= '9'; i-- {
		n++
	}
	v := 0
	for _, ch := range trace[len(trace)-n:] {
		v = v*10 + int(ch-'0')
	}
	return v % 2
}

// startServer wraps c in a poet.Server configured as poetd configures
// it by default, except for the monitor policy: block, so that a closed
// loop measures the whole pipeline instead of a disconnect.
func startServer(c *poet.Collector, reg *telemetry.Registry, standby bool) (*poet.Server, string, error) {
	srv := poet.NewServer(c, nil)
	srv.SetMonitorQueue(0, poet.BackpressureBlock)
	srv.SetWireTiming(poet.DefaultAckInterval, poet.DefaultHeartbeat, 8*poet.DefaultHeartbeat)
	srv.InstrumentMetrics(reg)
	srv.SetStandby(standby)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return srv, addr, nil
}

// newCollector is poetd's collector wiring: every non-retaining poetd
// captures the replication log so a standby can attach.
func newCollector() (*poet.Collector, error) {
	c := poet.NewCollector()
	if err := c.EnableReplicationLog(); err != nil {
		return nil, err
	}
	c.SetReplicationAckWait(poet.DefaultHeartbeat / 2)
	return c, nil
}

// via returns the address to dial for addr: addr itself, or a counting
// proxy in front of it, recorded under link.
func via(addr string, proxied bool, link *[]*faultnet.Proxy) (string, error) {
	if !proxied {
		return addr, nil
	}
	p, err := faultnet.Listen(addr)
	if err != nil {
		return "", err
	}
	*link = append(*link, p)
	return p.Addr(), nil
}

func proxyBytes(ps []*faultnet.Proxy) int64 {
	var n int64
	for _, p := range ps {
		n += p.Stats().Bytes
	}
	return n
}

// newStack builds and starts a deployment for in's pattern. The caller
// closes it.
func newStack(kind stackKind, in *Input, opts stackOpts) (s *stack, err error) {
	s = &stack{}
	defer func() {
		if err != nil {
			s.close()
			s = nil
		}
	}()
	var monOpts []ocep.Option
	if opts.reg != nil {
		monOpts = append(monOpts, ocep.WithMetrics(opts.reg))
	}
	if kind == stAsync {
		monOpts = append(monOpts, ocep.WithAsyncDelivery())
	}
	if kind != stCollector && !opts.noMonitor {
		if s.mon, err = ocep.NewMonitor(in.Pattern, monOpts...); err != nil {
			return s, err
		}
	}

	switch kind {
	case stCollector, stSync, stAsync:
		c := poet.NewCollector()
		c.InstrumentMetrics(opts.reg)
		s.cols = []*poet.Collector{c}
		if s.mon != nil {
			s.mon.Attach(c)
		}
		s.report = c.Report

	case stWire, stWAL, stStandby:
		c, err := newCollector()
		if err != nil {
			return s, err
		}
		s.cols = []*poet.Collector{c}
		if kind != stWire {
			s.dataDir, err = os.MkdirTemp(opts.dir, "data-")
			if err != nil {
				return s, err
			}
			// Periodic snapshots are off: the workload is WAL append and
			// WAL replay; durable.snapshot_ms times a snapshot on its own.
			s.durable, err = poet.OpenDurable(c, poet.DurableOptions{
				Dir: s.dataDir, Fsync: poet.SyncInterval, FsyncInterval: fsyncInterval, SnapshotEvery: -1,
			})
			if err != nil {
				return s, err
			}
		}
		c.InstrumentMetrics(opts.reg)
		srv, addr, err := startServer(c, opts.reg, false)
		if err != nil {
			return s, err
		}
		s.servers = append(s.servers, srv)
		if kind == stStandby {
			if s.standby, err = newCollector(); err != nil {
				return s, err
			}
			if s.standbySv, _, err = startServer(s.standby, nil, true); err != nil {
				return s, err
			}
			primary, err := via(addr, opts.proxied, &s.replProxies)
			if err != nil {
				return s, err
			}
			s.repl, err = poet.FollowPrimary(primary, s.standby, poet.WithReplicaHeartbeat(poet.DefaultHeartbeat))
			if err != nil {
				return s, err
			}
		}
		if !opts.noMonitor {
			monAddr, err := via(addr, opts.proxied, &s.monitorProxies)
			if err != nil {
				return s, err
			}
			if s.monClient, err = poet.DialMonitor(monAddr); err != nil {
				return s, err
			}
			s.src = s.monClient
		}
		repAddr, err := via(addr, opts.proxied, &s.reportProxies)
		if err != nil {
			return s, err
		}
		var repOpts []poet.ReporterOption
		if !opts.defaultWindow {
			repOpts = append(repOpts, poet.WithReporterBuffer(reporterBuffer))
		}
		rep, err := poet.DialReporter(repAddr, repOpts...)
		if err != nil {
			return s, err
		}
		s.reporters = []*poet.Reporter{rep}
		s.report = rep.Report

	case stShard:
		const n = 2
		addrs := make([]string, n)
		for i := 0; i < n; i++ {
			c, err := newCollector()
			if err != nil {
				return s, err
			}
			s.cols = append(s.cols, c)
			if err := c.EnableSharding(i, n); err != nil {
				return s, err
			}
			c.InstrumentMetrics(opts.reg)
			srv, addr, err := startServer(c, opts.reg, false)
			if err != nil {
				return s, err
			}
			s.servers = append(s.servers, srv)
			addrs[i] = addr
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				peer, err := via(addrs[j], opts.proxied, &s.peerProxies)
				if err != nil {
					return s, err
				}
				f, err := poet.FollowShardPeer(peer, s.cols[i], poet.WithShardBreaker(2, 5*time.Second))
				if err != nil {
					return s, err
				}
				s.followers = append(s.followers, f)
			}
		}
		// FollowShardPeer connects in the background. Wait for the mesh:
		// a trial must not start on a half-connected tier, and a follower
		// stopped while still dialing sits out its peer timeout before it
		// notices.
		meshBy := time.Now().Add(10 * time.Second)
		for _, f := range s.followers {
			for !f.Stats().Connected {
				if time.Now().After(meshBy) {
					return s, fmt.Errorf("benchmark: shard follower of %s not connected after 10s", f.Stats().Peer)
				}
				time.Sleep(time.Millisecond)
			}
		}
		monAddrs := make([]string, n)
		tier := make(map[string]shard.TraceReporter[poet.RawEvent], n)
		for i, a := range addrs {
			if monAddrs[i], err = via(a, opts.proxied, &s.monitorProxies); err != nil {
				return s, err
			}
			repAddr, err := via(a, opts.proxied, &s.reportProxies)
			if err != nil {
				return s, err
			}
			rep, err := poet.DialReporter(repAddr, poet.WithReporterBuffer(reporterBuffer))
			if err != nil {
				return s, err
			}
			s.reporters = append(s.reporters, rep)
			tier[a] = rep
		}
		s.router, err = shard.NewRouter(tier, func(e poet.RawEvent) string { return e.Trace })
		if err != nil {
			return s, err
		}
		// Placement is fixed here, not left to the rendezvous hash of
		// this run's ephemeral ports.
		for trace := range in.pos {
			if err := s.router.Partitioner().Place(trace, addrs[shardHome(trace)]); err != nil {
				return s, err
			}
		}
		s.report = s.router.Report
		if !opts.noMonitor {
			if s.merged, err = shard.DialMergedMonitor(strings.Join(monAddrs, ";"), nil); err != nil {
				return s, err
			}
			s.src = s.merged
		}

	default:
		return s, fmt.Errorf("benchmark: unknown stack kind %d", kind)
	}
	return s, nil
}

// flush waits until every reporter's events are acknowledged.
func (s *stack) flush() error {
	for _, r := range s.reporters {
		if err := r.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// delivered sums the collectors' delivered counts.
func (s *stack) delivered() int {
	n := 0
	for _, c := range s.cols {
		n += c.Delivered()
	}
	return n
}

// close stops everything the stack started, clients first, and removes
// its data directory. Safe on a partly built stack.
func (s *stack) close() {
	for _, r := range s.reporters {
		_ = r.Close()
	}
	if s.merged != nil {
		_ = s.merged.Close()
	}
	if s.monClient != nil {
		_ = s.monClient.Close()
	}
	if s.mon != nil {
		s.mon.Detach()
	}
	if s.repl != nil {
		s.repl.Stop()
		<-s.repl.Done()
	}
	for _, f := range s.followers {
		f.Stop()
		<-f.Done()
	}
	for _, srv := range s.servers {
		_ = srv.Close()
	}
	if s.standbySv != nil {
		_ = s.standbySv.Close()
	}
	for _, link := range [][]*faultnet.Proxy{s.reportProxies, s.monitorProxies, s.peerProxies, s.replProxies} {
		for _, p := range link {
			_ = p.Close()
		}
	}
	if s.durable != nil {
		_ = s.durable.Close()
	}
	for _, c := range s.cols {
		c.Close()
	}
	if s.standby != nil {
		s.standby.Close()
	}
	if s.dataDir != "" {
		_ = os.RemoveAll(s.dataDir)
	}
}
