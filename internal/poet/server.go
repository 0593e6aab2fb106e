package poet

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ocep/internal/backoff"
	"ocep/internal/event"
	"ocep/internal/telemetry"
)

// Server exposes a Collector over TCP: target processes connect to
// report raw events, monitor clients connect to receive the linearized
// stream (the POET server role of Section V-A).
//
// The wire layer is fault-tolerant: target connections are acknowledged
// after every burst (highest contiguous ingested (trace, seq)),
// stale retransmissions after a reporter reconnect are idempotent
// no-ops, monitor connections carry idle heartbeats and can resume a
// session from any linearization offset, and all reads and writes run
// under deadlines so a dead peer is detected instead of blocking a
// handler forever.
type Server struct {
	collector *Collector
	listener  net.Listener
	logf      func(format string, args ...any)

	monQueue  int
	monPolicy BackpressurePolicy

	ackInterval  time.Duration
	hbInterval   time.Duration
	peerTimeout  time.Duration
	writeTimeout time.Duration

	// closing is closed at the start of Close: streaming sessions drain
	// their cursors, send the End frame, and exit before connections are
	// torn down, so a graceful shutdown is distinguishable from a crash.
	closing chan struct{}
	// drainCh is closed at the start of Drain: handlers push a drain
	// notice to their peers so pooled clients fail over immediately,
	// while sessions keep running until Close.
	drainCh   chan struct{}
	drainFlag atomic.Bool
	// standby gates an unpromoted warm standby: sessions are rejected
	// with a retriable ack until Promote (see replication.go).
	standby atomic.Bool
	// targetConnCount tracks live target sessions, so Drain can tell
	// when the reporters have flushed and left.
	targetConnCount atomic.Int64

	// The wire counters: WireStats reads them, InstrumentMetrics mirrors
	// them into a registry. The last five are metrics only.
	stale, acksSent, heartbeats, targetResumes, monitorResumes, loadSheds,
	monitorBytes, monitorFlushes, targetReads, vcEntriesSent,
	replicaSessions, replicaEvents, shardSessions, shardRecords, shardVCEntries, drains,
	targetConns, monitorConns, targetEvents, peerTimeouts, monOverflows wireCounter
	// sheddingConns counts target handlers currently parked in the
	// overload retry loop; nonzero means the server is shedding load
	// (see Shedding, which readiness probes consult).
	sheddingConns atomic.Int64
	overloadWait  time.Duration

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
	// streamWG counts the streaming sessions Close lets say goodbye.
	streamWG sync.WaitGroup
	serveWG  sync.WaitGroup
}

// monitorQueueSize is the default per-monitor lag bound (its depth). Under
// the default BackpressureDrop policy a monitor that falls this far
// behind the stream is disconnected rather than allowed to stall the
// collector; under BackpressureBlock ingestion throttles instead.
const monitorQueueSize = 1 << 16

// Wire-timing defaults; see SetWireTiming.
const (
	DefaultAckInterval = 250 * time.Millisecond
	DefaultHeartbeat   = time.Second
	DefaultPeerTimeout = 10 * time.Second
	// DefaultOverloadWait bounds how long a target handler parks waiting
	// for an overloaded collector to drain before it gives up on the
	// connection; see SetOverloadWait.
	DefaultOverloadWait = 5 * time.Second
	// overloadPoll is the cadence at which a shedding target handler
	// re-offers its refused event to the collector.
	overloadPoll = 5 * time.Millisecond
)

// SetMonitorQueue configures the per-monitor-connection delivery cursor:
// depth bounds how far it may lag behind the delivery head (0 keeps the
// default), policy selects what lagging further does (BackpressureDrop, the default, disconnects the
// lagging monitor so its stream never has silent gaps; BackpressureBlock
// throttles ingestion until the monitor catches up). Call before Listen.
func (s *Server) SetMonitorQueue(depth int, policy BackpressurePolicy) {
	if depth > 0 {
		s.monQueue = depth
	}
	s.monPolicy = policy
}

// SetWireTiming tunes the fault-tolerance timers (zero keeps a
// default): ackInterval is the idle floor of target acknowledgements
// (which follow every burst, and double as heartbeats), heartbeat is the
// idle keep-alive cadence on monitor streams, and peerTimeout is how
// long a target connection may stay silent (no event, no heartbeat)
// before it is declared dead. Call before Listen.
func (s *Server) SetWireTiming(ackInterval, heartbeat, peerTimeout time.Duration) {
	if ackInterval > 0 {
		s.ackInterval = ackInterval
	}
	if heartbeat > 0 {
		s.hbInterval = heartbeat
	}
	if peerTimeout > 0 {
		s.peerTimeout = peerTimeout
	}
}

// SetOverloadWait bounds how long a target handler sheds load — parking
// the connection and re-offering the refused event every few
// milliseconds — when the collector's admission control reports
// ErrOverloaded, before failing the connection. While parked, the
// reporter's bounded buffer absorbs the backpressure. Zero keeps
// DefaultOverloadWait. Call before Listen.
func (s *Server) SetOverloadWait(d time.Duration) {
	if d > 0 {
		s.overloadWait = d
	}
}

// Shedding reports whether any target connection is currently parked in
// the overload retry loop. Readiness probes use it to advertise
// not-ready while the collector is above its admission limits.
func (s *Server) Shedding() bool { return s.sheddingConns.Load() > 0 }

// WireStats are the server's cumulative fault-tolerance counters.
type WireStats struct {
	// StaleEvents counts retransmitted events ignored as idempotent
	// no-ops (ErrStaleEvent from the collector on the wire path).
	StaleEvents int
	// AcksSent counts acks frames sent to targets past the hello's answer.
	AcksSent int
	// Heartbeats counts idle keep-alive frames sent to monitors.
	Heartbeats int
	// TargetResumes counts target hellos that named resumed traces.
	TargetResumes int
	// MonitorResumes counts monitor hellos with a nonzero resume offset.
	MonitorResumes int
	// LoadSheds counts events the collector refused with ErrOverloaded
	// that the server shed back onto reporter buffers (parking the
	// connection until the backlog drained or the overload wait expired).
	LoadSheds int
	// MonitorBytes counts bytes written to monitor connections (frames,
	// heartbeats, and handshakes included).
	MonitorBytes int
	// MonitorFlushes counts write(2) calls on monitor connections and
	// TargetReads read(2) calls that returned data on target connections;
	// delivered (or ingested) events over either is the batching the
	// frame buffers achieve on that leg.
	MonitorFlushes, TargetReads int
	// VCEntriesSent counts vector-timestamp entries put on the wire to
	// monitors: only the entries that changed since the connection's
	// previous timestamp. Divide by the event count for the per-event
	// timestamp cost the delta encoding is there to shrink.
	VCEntriesSent int
	// RecoveryDiscarded counts WAL records discarded as torn or corrupt
	// by startup recovery (0 for a non-durable or cleanly started
	// server). See RecoveryStats.DiscardedRecords.
	RecoveryDiscarded int
	// ReplicaSessions counts accepted replica (warm-standby) sessions.
	ReplicaSessions int
	// ReplicaEvents counts event records streamed to replica sessions.
	ReplicaEvents int
	// ReplicationLag is the current number of ingested events not yet
	// confirmed by every attached replica (0 with none attached).
	ReplicationLag int
	// ShardSessions counts accepted peer-shard (cross-shard exchange)
	// sessions.
	ShardSessions int
	// ShardRecords counts export records streamed to peer shards.
	ShardRecords int
	// ShardVCEntries counts vector-timestamp entries sent on shard
	// sessions (changed entries on delta sessions, full vectors on dense
	// ones) — the wire cost of the cross-shard frontier.
	ShardVCEntries int
	// Drains counts Drain invocations (0 or 1 in practice: draining is
	// terminal).
	Drains int
}

// wireCounter is one wire statistic: a server-wide count, mirrored into
// a telemetry counter once InstrumentMetrics has run (a nil-safe no-op
// before).
type wireCounter struct {
	atomic.Int64
	tel *telemetry.Counter
}

func (c *wireCounter) add(n int64) {
	c.Add(n)
	c.tel.Add(n)
}

// InstrumentMetrics registers the server's wire metrics with reg. Call
// before Listen; a nil registry leaves the server uninstrumented. The
// collector (and, when durable, the WAL) are instrumented separately
// via Collector.InstrumentMetrics.
func (s *Server) InstrumentMetrics(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	for _, m := range []struct {
		c          *wireCounter
		name, help string
	}{
		{&s.targetConns, "poet_wire_target_conns_total", "Accepted target (reporter) connections."},
		{&s.monitorConns, "poet_wire_monitor_conns_total", "Accepted monitor connections."},
		{&s.targetEvents, "poet_wire_target_events_total", "Event frames received from targets (before ingestion; includes stale retransmits)."},
		{&s.acksSent, "poet_wire_acks_sent_total", "Acks frames sent to targets."},
		{&s.heartbeats, "poet_wire_heartbeats_sent_total", "Idle keep-alive frames sent to monitors, replicas, and shard peers."},
		{&s.stale, "poet_wire_stale_retransmits_total", "Retransmitted events absorbed as idempotent no-ops."},
		{&s.targetResumes, "poet_wire_target_resumes_total", "Target hellos that named resumed traces."},
		{&s.monitorResumes, "poet_wire_monitor_resumes_total", "Monitor hellos with a nonzero resume offset."},
		{&s.peerTimeouts, "poet_wire_peer_timeouts_total", "Target connections declared dead after peer-timeout silence."},
		{&s.monOverflows, "poet_wire_monitor_overflow_disconnects_total", "Monitors disconnected for lagging past their delivery depth."},
		{&s.loadSheds, "poet_wire_load_sheds_total", "Events shed back onto reporter buffers after an ErrOverloaded refusal."},
		{&s.monitorBytes, "poet_wire_monitor_bytes_total", "Bytes written to monitor connections (events, announcements, heartbeats, handshakes)."},
		{&s.monitorFlushes, "poet_wire_monitor_flushes_total", "write(2) calls on monitor connections; events per flush is the batching of the outbound leg."},
		{&s.targetReads, "poet_wire_target_reads_total", "read(2) calls that returned data on target connections; events per read is the batching of the inbound leg."},
		{&s.vcEntriesSent, "poet_wire_vc_entries_total", "Vector-timestamp entries sent to monitors (the foreign entries that rose since the trace's previous timestamp)."},
		{&s.replicaSessions, "poet_wire_replica_sessions_total", "Accepted replica (warm-standby) sessions."},
		{&s.replicaEvents, "poet_wire_replica_events_total", "Event records streamed to replica sessions."},
		{&s.shardSessions, "poet_wire_shard_sessions_total", "Accepted peer-shard (cross-shard exchange) sessions."},
		{&s.shardRecords, "poet_wire_shard_records_total", "Export records streamed to peer shards."},
		{&s.shardVCEntries, "poet_wire_shard_vc_entries_total", "Vector-timestamp entries sent on shard sessions (the foreign entries that rose since the trace's previous timestamp)."},
		{&s.drains, "poet_wire_drains_total", "Drain invocations (orderly shutdowns announced to peers)."},
	} {
		m.c.tel = reg.Counter(m.name, m.help)
	}
	reg.GaugeFunc("poet_wire_shedding_connections", "Target connections currently parked in the overload retry loop.", func() int64 {
		return s.sheddingConns.Load()
	})
	reg.GaugeFunc("poet_wire_replication_lag_events", "Ingested events not yet confirmed by every attached replica session (0 with none attached).", func() int64 {
		return int64(s.collector.ReplicationStats().Lag)
	})
	reg.GaugeFunc("poet_wire_draining", "1 while the server is draining, 0 otherwise.", func() int64 {
		if s.Draining() {
			return 1
		}
		return 0
	})
}

// WireStats returns the server's cumulative wire counters.
func (s *Server) WireStats() WireStats {
	st := WireStats{
		StaleEvents:     int(s.stale.Load()),
		AcksSent:        int(s.acksSent.Load()),
		Heartbeats:      int(s.heartbeats.Load()),
		TargetResumes:   int(s.targetResumes.Load()),
		MonitorResumes:  int(s.monitorResumes.Load()),
		LoadSheds:       int(s.loadSheds.Load()),
		MonitorBytes:    int(s.monitorBytes.Load()),
		MonitorFlushes:  int(s.monitorFlushes.Load()),
		TargetReads:     int(s.targetReads.Load()),
		VCEntriesSent:   int(s.vcEntriesSent.Load()),
		ReplicaSessions: int(s.replicaSessions.Load()),
		ReplicaEvents:   int(s.replicaEvents.Load()),
		ReplicationLag:  s.collector.ReplicationStats().Lag,
		ShardSessions:   int(s.shardSessions.Load()),
		ShardRecords:    int(s.shardRecords.Load()),
		ShardVCEntries:  int(s.shardVCEntries.Load()),
		Drains:          int(s.drains.Load()),
	}
	if d := s.collector.Durable(); d != nil {
		st.RecoveryDiscarded = int(d.Recovery().DiscardedRecords)
	}
	return st
}

// NewServer wraps a collector. Pass a logf (e.g. log.Printf) for
// connection diagnostics, or nil for silence.
func NewServer(c *Collector, logf func(format string, args ...any)) *Server {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Server{
		collector:    c,
		logf:         logf,
		conns:        make(map[net.Conn]struct{}),
		monQueue:     monitorQueueSize,
		monPolicy:    BackpressureDrop,
		ackInterval:  DefaultAckInterval,
		hbInterval:   DefaultHeartbeat,
		peerTimeout:  DefaultPeerTimeout,
		overloadWait: DefaultOverloadWait,
		writeTimeout: defaultWriteTimeout,
		closing:      make(chan struct{}),
		drainCh:      make(chan struct{}),
	}
}

// Listen starts accepting connections on addr ("host:port"; use ":0" for
// an ephemeral port) and returns the bound address. Serving happens on
// background goroutines until Close.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("poet server: listen: %w", err)
	}
	s.listener = ln
	s.serveWG.Add(1)
	go func() {
		defer s.serveWG.Done()
		s.acceptLoop()
	}()
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop() {
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			return // listener closed
		}
		if !s.track(conn) {
			_ = conn.Close()
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.untrack(conn)
			if err := s.handle(conn); err != nil && !errors.Is(err, net.ErrClosed) {
				s.logf("poet server: connection %s: %v", conn.RemoteAddr(), err)
			}
		}()
	}
}

func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.conns, conn)
	_ = conn.Close()
}

// Close stops the listener and tears down every live connection, waiting
// for the handlers to finish. Streaming sessions end gracefully: their
// cursors are drained and an explicit End frame is sent, so clients see a
// clean end of stream instead of an interruption.
func (s *Server) Close() error { return s.shutdown(true) }

// abort tears down the server without any of the graceful-shutdown
// courtesies — no drain notices, no cursor drain, no End frames:
// connections are severed first, then handlers are collected. It is the
// in-process stand-in for SIGKILL, used by the failover tests to
// simulate a primary crash without a child process.
func (s *Server) abort() { _ = s.shutdown(false) }

// shutdown stops the listener and the handlers. Graceful, it lets the
// streaming sessions drain and say goodbye before the connections are
// severed (their writes run under deadlines, so the wait is bounded);
// otherwise the connections go first.
func (s *Server) shutdown(graceful bool) error {
	s.mu.Lock()
	already := s.closed
	s.closed = true
	s.mu.Unlock()
	var err error
	if !already && s.listener != nil {
		err = s.listener.Close()
	}
	if !graceful {
		s.sever()
	}
	if !already {
		close(s.closing)
	}
	s.streamWG.Wait()
	s.sever()
	s.serveWG.Wait()
	s.wg.Wait()
	return err
}

// sever closes every live connection.
func (s *Server) sever() {
	s.mu.Lock()
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		_ = c.Close()
	}
}

// countingWriter counts what is flushed to one monitor connection — bytes
// and write(2) calls — into server-wide atomics and (when instrumented)
// telemetry counters. It sits below the frame buffer, so the counts are
// of what reached the socket, not of what was framed.
type countingWriter struct {
	w io.Writer
	s *Server
}

func (cw countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.s.monitorBytes.add(int64(n))
	cw.s.monitorFlushes.add(1)
	return n, err
}

func (s *Server) handle(conn net.Conn) error {
	// A connection that never completes its hello must not pin a handler
	// goroutine forever.
	l := newLink(conn, s.peerTimeout, s.writeTimeout)
	fr := &frameReader{br: l.br}
	var f frame
	if err := fr.next(&f); errors.Is(err, errFrameKind) || errors.Is(err, errFrameTooLong) {
		// A gob stream opens with a type definition: its length, then a
		// negative type id spelled 0x7F, or 0xFF and a byte. Behind a
		// one-byte length — every earlier hello's — the id reads as an
		// unknown kind; behind a longer one, length and id run on as one
		// oversized varint.
		return fmt.Errorf("gob-era hello (OCEP-POET-1, -2 or -3) rejected: this server speaks %s, which opens with a hello frame; rebuild the peer from the same checkout (%v)", wireMagic, err)
	} else if err != nil {
		return fmt.Errorf("reading hello: %w", err)
	}
	if f.kind != frameHello {
		return fmt.Errorf("kind-%d frame where the hello belongs", f.kind)
	}
	h := f.hello
	// Past the hello only the roles that hear from their peer keep a read
	// deadline; they re-arm it themselves.
	l.readTimeout = 0
	_ = conn.SetReadDeadline(time.Time{})
	var out io.Writer = l
	if h.role == roleMonitor {
		// All monitor-bound bytes go through a counting writer so the wire
		// cost of the stream — and of the timestamp encoding in particular
		// — is observable (WireStats.MonitorBytes,
		// poet_wire_monitor_bytes_total).
		out = countingWriter{w: l, s: s}
	}
	fw := newFrameWriter(out)
	if h.magic != wireMagic {
		// Every version's hello and error frames read alike, so an older
		// peer learns why it is turned away.
		return refuseHello(fw, h.role, fmt.Sprintf("peer speaks %q, this server %s; rebuild the peer from the same checkout", h.magic, wireMagic), false)
	}
	// An unpromoted standby or a draining server takes no new sessions;
	// the refusal is marked retriable so endpoint pools rotate to the live
	// peer (or keep probing until promotion) instead of treating it as
	// terminal. Query sessions pass: read-only state stays readable.
	if h.role != roleQuery {
		reason := ""
		if s.Draining() {
			reason = "server is draining; no new sessions"
		} else if s.standby.Load() {
			reason = "standby awaiting promotion; not serving yet"
		}
		if reason != "" {
			return refuseHello(fw, h.role, reason, true)
		}
	}
	if h.role == roleMonitor || h.role == roleReplica || h.role == roleShard {
		if !s.joinStream() {
			return refuseHello(fw, h.role, "server is closing", true)
		}
		defer s.streamWG.Done()
	}
	switch h.role {
	case roleTarget:
		return s.handleTarget(l, fr, fw, h)
	case roleMonitor:
		return s.handleMonitor(l, fr, fw, h)
	case roleReplica:
		return s.handleReplica(l, fr, fw, h)
	case roleShard:
		return s.handleShard(l, fr, fw, h)
	case roleQuery:
		return s.handleQuery(fr, fw)
	default:
		return fmt.Errorf("unknown role %q", h.role)
	}
}

// joinStream counts a streaming session in, before its hello is
// answered, so a Close that begins later waits for it to say goodbye;
// false once Close has begun.
func (s *Server) joinStream() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.streamWG.Add(1)
	}
	return !s.closed
}

// refuseHello answers a hello with an error frame and returns the
// refusal as the session's error.
func refuseHello(fw *frameWriter, role, reason string, retry bool) error {
	fw.refuse(reason, retry)
	_ = fw.flush()
	return fmt.Errorf("%s session refused: %s", role, reason)
}

// acceptHello answers a hello with the acks frame that opens the session.
func acceptHello(fw *frameWriter, acks []traceAck) error {
	fw.acks(acks)
	if err := fw.flush(); err != nil {
		return fmt.Errorf("answering the hello: %w", err)
	}
	return nil
}

// handleTarget ingests raw events until the connection closes or the
// peer times out. A background pump acknowledges the highest contiguous
// ingested (trace, seq) after every burst the read loop applies, and on
// every ack interval, the idle floor — those acks double as
// server-to-target heartbeats. Stale retransmissions (the product of a
// reporter replaying its unacked buffer after a reconnect) are ignored
// as idempotent no-ops; genuinely malformed events still hard-fail the
// connection, with the reason reported to the peer so it stops
// retransmitting the poison event.
func (s *Server) handleTarget(conn *link, fr *frameReader, fw *frameWriter, h hello) error {
	s.targetConns.add(1)
	s.targetConnCount.Add(1)
	defer func() {
		s.targetConnCount.Add(-1)
		c := s.collector // wake a Drain waiting for the targets to leave
		c.mu.Lock()
		c.fresh.Broadcast()
		c.mu.Unlock()
	}()
	// The return leg is cold (one acks frame per burst); the ack pump and
	// the read loop share it, each write its own flush.
	o := &outbound{fw: fw, peer: "target"}

	// The accepting acks frame tells a resuming reporter what it may
	// prune before retransmitting.
	sentAcks := s.collector.acksFor(h.traces)
	if err := acceptHello(fw, sentAcks); err != nil {
		return err
	}
	if len(h.traces) > 0 {
		s.targetResumes.add(1)
	}

	// Traces this connection has reported: seen is the read loop's own,
	// names is what the ack pump shares.
	var namesMu sync.Mutex
	seen := make(map[string]bool, len(h.traces))
	for _, n := range h.traces {
		seen[n] = true
	}
	names := h.traces
	acks := func() []traceAck {
		namesMu.Lock()
		cur := names[:len(names):len(names)]
		namesMu.Unlock()
		return s.collector.acksFor(cur)
	}

	// The pump also wakes just before the read loop's next read(2), once
	// it has applied all it buffered (on arrival, a burst's tail would
	// wait for the ticker). acksFor may block the pump, not the loop.
	applied := make(chan struct{}, 1)
	conn.beforeRead = func() {
		select {
		case applied <- struct{}{}:
		default:
		}
	}
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		t := time.NewTicker(s.ackInterval)
		defer t.Stop()
		drain := s.drainCh
		for {
			// A tick or a drain always sends (the ticker is the reporter's
			// heartbeat); a wake sends only if some trace's ack moved.
			drained, moved := false, true
			select {
			case <-stop:
				return
			case <-drain:
				// Orderly shutdown: tell the reporter now, behind the
				// current acks, so a pooled client peels off immediately
				// instead of waiting for the connection to die. Acks keep
				// flowing below while single-endpoint reporters flush.
				drain = nil
				drained = true
			case <-t.C:
			case <-applied:
				moved = false
			}
			// cur lists the traces in the order sentAcks does, and more.
			cur := acks()
			for i := 0; i < len(cur) && !moved; i++ {
				moved = i >= len(sentAcks) || cur[i].Seq > sentAcks[i].Seq
			}
			if !moved {
				continue
			}
			if cur != nil {
				sentAcks = cur
			}
			// Counted before it is written: the reporter may act on the ack
			// (and someone scrape the counter) before this goroutine runs
			// again.
			s.acksSent.add(1)
			if err := o.send(func(fw *frameWriter) {
				fw.acks(cur)
				if drained {
					fw.signal(frameDrain)
				}
			}); err != nil {
				_ = conn.Close() // unblock the read loop
				return
			}
		}
	}()

	conn.readTimeout = s.peerTimeout
	conn.onRead = func() {
		s.targetReads.add(1)
	}
	var f frame
	for {
		if err := fr.next(&f); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
				return nil
			}
			if isTimeout(err) {
				s.peerTimeouts.add(1)
				return fmt.Errorf("target silent for %v (no event or heartbeat); presumed dead", s.peerTimeout)
			}
			return fmt.Errorf("decoding raw event: %w", err)
		}
		if f.kind == frameHeartbeat {
			continue
		}
		if f.kind != frameRaw {
			return fmt.Errorf("unexpected kind-%d frame on a target stream", f.kind)
		}
		raw := f.raw
		s.targetEvents.add(1)
		if !seen[raw.Trace] {
			seen[raw.Trace] = true
			namesMu.Lock()
			names = append(names, raw.Trace)
			namesMu.Unlock()
		}
		err := s.collector.Report(raw)
		if errors.Is(err, ErrOverloaded) {
			// Admission control refused the event: shed the load back onto
			// the reporter by parking this connection and re-offering the
			// event until the backlog drains. The reporter keeps the event
			// in its bounded unacked buffer the whole time (no ack covers
			// it), so nothing is lost; its own Report calls block once that
			// buffer fills, propagating the backpressure to the source.
			s.loadSheds.add(1)
			s.sheddingConns.Add(1)
			deadline := time.Now().Add(s.overloadWait)
			for errors.Is(err, ErrOverloaded) && time.Now().Before(deadline) {
				// The interruptible sleep doubles as the shutdown check: a
				// park must never outlive Close.
				if !backoff.Sleep(overloadPoll, s.closing) {
					s.sheddingConns.Add(-1)
					return nil
				}
				err = s.collector.Report(raw)
			}
			s.sheddingConns.Add(-1)
			if errors.Is(err, ErrOverloaded) {
				// The backlog never drained: a causal predecessor is likely
				// missing for good. Tell the peer before hanging up.
				_ = o.send(func(fw *frameWriter) { fw.refuse(err.Error(), false) })
				return fmt.Errorf("shedding %s/%d: collector still overloaded after %v: %w",
					raw.Trace, raw.Seq, s.overloadWait, err)
			}
		}
		if err != nil {
			if errors.Is(err, ErrStaleEvent) {
				// A retransmit of something already ingested: the normal
				// aftermath of a reporter reconnect, not a fault. Dropping
				// it is exactly once delivery.
				s.stale.add(1)
				s.logf("poet server: %s: ignoring stale retransmit %s/%d", conn.RemoteAddr(), raw.Trace, raw.Seq)
				continue
			}
			// Malformed beyond repair: tell the peer why before hanging up,
			// so it fails its Report instead of retransmitting forever.
			_ = o.send(func(fw *frameWriter) { fw.refuse(err.Error(), false) })
			return fmt.Errorf("reporting: %w", err)
		}
	}
}

// handleMonitor streams the linearization to one client through a batch
// cursor that starts at the client's resume offset: the collector's own
// events, cut from its delivery log in batches, each once stable, with
// trace announcements before first use and idle heartbeats so the client
// can tell a quiet stream from a dead server. Under BackpressureDrop (the
// default) a monitor that falls monQueue events behind is evicted and
// disconnected — a wire stream must never have silent gaps (a
// reconnecting client heals the cut by resuming from its own offset);
// under BackpressureBlock ingestion throttles to the monitor instead. On
// server Close the cursor is drained and an End frame marks the clean
// end of stream.
func (s *Server) handleMonitor(conn *link, fr *frameReader, fw *frameWriter, h hello) error {
	s.monitorConns.add(1)
	// The whole batch is framed into the connection's buffer and leaves
	// in one flush (earlier only if the buffer fills). The delta state
	// is touched only by the cursor's goroutine, so encoding order equals
	// stream order — which the delta state depends on. Its first frames
	// wait for the hello's answer.
	o := &outbound{fw: fw, peer: "monitor"}
	o.mu.Lock()
	sub, err := s.collector.subscribeFrom(h.from, AsyncOptions{QueueDepth: s.monQueue, Policy: s.monPolicy}, true, true,
		func(anns []traceAnn, batch []*event.Event) error {
			entries := 0
			err := o.send(func(fw *frameWriter) {
				for _, a := range anns {
					fw.trace(a.id, a.name)
				}
				for _, e := range batch {
					entries += fw.event(e, readablePartner(e), true)
				}
			})
			s.vcEntriesSent.add(int64(entries))
			return err
		})
	if err != nil {
		o.mu.Unlock()
		return refuseHello(fw, roleMonitor, err.Error(), false)
	}
	// Timestamps are delta-encoded against each trace's previous one on
	// this connection. Both sides start with none at this handshake, so
	// reconnects and resumed replays are re-encoded from scratch —
	// retransmitted suffixes never depend on state from a dead connection.
	err = acceptHello(fw, nil)
	o.mu.Unlock()
	if err != nil {
		sub.Cancel()
		return err
	}
	if h.from > 0 {
		s.monitorResumes.add(1)
	}
	// A monitor never writes after its hello.
	err = s.stream(o, sub.cur, s.listen(conn, fr, func(*frame) {}), s.drainCh, nil, frameEnd)
	if errors.Is(err, errLagging) {
		s.monOverflows.add(1)
		err = fmt.Errorf("monitor %s overflowed its %d-event queue; disconnected", conn.RemoteAddr(), s.monQueue)
	}
	return err
}

// outbound is the sending side of a session. Its writers — a cursor's
// goroutine, the heartbeats, the drain and end frames, a target's acks —
// share its frame writer, each holding mu from first frame to flush.
type outbound struct {
	fw   *frameWriter
	peer string // the role written to, for errors
	mu   sync.Mutex
	// last is when the last flush ended, in Unix nanoseconds.
	last atomic.Int64
}

// send frames under mu and flushes once.
func (o *outbound) send(frames func(*frameWriter)) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	frames(o.fw)
	err := o.fw.flush()
	o.last.Store(time.Now().UnixNano())
	if err != nil {
		return fmt.Errorf("writing to %s: %w", o.peer, err)
	}
	return nil
}

// listen reads the peer's frames, handing each to on, until the peer
// hangs up or stays silent past the connection's read timeout (if any);
// the returned channel closes then, and so does the connection.
func (s *Server) listen(conn *link, fr *frameReader, on func(*frame)) <-chan struct{} {
	gone := make(chan struct{})
	go func() {
		defer close(gone)
		var f frame
		for {
			if err := fr.next(&f); err != nil {
				if isTimeout(err) {
					s.peerTimeouts.add(1)
					s.logf("poet server: %s silent for %v; presumed dead", conn.RemoteAddr(), conn.readTimeout)
				}
				_ = conn.Close()
				return
			}
			on(&f)
		}
	}()
	return gone
}

// stream is the loop of every session that streams a log: cur's
// goroutine frames each span and flushes it once, while stream sends a
// heartbeat — behind a head frame with head(), when head is set — once
// nothing was flushed for a heartbeat interval, so the peer can tell a
// quiet stream from a dead server, and a drain notice when drain fires.
// It ends when the peer hangs up (gone), when the cursor ends by itself
// (a write failure, a broken WAL, a lag eviction: its error), or on
// server Close, where the cursor drains to the head and the bye frames
// end the stream (End; Drain then End for a replica, which promotes on
// either, and a shard peer, which rotates to the standby).
func (s *Server) stream(o *outbound, cur *cursor, gone, drain <-chan struct{}, head func() int, bye ...byte) error {
	defer cur.close()
	hb := time.NewTicker(s.hbInterval)
	defer hb.Stop()
	for {
		select {
		case <-cur.done:
			return cur.err
		case <-gone:
			return nil
		case <-hb.C:
			if time.Since(time.Unix(0, o.last.Load())) < s.hbInterval {
				continue
			}
			err := o.send(func(fw *frameWriter) {
				if head != nil {
					fw.head(head())
				}
				fw.signal(frameHeartbeat)
			})
			if err != nil {
				return err
			}
			s.heartbeats.add(1)
		case <-drain:
			// Advise the peer to move to a healthy one. Pooled peers fail
			// over on the notice; single-endpoint ones ignore it, so keep
			// serving until End/close.
			drain = nil
			if err := o.send(func(fw *frameWriter) { fw.signal(frameDrain) }); err != nil {
				return err
			}
		case <-s.closing:
			if err := cur.close(); err != nil {
				return err
			}
			return o.send(func(fw *frameWriter) {
				for _, kind := range bye {
					fw.signal(kind)
				}
			})
		}
	}
}
