package poet

import (
	"errors"
	"fmt"
	"net"
	"time"

	"ocep/internal/backoff"
	"ocep/internal/fifo"
	"ocep/internal/pool"
)

// Warm-standby replication. A primary collector that keeps its journal
// (journal.go: every successfully ingested raw event, explicit trace
// registration and applied peer-shard send, in exactly the order the WAL
// logs them) serves it to replica sessions (hello role "replica") over
// the normal wire port: a session is a cursor over the journal. A
// standby runs a Replicator that applies the stream
// to its own collector through the public Report/RegisterTrace path, so
// the standby's delivery, ack watermarks, and monitor offsets are the
// deterministic product of the same record order the primary ingested:
// after a failover, a monitor's ResumeFrom and a reporter's pruned
// prefix mean the same thing on the standby that they meant on the
// primary.
//
// Two barriers make the failover exact while a replica is attached:
//
//   - reporter acks are released only once the replica has confirmed
//     the ingest position the ack snapshot was taken at (acksFor), so a
//     reporter never prunes an event the promoted standby might lack;
//   - monitor sends wait for the same confirmation (replBarrier), so a
//     monitor's resume offset never runs ahead of what the standby can
//     replay.
//
// Both barriers lift the moment no replica session is attached — a dead
// or detached standby must not take the primary's availability with it.
// The window this opens (events acked while no replica was attached are
// lost if the primary then dies before the replica catches up) is the
// standard warm-standby trade; the replication lag gauge and the
// standby's /readyz check are there to keep it observable.

// defaultReplAckWait bounds how long an ack release waits for a lagging
// replica before the ack is withheld for one interval; poetd lowers it
// to half the heartbeat so withheld acks still leave room for the empty
// frame to heartbeat the reporter.
const defaultReplAckWait = 500 * time.Millisecond

// ErrPrimaryDrained reports that the primary ended the replication
// session with an orderly drain (clean shutdown after full
// replication): the standby should promote.
var ErrPrimaryDrained = errors.New("poet: primary drained")

// replState is what the attached replica sessions have confirmed,
// guarded by the collector's mu. A change wakes barrier waiters through
// the growth signal of the journal the sessions tail.
type replState struct {
	// confirmed maps attached replica session ids to the event-record
	// count each has acknowledged applying; made with the journal.
	confirmed map[int]int
	nextSess  int
}

func (r *replState) minConfirmed() int {
	min := -1
	for _, n := range r.confirmed {
		if min < 0 || n < min {
			min = n
		}
	}
	if min < 0 {
		return 0
	}
	return min
}

// SetReplicationAckWait bounds how long reporter-ack release waits for
// an attached replica's confirmation before withholding the ack for one
// interval. Zero restores the default.
func (c *Collector) SetReplicationAckWait(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.replAckWait = d
}

// ReplicationStats summarizes the primary side of replication.
type ReplicationStats struct {
	// Enabled reports whether the collector keeps its journal, the record
	// stream replica sessions tail.
	Enabled bool
	// Sessions is the number of currently attached replica sessions.
	Sessions int
	// Confirmed is the lowest event-record count an attached session
	// has confirmed (0 with no sessions).
	Confirmed int
	// Lag is the number of ingested events not yet confirmed by every
	// attached session (0 with no sessions: there is no one to lag).
	Lag int
	// Records is the length of the journal (events, explicit trace
	// registrations, applied peer-shard sends).
	Records int
	// JournalBytes is the memory the journal holds: its records as the
	// WAL encodes them, and the peer-shard sends kept beside them.
	JournalBytes int
}

// ReplicationStats returns the primary-side replication counters.
func (c *Collector) ReplicationStats() ReplicationStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := ReplicationStats{Enabled: c.journal != nil}
	if c.journal == nil {
		return st
	}
	st.Sessions = len(c.repl.confirmed)
	st.Records = c.journal.n
	st.JournalBytes = c.journal.size + c.journal.remotes.Chunks()*fifo.ChunkBytes
	if st.Sessions > 0 {
		st.Confirmed = c.repl.minConfirmed()
		st.Lag = c.ingests - st.Confirmed
	}
	return st
}

// replAttach registers a replica session whose hello confirmed applying
// the first `applied` event records, returning its session id.
func (c *Collector) replAttach(applied int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := c.repl.nextSess
	c.repl.nextSess++
	c.repl.confirmed[id] = applied
	c.journal.wake()
	return id
}

// replDetach removes a replica session; barriers that were waiting on
// it lift (the availability-over-durability choice documented above).
func (c *Collector) replDetach(id int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.repl.confirmed, id)
	c.journal.wake()
}

// replConfirm records a replica's confirmation of the first `applied`
// event records.
func (c *Collector) replConfirm(id, applied int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur, ok := c.repl.confirmed[id]; ok && applied > cur {
		c.repl.confirmed[id] = applied
		c.journal.wake()
	}
}

// replWait blocks until every attached replica session has confirmed
// pos event records, no session remains attached, or the timeout
// expires (a negative timeout never does); it reports whether the
// confirmation condition held.
func (c *Collector) replWait(pos int, timeout time.Duration) bool {
	var expired <-chan time.Time
	if timeout >= 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		expired = t.C
	}
	for {
		c.mu.Lock()
		if len(c.repl.confirmed) == 0 || c.repl.minConfirmed() >= pos {
			c.mu.Unlock()
			return true
		}
		ch := c.journal.signal()
		c.mu.Unlock()
		select {
		case <-ch:
		case <-expired:
			return false
		}
	}
}

// replBarrier blocks until every attached replica session has confirmed
// the current ingest position, or no session remains attached. The
// monitor send path runs behind it: an event is never on a monitor wire
// before the standby that would serve the monitor's resume has it. The
// wait is unbounded on purpose — a hung replica is evicted by the
// server's peer timeout, which detaches the session and lifts the
// barrier.
func (c *Collector) replBarrier() { c.replWait(c.IngestCount(), -1) }

// replAttachPoint translates a replica's event-record offset into the
// journal index its session streams from, and lists the registered
// traces the session sends first. The journal a recovery rebuilds has
// the snapshot's registrations at its front, not where they happened,
// so one the replica has yet to apply may sit in the prefix its offset
// skips; registering every trace in ID order gives it the primary's
// numbering wherever it stopped (the in-band ones are then no-ops).
func (c *Collector) replAttachPoint(events int) (cur journalCursor, traces []string, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if head := c.journal.events(); events < 0 || events > head {
		return cur, nil, fmt.Errorf("replica claims %d applied events, this collector ingested %d: it did not produce that stream", events, head)
	}
	return c.journal.seek(c.journal.indexAfter(events)), c.registeredTracesLocked(), nil
}

// journalFrom returns the journal records from cur to the end of its
// chunk, the cursor past them, the ingest head, and — when there is
// nothing to read — the growth signal. An append writes only past every
// span handed out, so a span stays safe to read outside the lock.
func (c *Collector) journalFrom(cur journalCursor) (sp journalSpan, next journalCursor, head int, grew <-chan struct{}) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if sp, next = c.journal.span(cur); len(sp.b) == 0 {
		grew = c.journal.signal()
	}
	return sp, next, c.ingests, grew
}

// ---------------------------------------------------------------------
// Server side: replica sessions, standby gating, drain.

// handleReplica streams the collector's journal to one warm standby:
// the registered traces, the suffix past the replica's confirmed offset,
// then live records as they are ingested, with idle heartbeats carrying the
// ingest head so the replica can compute its lag on a quiet stream. A
// background reader consumes the replica's head frames (its applied
// count) and feeds the confirmations that release the primary's ack and
// monitor-send barriers.
func (s *Server) handleReplica(conn *link, fr *frameReader, fw *frameWriter, h hello) error {
	c := s.collector
	if !c.ReplicationStats().Enabled {
		return refuseHello(fw, roleReplica, "replication log not enabled on this collector", false)
	}
	cur, traces, err := c.replAttachPoint(h.from)
	if err != nil {
		return refuseHello(fw, roleReplica, err.Error(), false)
	}
	if err := acceptHello(fw, nil); err != nil {
		return err
	}
	s.replicaSessions.add(1)
	if h.from > 0 {
		s.targetResumes.Add(1) // WireStats only: the metric counts reporters
	}
	sess := c.replAttach(h.from)
	defer c.replDetach(sess)
	s.logf("poet server: replica %s attached at offset %d", conn.RemoteAddr(), h.from)

	// Confirmation reader. The peer timeout applies: a replica that
	// stops acking (hung, partitioned) is declared dead, detaching the
	// session so the barriers lift instead of stalling the primary.
	conn.readTimeout = s.peerTimeout
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		var f frame
		for {
			if err := fr.next(&f); err != nil {
				if isTimeout(err) {
					s.peerTimeouts.add(1)
					s.logf("poet server: replica %s silent for %v; presumed dead", conn.RemoteAddr(), s.peerTimeout)
				}
				_ = conn.Close()
				return
			}
			if f.kind == frameHead {
				c.replConfirm(sess, f.head)
			}
		}
	}()

	for _, name := range traces {
		fw.traceReg(name)
	}
	// No drain notice of its own: a replica takes Drain as the clean
	// handoff, and that comes with the End frame.
	err = s.streamLog(conn, fw, "replica", readerDone, nil, func() (int, int, <-chan struct{}) {
		sp, next, head, ch := c.journalFrom(cur)
		if len(sp.b) > 0 {
			fw.head(head)
		}
		recs, events := fw.replicate(sp)
		s.replicaEvents.add(int64(events))
		cur = next
		return recs, head, ch
	})
	_ = conn.Close()
	<-readerDone
	return err
}

// streamLog is the sending loop of the sessions that tail an append-only
// log (replica, shard): emit frames whatever the log holds past the
// session's cursor — the whole suffix goes into the buffer behind one
// head count and leaves in one flush, earlier only if the buffer fills —
// and reports how many records that was, the current head, and the
// channel that signals growth. An idle stream heartbeats with the head,
// so the peer can tell quiet from dead and compute its lag; a drain
// notice goes out when drain fires; on server Close the stream ends with
// Drain then End — a replica takes that as the primary's clean handoff
// and promotes, a shard peer rotates to the standby. gone closes when
// the peer hangs up.
func (s *Server) streamLog(conn *link, fw *frameWriter, peer string, gone, drain <-chan struct{}, emit func() (n, head int, grew <-chan struct{})) error {
	hb := time.NewTimer(s.hbInterval)
	defer hb.Stop()
	for {
		n, head, grew := emit()
		if n > 0 {
			if err := fw.flush(); err != nil {
				return fmt.Errorf("encoding to %s: %w", peer, err)
			}
			// Re-check for records appended while this batch encoded
			// before parking.
			backoff.ResetTimer(hb, s.hbInterval)
			continue
		}
		select {
		case <-grew:
		case <-hb.C:
			hb.Reset(s.hbInterval)
			fw.head(head)
			fw.signal(frameHeartbeat)
			if err := fw.flush(); err != nil {
				return fmt.Errorf("heartbeat to %s: %w", peer, err)
			}
			s.heartbeats.add(1)
		case <-gone:
			return nil
		case <-drain:
			// Advise the peer to move on; keep serving until End/close
			// for peers with nowhere to go.
			drain = nil
			fw.signal(frameDrain)
			if err := fw.flush(); err != nil {
				return fmt.Errorf("drain frame to %s: %w", peer, err)
			}
		case <-s.closing:
			fw.signal(frameDrain)
			fw.signal(frameEnd)
			err := fw.flush()
			_ = conn.Close()
			return err
		}
	}
}

// SetStandby marks the server as an unpromoted warm standby: target,
// monitor, and replica hellos are rejected with a retriable ack
// (pools keep probing and fail over elsewhere) until Promote. Query
// sessions pass through — the standby's recovered state is readable.
func (s *Server) SetStandby(on bool) { s.standby.Store(on) }

// Standby reports whether the server is an unpromoted standby.
func (s *Server) Standby() bool { return s.standby.Load() }

// Promote clears the standby gate: the server starts accepting
// reporter, monitor, and replica sessions, serving them from the state
// the replication stream built.
func (s *Server) Promote() {
	if s.standby.CompareAndSwap(true, false) {
		s.logf("poet server: promoted; accepting sessions")
	}
}

// Draining reports whether Drain has begun. Readiness probes consult it
// so a draining collector advertises not-ready.
func (s *Server) Draining() bool { return s.drainFlag.Load() }

// Drain performs an orderly shutdown: new sessions are rejected with a
// retriable ack, every connected peer is sent a drain notice (pooled
// clients fail over immediately instead of waiting for dead-peer
// timeouts; single-endpoint peers just keep their session until the End
// frame), reporter acks keep flowing while connected targets flush,
// and — once the targets have left, the collector has delivered its
// backlog, and any attached replica has confirmed the full stream, or
// wait has elapsed — the server closes gracefully (monitor queues
// drained, End frames sent). wait <= 0 uses DefaultDrainWait.
func (s *Server) Drain(wait time.Duration) error {
	if !s.drainFlag.CompareAndSwap(false, true) {
		return nil
	}
	if wait <= 0 {
		wait = DefaultDrainWait
	}
	s.drains.add(1)
	s.logf("poet server: draining (up to %v)", wait)
	close(s.drainCh)
	deadline := time.Now().Add(wait)
	for time.Now().Before(deadline) {
		if s.targetConnCount.Load() == 0 && s.collector.Drained() &&
			s.collector.replWait(s.collector.IngestCount(), 0) {
			break
		}
		time.Sleep(overloadPoll)
	}
	return s.Close()
}

// DefaultDrainWait bounds how long Drain waits for targets to flush and
// leave before closing anyway.
const DefaultDrainWait = 5 * time.Second

// abort tears down the server without any of the graceful-shutdown
// courtesies — no drain notices, no monitor queue flush, no End frames:
// connections are severed first, then handlers are collected. It is the
// in-process stand-in for SIGKILL, used by the failover tests to
// simulate a primary crash without a child process.
func (s *Server) abort() {
	s.mu.Lock()
	already := s.closed
	s.closed = true
	ln := s.listener
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if ln != nil {
		_ = ln.Close()
	}
	for _, c := range conns {
		_ = c.Close()
	}
	if !already {
		close(s.closing)
	}
	s.serveWG.Wait()
	s.wg.Wait()
}

// ---------------------------------------------------------------------
// Follower side: the Replicator client.

// ReplicaOption configures FollowPrimary.
type ReplicaOption func(*replCfg)

type replCfg struct {
	clientCfg
	heartbeat time.Duration
}

// defaultReplicaBudget is deliberately shorter than the client default:
// the standby and primary share a failure domain boundary the clients
// wait behind — promotion must happen while reporter and monitor pools
// still have reconnect budget left to reach the promoted standby.
const defaultReplicaBudget = 10 * time.Second

func defaultReplCfg() replCfg {
	cfg := replCfg{clientCfg: defaultClientCfg(), heartbeat: defaultHeartbeat}
	cfg.reconnectBudget = defaultReplicaBudget
	return cfg
}

// WithReplicaReconnect bounds the cumulative backoff spent redialing the
// primary per outage; exhausting it declares the primary dead (the
// Replicator finishes with an ErrStreamInterrupted-wrapping error, the
// standby's cue to promote).
func WithReplicaReconnect(budget time.Duration) ReplicaOption {
	return func(c *replCfg) { c.reconnectBudget = budget }
}

// WithReplicaHeartbeat sets the confirmation/keep-alive cadence toward
// the primary and scales the dead-peer timeout to 5x.
func WithReplicaHeartbeat(d time.Duration) ReplicaOption {
	return func(c *replCfg) {
		if d > 0 {
			c.heartbeat = d
			c.peerTimeout = 5 * d
		}
	}
}

// WithReplicaPeerTimeout overrides how long the replica waits for a
// record or heartbeat before declaring the connection dead.
func WithReplicaPeerTimeout(d time.Duration) ReplicaOption {
	return func(c *replCfg) {
		if d > 0 {
			c.peerTimeout = d
		}
	}
}

// WithReplicaBackoff overrides the reconnect backoff schedule.
func WithReplicaBackoff(base, max time.Duration) ReplicaOption {
	return func(c *replCfg) { c.backoffBase, c.backoffMax = base, max }
}

// WithReplicaLog routes replication diagnostics to logf.
func WithReplicaLog(logf func(string, ...any)) ReplicaOption {
	return func(c *replCfg) {
		if logf != nil {
			c.logf = logf
		}
	}
}

// ReplicatorStats are a follower's cumulative replication counters.
type ReplicatorStats struct {
	// Applied counts event records applied to the local collector.
	Applied int
	// Head is the primary's last reported ingest count.
	Head int
	// Lag is Head - Applied, clamped at zero.
	Lag int
	// Reconnects counts successful session re-establishments.
	Reconnects int
}

// Replicator tails a primary's record stream into a local collector,
// keeping a warm standby one promotion away. It applies records through
// the public Report/RegisterTrace path — duplicates after a resume are
// absorbed as stale no-ops, and the local WAL (when the collector is
// durable) logs everything, so a crashed standby recovers and resumes
// from its exact applied offset.
type Replicator struct {
	addr string
	c    *Collector
	cfg  replCfg

	follower                 // guards the fields below too
	wake       chan struct{} // current connection's acker wake signal
	head       int
	reconnects int
}

// FollowPrimary connects to the primary at addr as a replica and starts
// tailing its record stream into c. The initial dial and handshake are
// synchronous (a misconfigured primary fails fast); subsequent outages
// are ridden out by the reconnect budget. The caller decides what
// finishing means: watch Done and classify Err — ErrPrimaryDrained or
// an ErrStreamInterrupted wrap mean "promote", a terminal
// ErrSessionRejected means the pairing is wrong, nil means Stop was
// called (manual promotion).
func FollowPrimary(addr string, c *Collector, opts ...ReplicaOption) (*Replicator, error) {
	cfg := defaultReplCfg()
	for _, o := range opts {
		o(&cfg)
	}
	r := &Replicator{addr: addr, c: c, cfg: cfg}
	r.stopCh, r.done = make(chan struct{}), make(chan struct{})
	conn, err := r.connect()
	if err != nil {
		return nil, fmt.Errorf("poet replica: %w", err)
	}
	go r.run(conn)
	return r, nil
}

// connect dials the primary and completes the replica handshake,
// resuming from the local collector's ingest count.
func (r *Replicator) connect() (*link, error) {
	s, err := dialSession(r.addr, hello{role: roleReplica, from: r.c.IngestCount()},
		&r.cfg.clientCfg, max(r.cfg.peerTimeout, minHandshakeTimeout))
	if err != nil {
		return nil, err
	}
	wake := make(chan struct{}, 1)
	r.mu.Lock()
	live := r.publishLocked(s.link)
	r.wake = wake
	r.mu.Unlock()
	if !live {
		return nil, ErrClientClosed
	}
	// Confirmation sender for this connection: an ack immediately after
	// each applied burst (the barrier's latency), heartbeats when idle.
	go r.acker(s.link, s.fw, wake)
	return s.link, nil
}

// signalAck wakes the current connection's acker; buffered so the apply
// loop never blocks.
func (r *Replicator) signalAck() {
	r.mu.Lock()
	wake := r.wake
	r.mu.Unlock()
	select {
	case wake <- struct{}{}:
	default:
	}
}

// acker confirms on one connection until it dies: a head frame with the
// applied count when it advanced, a heartbeat frame when the timer fires
// on an unchanged one.
func (r *Replicator) acker(conn net.Conn, fw *frameWriter, wake chan struct{}) {
	t := time.NewTimer(r.cfg.heartbeat)
	defer t.Stop()
	last := -1
	for {
		hb := false
		select {
		case <-wake:
		case <-t.C:
			t.Reset(r.cfg.heartbeat)
			hb = true
		case <-r.stopCh:
			return
		}
		applied := r.c.IngestCount()
		switch {
		case applied != last:
			fw.head(applied)
		case hb:
			fw.signal(frameHeartbeat)
		default:
			continue
		}
		if err := fw.flush(); err != nil {
			_ = conn.Close()
			return
		}
		last = applied
		if !hb {
			backoff.ResetTimer(t, r.cfg.heartbeat)
		}
	}
}

// run is the replica's session loop: apply the stream, reconnect on
// transport faults, finish on drain, stop, terminal rejection, or
// budget exhaustion.
func (r *Replicator) run(conn *link) {
	defer close(r.done)
	for {
		cause := r.session(conn)
		_ = conn.Close()
		if errors.Is(cause, ErrPrimaryDrained) {
			r.finish(ErrPrimaryDrained)
			return
		}
		if r.isStopped() {
			r.finish(nil)
			return
		}
		if cause != nil && !isTransport(cause) {
			r.finish(cause)
			return
		}
		c, err := r.reconnect(cause)
		if err != nil {
			r.finish(err)
			return
		}
		if c == nil {
			// Stopped mid-backoff: reconnect bailed without a connection.
			r.finish(nil)
			return
		}
		conn = c
	}
}

// isTransport reports whether cause is worth redialing: anything except
// a divergence the stream itself reported (apply errors, protocol
// violations) is.
func isTransport(err error) bool {
	var de *divergenceError
	return !errors.As(err, &de)
}

// divergenceError marks causes that redialing cannot fix: the local
// collector refused a record the primary ingested.
type divergenceError struct{ err error }

func (d *divergenceError) Error() string { return d.err.Error() }
func (d *divergenceError) Unwrap() error { return d.err }

// session applies one connection's stream until it ends.
func (r *Replicator) session(conn *link) error {
	fr := &frameReader{br: conn.br}
	var f frame
	for {
		if err := fr.next(&f); err != nil {
			if isTimeout(err) {
				r.cfg.logf("poet replica: no record or heartbeat from %s in %v; reconnecting", r.addr, r.cfg.peerTimeout)
			}
			return err
		}
		switch f.kind {
		case frameDrain, frameEnd:
			return ErrPrimaryDrained
		case frameHead:
			r.mu.Lock()
			if f.head > r.head {
				r.head = f.head
			}
			r.mu.Unlock()
			continue
		case frameHeartbeat:
		case frameTraceReg:
			r.c.RegisterTrace(f.name)
			continue
		case frameExport:
			if err := r.c.SupplyRemoteSend(f.exp.MsgID, f.exp.ID, f.exp.VC); err != nil {
				// The primary applied this remote send; a local refusal
				// (e.g. sharding not enabled here) is a configuration
				// divergence redialing cannot fix.
				return &divergenceError{fmt.Errorf("poet replica: applying remote send %d: %w", f.exp.MsgID, err)}
			}
		case frameRaw:
			err := r.c.Report(f.raw)
			if err != nil && !errors.Is(err, ErrStaleEvent) {
				// The primary ingested this record; a local refusal means
				// the two collectors have diverged (or the local disk
				// died). Redialing replays the same record — surface it.
				return &divergenceError{fmt.Errorf("poet replica: applying %s/%d: %w", f.raw.Trace, f.raw.Seq, err)}
			}
		default:
			return &divergenceError{fmt.Errorf("poet replica: unexpected kind-%d frame on a replica stream", f.kind)}
		}
		// Confirm once per applied burst, when the inbound buffer runs
		// dry — not once per record: a heartbeat keeps our side of the
		// liveness conversation, a record releases the primary's barriers.
		if conn.br.Buffered() == 0 {
			r.signalAck()
		}
	}
}

// reconnect redials the primary until the budget is exhausted. Returns a
// nil conn when stopped (run notices and finishes nil).
func (r *Replicator) reconnect(cause error) (conn *link, err error) {
	if r.cfg.reconnectBudget <= 0 {
		return nil, fmt.Errorf("poet replica: %w (cause: %v; reconnection disabled)", ErrStreamInterrupted, cause)
	}
	eps := pool.New([]string{r.addr}, r.cfg.backoffBase, r.cfg.backoffMax)
	err = redial(eps, r.cfg.reconnectBudget, r.stopCh, func(string) error {
		if conn, err = r.connect(); err != nil {
			return err
		}
		r.mu.Lock()
		r.reconnects++
		r.mu.Unlock()
		r.cfg.logf("poet replica: resumed replication from %s at offset %d", r.addr, r.c.IngestCount())
		return nil
	})
	switch {
	case err == nil || errors.Is(err, ErrClientClosed):
		return conn, nil
	case errors.Is(err, ErrSessionRejected):
		return nil, err
	}
	return nil, fmt.Errorf("poet replica: %w; primary unreachable: %v", ErrStreamInterrupted, err)
}

// Stats returns the follower-side replication counters.
func (r *Replicator) Stats() ReplicatorStats {
	r.mu.Lock()
	head, rec := r.head, r.reconnects
	r.mu.Unlock()
	applied := r.c.IngestCount()
	lag := head - applied
	if lag < 0 {
		lag = 0
	}
	return ReplicatorStats{Applied: applied, Head: head, Lag: lag, Reconnects: rec}
}
