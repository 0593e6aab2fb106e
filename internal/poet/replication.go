package poet

import (
	"errors"
	"fmt"
	"time"

	"ocep/internal/backoff"
	"ocep/internal/fifo"
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
// One watermark makes the failover exact: a record is stable once it is
// durable under the fsync policy and every attached replica has
// confirmed it (delivery.go). A reporter is acked, a monitor sent an
// event and a peer shard an export only behind it, so nothing a client
// acts on runs ahead of what the promoted standby replays. Replica
// sessions read the journal head: their confirmations are what move the
// watermark. It stops waiting for replicas the moment none is attached —
// a dead or detached standby must not take the primary's availability
// with it. The window this opens (events acked while no replica was
// attached are lost if the primary then dies before the replica catches
// up) is the standard warm-standby trade; the replication lag gauge and
// the standby's /readyz check are there to keep it observable.

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
// guarded by the collector's mu. A change moves the stable watermark, so
// it broadcasts the collector's fresh cond.
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
// the first `applied` event records. It returns the session's id, the
// journal cursor its stream starts at, and the registered traces it
// sends first: the journal a recovery rebuilds has the snapshot's
// registrations at its front, not where they happened, so one the
// replica has yet to apply may sit in the prefix its offset skips;
// registering every trace in ID order gives it the primary's numbering
// wherever it stopped (the in-band ones are then no-ops).
func (c *Collector) replAttach(applied int) (id int, jc journalCursor, traces []string, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case c.journal == nil:
		return 0, jc, nil, errors.New("replication log not enabled on this collector")
	case applied < 0 || applied > c.journal.events():
		return 0, jc, nil, fmt.Errorf("replica claims %d applied events, this collector ingested %d: it did not produce that stream", applied, c.journal.events())
	}
	id = c.repl.nextSess
	c.repl.nextSess++
	c.repl.confirmed[id] = applied
	c.fresh.Broadcast()
	return id, c.journal.seek(c.journal.indexAfter(applied)), c.registeredTracesLocked(), nil
}

// replDetach removes a replica session; the watermark stops waiting for
// it (the availability-over-durability choice documented above).
func (c *Collector) replDetach(id int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.repl.confirmed, id)
	c.fresh.Broadcast()
}

// replConfirm records a replica's confirmation of the first `applied`
// event records.
func (c *Collector) replConfirm(id, applied int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur, ok := c.repl.confirmed[id]; ok && applied > cur {
		c.repl.confirmed[id] = applied
		c.fresh.Broadcast()
	}
}

// ---------------------------------------------------------------------
// Server side: replica sessions, standby gating, drain.

// handleReplica streams the collector's journal to one warm standby:
// the registered traces, the suffix past the replica's confirmed offset,
// then live records as they are ingested, each span behind a head frame
// with the ingest count at its cut, and idle heartbeats carrying the
// ingest head so the replica can compute its lag on a quiet stream. A
// background reader consumes the replica's head frames (its applied
// count): the confirmations that move the stable watermark.
func (s *Server) handleReplica(conn *link, fr *frameReader, fw *frameWriter, h hello) error {
	c := s.collector
	sess, jc, traces, err := c.replAttach(h.from)
	if err != nil {
		return refuseHello(fw, roleReplica, err.Error(), false)
	}
	defer c.replDetach(sess)
	if err := acceptHello(fw, nil); err != nil {
		return err
	}
	s.replicaSessions.add(1)
	if h.from > 0 {
		s.targetResumes.Add(1) // WireStats only: the metric counts reporters
	}
	s.logf("poet server: replica %s attached at offset %d", conn.RemoteAddr(), h.from)

	// The replica's confirmations. The peer timeout applies: a replica
	// that stops acking (hung, partitioned) is declared dead, detaching
	// the session so the watermark stops waiting for it.
	conn.readTimeout = s.peerTimeout
	gone := s.listen(conn, fr, func(f *frame) {
		if f.kind == frameHead {
			c.replConfirm(sess, f.head)
		}
	})

	for _, name := range traces {
		fw.traceReg(name)
	}
	o := &outbound{fw: fw, peer: "replica"}
	var sp journalSpan
	head := 0
	cur := c.tail(&cursor{head: func() int { return c.journal.n },
		cut: func(int, int) int {
			sp, jc = c.journal.span(jc)
			head = c.ingests
			return jc.idx
		},
		hand: func() error {
			return o.send(func(fw *frameWriter) {
				fw.head(head)
				_, events := fw.replicate(sp)
				s.replicaEvents.add(int64(events))
			})
		},
	}, jc.idx)
	// No drain notice of its own: a replica takes Drain as the clean
	// handoff, and that comes with the End frame.
	err = s.stream(o, cur, gone, nil, c.IngestCount, frameDrain, frameEnd)
	_ = conn.Close()
	<-gone
	return err
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
// backlog, and every attached replica has confirmed the ingest count, or
// wait has elapsed — the server closes gracefully (outbound cursors
// drained, End frames sent). That is the stable watermark: a Report
// returns only after its WAL commit, so with the targets gone the
// durability half holds already. wait <= 0 uses DefaultDrainWait.
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
	c := s.collector
	c.mu.Lock()
	c.awaitLocked(wait, func() bool {
		return s.targetConnCount.Load() == 0 && c.pendingLocked() == 0 && c.replicatedLocked(c.ingests)
	})
	c.mu.Unlock()
	return s.Close()
}

// DefaultDrainWait bounds how long Drain waits for targets to flush and
// leave before closing anyway.
const DefaultDrainWait = 5 * time.Second

// ---------------------------------------------------------------------
// Follower side: the Replicator client.

// defaultReplicaBudget is deliberately shorter than the client default:
// the standby and primary share a failure domain boundary the clients
// wait behind — promotion must happen while reporter and monitor pools
// still have reconnect budget left to reach the promoted standby.
const defaultReplicaBudget = 10 * time.Second

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
	wireClient // its mu guards the fields below too
	c          *Collector
	wake       chan struct{} // the live session's acker wake signal
	head       int
}

// FollowPrimary connects to the primary at addr as a replica and starts
// tailing its record stream into c. The initial dial and handshake are
// synchronous (a misconfigured primary fails fast); subsequent outages
// are ridden out by the reconnect budget, 10s unless
// WithSessionReconnect says otherwise. The caller decides what
// finishing means: watch Done and classify Err — a terminal
// ErrSessionRejected means the pairing is wrong, ErrPrimaryDrained or
// another ErrStreamInterrupted wrap mean "promote", nil means Stop was
// called (manual promotion).
func FollowPrimary(addr string, c *Collector, opts ...SessionOption) (*Replicator, error) {
	cfg := defaultClientCfg()
	cfg.reconnectBudget = defaultReplicaBudget
	r := &Replicator{c: c}
	if err := r.init("replica", addr, cfg, opts, r); err != nil {
		return nil, err
	}
	s, err := r.connect()
	if err != nil {
		return nil, err
	}
	go r.run(s, r.serve)
	return r, nil
}

// greet resumes from the local collector's ingest count.
func (r *Replicator) greet() hello { return hello{role: roleReplica, from: r.c.IngestCount()} }

// attach starts the session's confirmation sender: an ack immediately
// after each applied burst (the stable watermark's latency), heartbeats
// when idle.
func (r *Replicator) attach(s *session) {
	wake := make(chan struct{}, 1)
	r.mu.Lock()
	r.wake = wake
	r.mu.Unlock()
	go r.acker(s, wake)
}

// acker confirms on one session until it dies: a head frame with the
// applied count when it advanced, a heartbeat frame when the timer fires
// on an unchanged one.
func (r *Replicator) acker(s *session, wake chan struct{}) {
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
			s.fw.head(applied)
		case hb:
			s.fw.signal(frameHeartbeat)
		default:
			continue
		}
		if err := s.fw.flush(); err != nil {
			_ = s.Close()
			return
		}
		last = applied
		if !hb {
			backoff.ResetTimer(t, r.cfg.heartbeat)
		}
	}
}

// serve applies one session's stream until it ends.
func (r *Replicator) serve(s *session) error {
	r.mu.Lock()
	wake := r.wake
	r.mu.Unlock()
	var f frame
	for {
		if err := s.fr.next(&f); err != nil {
			return err
		}
		switch f.kind {
		case frameDrain, frameEnd:
			return terminal(ErrPrimaryDrained)
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
				return terminal(fmt.Errorf("poet replica: applying remote send %d: %w", f.exp.MsgID, err))
			}
		case frameRaw:
			err := r.c.Report(f.raw)
			if err != nil && !errors.Is(err, ErrStaleEvent) {
				// The primary ingested this record; a local refusal means
				// the two collectors have diverged (or the local disk
				// died). Redialing replays the same record — surface it.
				return terminal(fmt.Errorf("poet replica: applying %s/%d: %w", f.raw.Trace, f.raw.Seq, err))
			}
		default:
			return terminal(fmt.Errorf("poet replica: unexpected kind-%d frame on a replica stream", f.kind))
		}
		// Confirm once per applied burst, when the inbound buffer runs
		// dry — not once per record: a heartbeat keeps our side of the
		// liveness conversation, a record moves the primary's watermark.
		if s.br.Buffered() == 0 {
			select {
			case wake <- struct{}{}:
			default:
			}
		}
	}
}

// Stop detaches from the primary (manual promotion). The caller should
// wait on Done for the session goroutine.
func (r *Replicator) Stop() { r.stop(true) }

// Done is closed when following has stopped, for any reason; Err then
// says why.
func (r *Replicator) Done() <-chan struct{} { return r.done }

// Err returns why following ended: nil (Stop was called),
// ErrPrimaryDrained (clean handoff), an ErrStreamInterrupted wrap
// (primary unreachable past the reconnect budget — a standby's cue to
// promote; test for ErrSessionRejected first: a terminal refusal of the
// resumed session wraps both), or a record the local collector refused.
func (r *Replicator) Err() error { return r.failure() }

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
