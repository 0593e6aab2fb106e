package poet

import (
	"errors"
	"fmt"
	"time"

	"ocep/internal/event"
	"ocep/internal/vclock"
)

// Horizontal sharding. A sharded collector tier splits the trace space
// across N collectors ("shards"): every trace has exactly one home
// shard that ingests, stamps, and linearizes its events. Three pieces
// make the composition equal to a single collector:
//
//   - Striped trace IDs: shard i numbers its home traces i, i+N,
//     i+2N, … so global trace IDs (and therefore vector-clock
//     positions) never collide across shards, and a merged monitor sees
//     one coherent coordinate space without any renumbering.
//   - The cross-shard exchange: delivering a send-like event appends a
//     shardExport record — the send's identity, MsgID, and full vector
//     timestamp — to an append-only export log. Peer shards tail that
//     log over the normal wire port (hello role "shard"), with
//     the timestamp delta-encoded exactly like monitor frames, so only
//     the changed entries of the exporting shard's frontier travel.
//     SupplyRemoteSend applies a record idempotently: a receive whose
//     send was delivered on a peer merges the exported stamp instead of
//     a local event's.
//   - The merge layer (internal/shard): one monitor subscribes to every
//     shard and interleaves the per-shard linearizations into a single
//     causally-consistent one, holding back an event until the
//     cross-shard part of its causal past (read off its timestamp) has
//     been emitted.
//
// Exchange resume is deliberately from-zero: export records are
// idempotent and self-describing, and after a crash recovery or a
// failover the peer's export order need not match the dead session's,
// so an offset-based resume could silently skip records. Re-streaming
// the log is always correct; SupplyRemoteSend absorbs duplicates.
//
// Replication composes: a sharded primary journals every fresh remote
// send at the position it was applied (a recRemote record), so a warm
// standby rebuilds the identical
// linearization without tailing the peers itself — it must not, or
// remote-send arrival timing would make its delivery order diverge from
// the primary's. The standby starts its own peer followers only at
// promotion.

// shardExport is one record of the cross-shard export log: a delivered
// send-like event reduced to what a peer needs to stamp its receive.
type shardExport struct {
	MsgID uint64
	ID    event.ID
	VC    vclock.Stamp
}

// EnableSharding makes the collector shard shardID of a numShards-wide
// tier: its home traces get striped global IDs and its delivered sends
// are exported for peer shards. Must be called at wiring time, before
// any trace is registered or event ingested, and refuses a retaining
// collector (peers read the export log from record zero). Idempotent
// for identical arguments.
func (c *Collector) EnableSharding(shardID, numShards int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if numShards < 1 || shardID < 0 || shardID >= numShards {
		return fmt.Errorf("poet: invalid shard %d of %d", shardID, numShards)
	}
	if c.sharded {
		if c.shardID == shardID && c.numShards == numShards {
			return nil
		}
		return fmt.Errorf("poet: collector is already shard %d of %d", c.shardID, c.numShards)
	}
	if err := c.retainingLocked("sharding"); err != nil {
		return err
	}
	if c.ingests > 0 || c.store.NumTraces() > 0 {
		return errors.New("poet: EnableSharding must be called before any trace is registered")
	}
	c.sharded = true
	c.shardID = shardID
	c.numShards = numShards
	c.heldRemote = make(map[uint64]time.Time)
	return nil
}

// Sharded reports whether EnableSharding has been called.
func (c *Collector) Sharded() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sharded
}

// ShardStats summarizes a shard's side of the cross-shard exchange.
type ShardStats struct {
	// Enabled reports whether the collector is sharded.
	Enabled bool
	// ShardID and NumShards are the EnableSharding arguments.
	ShardID, NumShards int
	// HomeTraces counts the traces homed on this shard.
	HomeTraces int
	// Exports is the export log length (delivered sends).
	Exports int
	// RemoteSends counts fresh peer-shard send records applied.
	RemoteSends int
	// HeldEvents counts receives currently held because their send has
	// not arrived from a peer shard — the cross-shard exchange's
	// in-flight debt. Nonzero transiently; growing means a peer's
	// export stream is stalled.
	HeldEvents int
	// OldestHeld is the age of the longest-held such receive (zero when
	// none are held).
	OldestHeld time.Duration
}

// ShardStats returns the collector's sharding counters.
func (c *Collector) ShardStats() ShardStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := ShardStats{Enabled: c.sharded, ShardID: c.shardID, NumShards: c.numShards}
	if !c.sharded {
		return st
	}
	st.HomeTraces = c.shardLocals
	st.Exports = c.exports.Len()
	st.RemoteSends = c.remote.Len()
	now := time.Now()
	for m, since := range c.heldRemote {
		ws := c.recvWait[m]
		if len(ws) == 0 {
			// The waiter drained some other way (e.g. the trace ended);
			// drop the stale stamp rather than age it forever.
			delete(c.heldRemote, m)
			continue
		}
		st.HeldEvents += len(ws)
		if age := now.Sub(since); age > st.OldestHeld {
			st.OldestHeld = age
		}
	}
	return st
}

// hasSendLocked reports whether the send pairing msgID has been
// delivered locally or supplied by a peer shard — the receive gate of
// the delivery cascade.
func (c *Collector) hasSendLocked(msgID uint64) bool {
	w := c.sends.get(msgID)
	return w&sendRemote != 0 || uint32(w) != 0
}

// SupplyRemoteSend applies one peer-shard export record: the identity
// and vector timestamp of a send delivered on its home shard, keyed by
// MsgID. Idempotent — duplicates (re-streamed logs, overlapping peer
// sessions, a send that turns out to be local) are absorbed — so peers
// may always re-stream from zero. A fresh record wakes any receives
// that were gated on it, and it is journaled at this position so a
// standby applies it at the same point of its rebuild.
func (c *Collector) SupplyRemoteSend(msgID uint64, id event.ID, vc vclock.Stamp) error {
	if msgID == 0 {
		return errors.New("poet: remote send has no message id")
	}
	c.mu.Lock()
	if !c.sharded {
		c.mu.Unlock()
		return errors.New("poet: SupplyRemoteSend on an unsharded collector")
	}
	if c.sends.get(msgID) != 0 {
		// Supplied already, or the send is (or will be) delivered locally:
		// the local stamp wins, and this record is our own export echoed
		// around the tier.
		c.mu.Unlock()
		return nil
	}
	// The one materialising copy, carved from the collector's slab: the
	// stored stamp pins none of the decoder's.
	vc = vc.Carve(&c.slab)
	c.sends.set(msgID, sendRemote|uint64(c.remote.Len()))
	c.remote.Push(shardExport{MsgID: msgID, ID: id, VC: vc})
	c.recordLocked(nil)
	delete(c.heldRemote, msgID)
	if waiters := c.recvWait[msgID]; len(waiters) > 0 {
		delete(c.recvWait, msgID)
		for _, t := range waiters {
			c.drain(t, nil)
		}
		c.waitFree = append(c.waitFree, waiters[:0])
	}
	c.paceLocked()
	c.mu.Unlock()
	return nil
}

// ---------------------------------------------------------------------
// Server side: shard peer sessions.

// handleShard streams the collector's export log to one peer shard: the
// suffix past the peer's offset first, then live records as sends are
// delivered, each span once stable, behind a head frame with the export
// count, and idle heartbeats carrying it too. Timestamps are delta-encoded
// against each trace's previous export, so a send that joined nothing
// since costs no entries; the delta state is touched only by the cursor's
// goroutine, so encoding order equals stream order — its invariant.
func (s *Server) handleShard(conn *link, fr *frameReader, fw *frameWriter, h hello) error {
	c := s.collector
	if !c.Sharded() {
		return refuseHello(fw, roleShard, "sharding not enabled on this collector", false)
	}
	if head := c.exportCount(); h.from > head {
		return refuseHello(fw, roleShard, fmt.Sprintf("cannot resume shard exchange from offset %d (exported %d): this shard did not produce that stream", h.from, head), false)
	}
	if err := acceptHello(fw, nil); err != nil {
		return err
	}
	s.shardSessions.add(1)
	s.logf("poet server: shard peer %s attached at export offset %d", conn.RemoteAddr(), h.from)

	o := &outbound{fw: fw, peer: "shard peer"}
	var recs []shardExport
	head := 0
	cur := c.tail(&cursor{stable: true, head: c.exports.Len,
		cut: func(from, _ int) int {
			recs, head = c.exports.Span(from), c.exports.Len()
			return from + len(recs)
		},
		hand: func() error {
			entries := 0
			err := o.send(func(fw *frameWriter) {
				fw.head(head)
				for i := range recs {
					entries += fw.export(&recs[i], true)
				}
			})
			s.shardVCEntries.add(int64(entries))
			s.shardRecords.add(int64(len(recs)))
			return err
		},
	}, h.from)
	// A shard peer never writes after its hello.
	return s.stream(o, cur, s.listen(conn, fr, func(*frame) {}), s.drainCh, c.exportCount, frameDrain, frameEnd)
}

// exportCount is the export log's length: the head a peer's offset
// counts in.
func (c *Collector) exportCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.exports.Len()
}

// ---------------------------------------------------------------------
// Follower side: the ShardFollower client.

// ShardFollowerStats are a follower's cumulative exchange counters.
type ShardFollowerStats struct {
	// Peer is the followed endpoint pool, as configured.
	Peer string
	// Received counts export records received, including idempotent
	// duplicates from from-zero re-streams.
	Received int
	// Head is the peer's last reported export-log length.
	Head int
	// Lag is Head minus the records received on the current session,
	// clamped at zero (sessions always re-stream from zero).
	Lag int
	// Reconnects counts successful session re-establishments.
	Reconnects int
	// Connected reports whether a session is currently established.
	Connected bool
	// SinceContact is the age of the last sign of life from the peer —
	// any decoded record, heartbeat, or successful handshake. At
	// creation it measures from follower start, so a tier that is still
	// coming up reads as recent contact, not a stall.
	SinceContact time.Duration
	// BreakerState is the circuit breaker's current state
	// (BreakerClosed / BreakerHalfOpen / BreakerOpen).
	BreakerState int
	// BudgetExhaustions counts reconnect budgets exhausted since the
	// last established session (resets to zero when one connects).
	BudgetExhaustions int
}

// ShardFollower tails one peer shard's export log into the local
// collector via SupplyRemoteSend. The endpoint pool covers the peer's
// failover pair ("primary,standby"): a drain notice or dead connection
// rotates, a standby's retriable rejection keeps the pool probing until
// promotion, and every (re)connection re-streams the export log from
// zero — always correct, because SupplyRemoteSend absorbs duplicates.
// The initial connection is asynchronous: at tier start-up the peers
// come up in arbitrary order, so the first dial rides the same
// reconnect budget as any outage.
type ShardFollower struct {
	wireClient // its mu guards the fields below too
	peer       string
	c          *Collector

	received    int
	got         int // records received on the current session
	head        int
	connected   bool
	lastContact time.Time
}

// FollowShardPeer starts tailing the peer shard behind addrs (a
// comma-separated failover pool) into c. It returns immediately; watch
// Done and classify Err when the follower finishes: nil means Stop,
// anything else means the peer stayed unreachable past the reconnect
// budget or the exchange is misconfigured.
func FollowShardPeer(addrs string, c *Collector, opts ...SessionOption) (*ShardFollower, error) {
	f := &ShardFollower{peer: addrs, c: c, lastContact: time.Now()}
	if err := f.init("shard", addrs, defaultClientCfg(), opts, f); err != nil {
		return nil, err
	}
	if !c.Sharded() {
		return nil, errors.New("poet shard: FollowShardPeer needs a sharded collector (EnableSharding first)")
	}
	go f.run(nil, f.serve)
	return f, nil
}

// greet asks for the export log from zero.
func (f *ShardFollower) greet() hello { return hello{role: roleShard} }

// attach restarts the per-session counters; the handshake counts as
// peer contact. A shard peer never writes after its hello, so the
// session's writer and its buffer go.
func (f *ShardFollower) attach(s *session) {
	s.fw = nil
	f.mu.Lock()
	f.got = 0
	f.connected = true
	f.lastContact = time.Now()
	f.mu.Unlock()
}

// serve applies one session's export stream until it ends.
func (f *ShardFollower) serve(s *session) error {
	defer func() {
		f.mu.Lock()
		f.connected = false
		f.mu.Unlock()
	}()
	var fm frame
	for {
		if err := s.fr.next(&fm); err != nil {
			if errors.Is(err, errDesync) {
				// The delta stream desynchronized in a way a fresh
				// handshake would only repeat.
				return terminal(fmt.Errorf("poet shard: %w", err))
			}
			return err
		}
		if fm.kind == frameExport {
			if err := f.c.SupplyRemoteSend(fm.exp.MsgID, fm.exp.ID, fm.exp.VC); err != nil {
				// The local collector refused a record the peer exported:
				// a configuration divergence.
				return terminal(fmt.Errorf("poet shard: applying export %d from %s: %w", fm.exp.MsgID, s.ep, err))
			}
		}
		f.mu.Lock()
		f.lastContact = time.Now()
		switch fm.kind {
		case frameHead:
			f.head = max(f.head, fm.head)
		case frameExport:
			f.received++
			f.got++
		}
		f.mu.Unlock()
		// The peer is going away; rotate toward its standby. When no
		// alternative looks healthy on a mere drain notice, hold the
		// session — the peer keeps exporting until its End frame.
		switch {
		case fm.kind == frameEnd:
			f.eps.Demote(s.ep)
			return fmt.Errorf("peer %s ended its stream", s.ep)
		case fm.kind == frameDrain && f.drained(s.ep):
			return fmt.Errorf("peer %s draining", s.ep)
		}
	}
}

// Stop detaches from the peer. The caller should wait on Done for the
// session goroutine.
func (f *ShardFollower) Stop() { f.stop(true) }

// Done is closed when following has stopped, for any reason; Err then
// says why.
func (f *ShardFollower) Done() <-chan struct{} { return f.done }

// Err returns why following ended: nil (Stop was called), an
// ErrStreamInterrupted wrap (peer unreachable past the reconnect budget,
// with no breaker armed), a terminal ErrSessionRejected wrap
// (misconfigured exchange), or a record the local collector refused.
func (f *ShardFollower) Err() error { return f.failure() }

// Stats returns the follower's exchange counters.
func (f *ShardFollower) Stats() ShardFollowerStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	lag := f.head - f.got
	if lag < 0 {
		lag = 0
	}
	return ShardFollowerStats{
		Peer:              f.peer,
		Received:          f.received,
		Head:              f.head,
		Lag:               lag,
		Reconnects:        f.reconnects,
		Connected:         f.connected,
		SinceContact:      time.Since(f.lastContact),
		BreakerState:      f.breaker,
		BudgetExhaustions: f.exhaustions,
	}
}

// Stalled reports whether the peer has shown no sign of life — no
// record, heartbeat, or successful handshake — for at least threshold.
// A non-positive threshold disables the check, and a stopped follower
// is never stalled (it is simply gone). This is the stall watchdog's
// predicate: a peer whose export stream is silent past the threshold is
// holding back every receive gated on its sends, so readiness probes
// should surface it by name.
func (f *ShardFollower) Stalled(threshold time.Duration) bool {
	if threshold <= 0 {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.stopped {
		return false
	}
	return time.Since(f.lastContact) >= threshold
}
