package poet

import (
	"errors"
	"fmt"
	"time"

	"ocep/internal/backoff"
	"ocep/internal/event"
	"ocep/internal/pool"
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

// remoteSend is a peer shard's exported send, keyed by MsgID in
// Collector.remoteSends.
type remoteSend struct {
	id event.ID
	vc vclock.Stamp
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
	c.remoteSends = make(map[uint64]remoteSend)
	c.heldRemote = make(map[uint64]time.Time)
	c.shardX = &tailLog[shardExport]{}
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
	st.Exports = c.shardX.Len()
	st.RemoteSends = len(c.remoteSends)
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
	if _, ok := c.sends[msgID]; ok {
		return true
	}
	_, ok := c.remoteSends[msgID]
	return ok
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
	if c.sendersSeen[msgID] {
		// The send is (or will be) delivered locally: the local stamp
		// wins, and this record is our own export echoed around the tier.
		c.mu.Unlock()
		return nil
	}
	if _, ok := c.remoteSends[msgID]; ok {
		c.mu.Unlock()
		return nil
	}
	// The one materialising copy: the stored stamp pins none of the
	// decoder's slab.
	vc = vclock.NewStamp(vc.Dense(), vc.Trace(), nil)
	c.remoteSends[msgID] = remoteSend{id: id, vc: vc}
	c.recordLocked(nil, &shardExport{MsgID: msgID, ID: id, VC: vc})
	delete(c.heldRemote, msgID)
	if waiters := c.recvWait[msgID]; len(waiters) > 0 {
		delete(c.recvWait, msgID)
		before := c.delivered
		for _, t := range waiters {
			c.drain(t, nil)
		}
		c.waitFree = append(c.waitFree, waiters[:0])
		c.paceLocked(before)
	}
	c.mu.Unlock()
	return nil
}

// exportsFrom returns the export records from idx to the end of its
// chunk, the index just past them, the export-log length, and — when
// there is nothing to read — the growth signal.
func (c *Collector) exportsFrom(idx int) (recs []shardExport, next, head int, grew <-chan struct{}) {
	c.mu.Lock()
	defer c.mu.Unlock()
	recs, next, grew = c.shardX.from(idx)
	return recs, next, c.shardX.Len(), grew
}

// ---------------------------------------------------------------------
// Server side: shard peer sessions.

// handleShard streams the collector's export log to one peer shard: the
// suffix past the peer's offset first, then live records as sends are
// delivered, with idle heartbeats carrying the export head. Timestamps
// are delta-encoded, so an idle or slowly-changing frontier costs a
// handful of entries per record. The peer never writes after its hello;
// a background read doubles as the close detector.
func (s *Server) handleShard(conn *link, fw *frameWriter, h hello) error {
	c := s.collector
	if !c.Sharded() {
		return refuseHello(fw, roleShard, "sharding not enabled on this collector", false)
	}
	_, _, head, _ := c.exportsFrom(0)
	if h.from > head {
		return refuseHello(fw, roleShard, fmt.Sprintf("cannot resume shard exchange from offset %d (exported %d): this shard did not produce that stream", h.from, head), false)
	}
	if err := acceptHello(fw, nil); err != nil {
		return err
	}
	s.shardSessions.add(1)
	s.logf("poet server: shard peer %s attached at export offset %d", conn.RemoteAddr(), h.from)

	// Shard peers never send after the hello; a background read doubles
	// as a close detector.
	done := make(chan struct{})
	go func() {
		_, _ = conn.br.ReadByte()
		close(done)
	}()

	// The delta baseline is touched only inside this loop, so encoding
	// order equals stream order — its invariant.
	idx := h.from
	return s.streamLog(conn, fw, "shard peer", done, s.drainCh, func() (int, int, <-chan struct{}) {
		recs, next, head, ch := c.exportsFrom(idx)
		if len(recs) > 0 {
			fw.head(head)
		}
		entries := 0
		for i := range recs {
			entries += fw.export(&recs[i], true)
		}
		s.shardVCEntries.add(int64(entries))
		s.shardRecords.add(int64(len(recs)))
		idx = next
		return len(recs), head, ch
	})
}

// ---------------------------------------------------------------------
// Follower side: the ShardFollower client.

// ShardOption configures FollowShardPeer.
type ShardOption func(*shardCfg)

type shardCfg struct {
	clientCfg
	breakerAfter int
	breakerProbe time.Duration
}

func defaultShardCfg() shardCfg { return shardCfg{clientCfg: defaultClientCfg()} }

// WithShardReconnect bounds the cumulative backoff spent per outage
// redialing the peer's endpoint pool before the follower finishes with
// an ErrStreamInterrupted wrap.
func WithShardReconnect(budget time.Duration) ShardOption {
	return func(c *shardCfg) { c.reconnectBudget = budget }
}

// WithShardBackoff overrides the reconnect backoff schedule.
func WithShardBackoff(base, max time.Duration) ShardOption {
	return func(c *shardCfg) { c.backoffBase, c.backoffMax = base, max }
}

// WithShardPeerTimeout overrides how long the follower waits for a
// record or heartbeat before declaring the connection dead.
func WithShardPeerTimeout(d time.Duration) ShardOption {
	return func(c *shardCfg) {
		if d > 0 {
			c.peerTimeout = d
		}
	}
}

// WithShardBreaker arms the follower's circuit breaker: after n
// consecutive exhausted reconnect budgets the follower stops burning
// dial loops and opens the breaker, probing the peer's endpoints once
// every probe interval (half-open) until one accepts again, at which
// point the breaker closes and normal following resumes. Without a
// breaker (the default) an exhausted budget finishes the follower with
// an ErrStreamInterrupted wrap, as before.
func WithShardBreaker(n int, probe time.Duration) ShardOption {
	return func(c *shardCfg) {
		if n > 0 && probe > 0 {
			c.breakerAfter = n
			c.breakerProbe = probe
		}
	}
}

// WithShardLog routes shard-exchange diagnostics to logf.
func WithShardLog(logf func(string, ...any)) ShardOption {
	return func(c *shardCfg) {
		if logf != nil {
			c.logf = logf
		}
	}
}

// Breaker states, exported both through ShardFollowerStats and as the
// poet_shard_peer_breaker_state gauge values.
const (
	// BreakerClosed: the follower dials and follows normally.
	BreakerClosed = 0
	// BreakerHalfOpen: a probe is in flight after the open interval.
	BreakerHalfOpen = 1
	// BreakerOpen: the peer exhausted its reconnect budgets; the
	// follower only probes periodically.
	BreakerOpen = 2
)

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
	peer  string
	eps   *pool.Pool
	addrs []string
	c     *Collector
	cfg   shardCfg

	follower    // guards the fields below too
	received    int
	got         int // records received on the current session
	head        int
	reconnects  int
	sessions    int
	connected   bool
	lastContact time.Time
	breaker     int // BreakerClosed / BreakerHalfOpen / BreakerOpen
	exhaustions int // reconnect budgets exhausted since last session
}

// FollowShardPeer starts tailing the peer shard behind addrs (a
// comma-separated failover pool) into c. It returns immediately; watch
// Done and classify Err when the follower finishes: nil means Stop,
// anything else means the peer stayed unreachable past the reconnect
// budget or the exchange is misconfigured.
func FollowShardPeer(addrs string, c *Collector, opts ...ShardOption) (*ShardFollower, error) {
	cfg := defaultShardCfg()
	for _, o := range opts {
		o(&cfg)
	}
	list := pool.ParseAddrs(addrs)
	if len(list) == 0 {
		return nil, fmt.Errorf("poet shard: %w", pool.ErrNoEndpoints)
	}
	if !c.Sharded() {
		return nil, errors.New("poet shard: FollowShardPeer needs a sharded collector (EnableSharding first)")
	}
	f := &ShardFollower{
		peer:        addrs,
		eps:         pool.New(list, cfg.backoffBase, cfg.backoffMax),
		addrs:       list,
		c:           c,
		cfg:         cfg,
		lastContact: time.Now(),
	}
	f.stopCh, f.done = make(chan struct{}), make(chan struct{})
	go f.run()
	return f, nil
}

func (f *ShardFollower) run() {
	defer close(f.done)
	for {
		conn, err := f.connect()
		if err != nil {
			if f.cfg.breakerAfter > 0 && errors.Is(err, ErrStreamInterrupted) {
				f.mu.Lock()
				f.exhaustions++
				tripped := f.exhaustions >= f.cfg.breakerAfter
				f.mu.Unlock()
				if !tripped {
					continue // burn another reconnect budget before tripping
				}
				conn, err = f.breakerLoop(err)
				if err != nil {
					f.finish(err)
					return
				}
			} else {
				f.finish(err)
				return
			}
		}
		if conn == nil {
			f.finish(nil) // stopped mid-backoff, mid-probe, or mid-dial
			return
		}
		cause := f.session(conn)
		_ = conn.Close()
		if f.isStopped() {
			f.finish(nil)
			return
		}
		if !isTransport(cause) {
			// The local collector refused a record the peer exported
			// (configuration divergence), or the delta stream
			// desynchronized in a way a fresh handshake would only repeat.
			f.finish(cause)
			return
		}
		// Transport or drain: redial through the pool.
	}
}

// breakerLoop holds the breaker open after cause exhausted the
// configured number of reconnect budgets: instead of continuous dial
// loops, the follower sleeps the probe interval, then (half-open) tries
// one handshake against each pool endpoint. A success closes the
// breaker and returns the fresh session; a terminal rejection surfaces;
// anything else reopens. Returns a nil conn when stopped.
func (f *ShardFollower) breakerLoop(cause error) (*link, error) {
	f.setBreaker(BreakerOpen)
	f.cfg.logf("poet shard: breaker OPEN for peer %s after %d exhausted reconnect budgets (%v); probing every %v",
		f.peer, f.cfg.breakerAfter, cause, f.cfg.breakerProbe)
	for {
		if !backoff.Sleep(f.cfg.breakerProbe, f.stopCh) {
			return nil, nil
		}
		f.setBreaker(BreakerHalfOpen)
		for _, addr := range f.addrs {
			if f.isStopped() {
				return nil, nil
			}
			conn, err := f.handshake(addr)
			if err == nil {
				f.eps.Success(addr)
				f.setBreaker(BreakerClosed)
				if conn != nil {
					f.cfg.logf("poet shard: breaker closed; following %s again (export log from zero)", addr)
				}
				return conn, nil
			}
			if errors.Is(err, ErrSessionRejected) {
				return nil, err
			}
		}
		f.setBreaker(BreakerOpen)
	}
}

func (f *ShardFollower) setBreaker(state int) {
	f.mu.Lock()
	f.breaker = state
	f.mu.Unlock()
}

// connect completes one handshake against the peer's pool within the
// per-outage reconnect budget. Returns a nil conn when stopped.
func (f *ShardFollower) connect() (conn *link, err error) {
	err = redial(f.eps, f.cfg.reconnectBudget, f.stopCh, func(addr string) error {
		if conn, err = f.handshake(addr); err == nil && conn != nil {
			f.cfg.logf("poet shard: following %s (export log from zero)", addr)
		}
		return err
	})
	switch {
	case err == nil || errors.Is(err, ErrClientClosed):
		return conn, nil
	case errors.Is(err, ErrSessionRejected):
		return nil, err
	}
	return nil, fmt.Errorf("poet shard: %w; peer %s: %v", ErrStreamInterrupted, f.peer, err)
}

// handshake dials one endpoint and publishes the fresh session's
// bookkeeping: the handshake counts as peer contact, and per-session
// counters restart. Returns a nil conn when Stop raced the dial.
func (f *ShardFollower) handshake(addr string) (*link, error) {
	s, err := dialSession(addr, hello{role: roleShard},
		&f.cfg.clientCfg, max(f.cfg.peerTimeout, minHandshakeTimeout))
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.publishLocked(s.link) {
		return nil, nil
	}
	f.got = 0
	f.sessions++
	if f.sessions > 1 {
		f.reconnects++
	}
	f.connected = true
	f.exhaustions = 0
	f.lastContact = time.Now()
	return s.link, nil
}

// session applies one connection's export stream until it ends.
func (f *ShardFollower) session(conn *link) error {
	defer func() {
		f.mu.Lock()
		f.connected = false
		f.mu.Unlock()
	}()
	fr := &frameReader{br: conn.br}
	var fm frame
	addr := conn.RemoteAddr().String()
	for {
		if err := fr.next(&fm); err != nil {
			if isTimeout(err) {
				f.cfg.logf("poet shard: no record or heartbeat from %s in %v; reconnecting", addr, f.cfg.peerTimeout)
			}
			if errors.Is(err, errNoBaseline) {
				return &divergenceError{fmt.Errorf("poet shard: %w", err)}
			}
			return err
		}
		if fm.kind == frameExport {
			if err := f.c.SupplyRemoteSend(fm.exp.MsgID, fm.exp.ID, fm.exp.VC); err != nil {
				return &divergenceError{fmt.Errorf("poet shard: applying export %d from %s: %w", fm.exp.MsgID, addr, err)}
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
		if fm.kind == frameEnd || fm.kind == frameDrain && f.eps.HealthyAlternative(addr) {
			f.eps.Demote(addr)
			return fmt.Errorf("peer %s %s", addr, map[bool]string{true: "ended its stream", false: "draining"}[fm.kind == frameEnd])
		}
	}
}

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
