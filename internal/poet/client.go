package poet

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"ocep/internal/backoff"
	"ocep/internal/event"
	"ocep/internal/fifo"
	"ocep/internal/pool"
)

// ErrStreamInterrupted reports that a wire connection died without the
// protocol's explicit end-of-stream frame: the peer crashed, the network
// reset, or a heartbeat timeout fired. It is distinct from io.EOF so a
// monitor can never mistake a partial stream for a completed run. The
// reconnect logic consumes it internally; it surfaces only when
// reconnection is disabled or its backoff budget is exhausted.
var ErrStreamInterrupted = errors.New("poet: event stream interrupted")

// ErrClientClosed reports an operation on a locally closed client.
var ErrClientClosed = errors.New("poet: client closed")

// ErrSessionRejected reports a hello the server refused (for a monitor,
// typically a ResumeFrom offset beyond the server's stream — the state
// the client remembers no longer exists, e.g. after a recovery from a
// weaker-than-always fsync policy). Redialing cannot fix it, so the
// reconnect loops treat it as terminal instead of burning their backoff
// budget against a permanent refusal.
var ErrSessionRejected = errors.New("poet: session rejected by server")

// Shared wire-client defaults.
const (
	defaultDialTimeout     = 3 * time.Second
	defaultWriteTimeout    = 10 * time.Second
	defaultReconnectBudget = 30 * time.Second
	defaultBackoffBase     = 50 * time.Millisecond
	defaultBackoffMax      = 2 * time.Second
	defaultHeartbeat       = time.Second
	defaultPeerTimeout     = 10 * time.Second
	defaultReporterBuffer  = 8192
	// minHandshakeTimeout floors the hello/ack read deadline: liveness
	// timeouts may be tuned far below what a degraded link needs to
	// complete a handshake.
	minHandshakeTimeout = 2 * time.Second
)

// isTimeout reports whether err is a read/write deadline expiry.
func isTimeout(err error) bool {
	return errors.Is(err, os.ErrDeadlineExceeded)
}

// ---------------------------------------------------------------------
// Reporter

// ReporterOption configures DialReporter.
type ReporterOption func(*repCfg)

type repCfg struct {
	clientCfg
	buffer    int
	heartbeat time.Duration
}

func defaultRepCfg() repCfg {
	return repCfg{clientCfg: defaultClientCfg(), buffer: defaultReporterBuffer, heartbeat: defaultHeartbeat}
}

// WithReporterReconnect bounds the cumulative backoff spent redialing
// per outage. 0 disables reconnection: the first transport failure
// permanently fails the reporter.
func WithReporterReconnect(budget time.Duration) ReporterOption {
	return func(c *repCfg) { c.reconnectBudget = budget }
}

// WithReporterBuffer bounds the unacked-event buffer. Report blocks when
// it is full until the server acks (or the reporter fails).
func WithReporterBuffer(n int) ReporterOption {
	return func(c *repCfg) {
		if n > 0 {
			c.buffer = n
		}
	}
}

// WithReporterHeartbeat sets the idle heartbeat interval (keep-alives
// sent when no event is in flight) and scales the dead-peer timeout to
// 5x the interval.
func WithReporterHeartbeat(d time.Duration) ReporterOption {
	return func(c *repCfg) {
		if d > 0 {
			c.heartbeat = d
			c.peerTimeout = 5 * d
		}
	}
}

// WithReporterPeerTimeout overrides how long the reporter waits for a
// server ack or heartbeat before declaring the connection dead.
func WithReporterPeerTimeout(d time.Duration) ReporterOption {
	return func(c *repCfg) {
		if d > 0 {
			c.peerTimeout = d
		}
	}
}

// WithReporterBackoff overrides the reconnect backoff schedule.
func WithReporterBackoff(base, max time.Duration) ReporterOption {
	return func(c *repCfg) { c.backoffBase, c.backoffMax = base, max }
}

// WithReporterLog routes reporter diagnostics (reconnects, retransmits)
// to logf.
func WithReporterLog(logf func(string, ...any)) ReporterOption {
	return func(c *repCfg) {
		if logf != nil {
			c.logf = logf
		}
	}
}

// ReporterStats are a reporter's cumulative wire counters.
type ReporterStats struct {
	// Reported counts events accepted into the unacked buffer.
	Reported int
	// Acked counts events acknowledged (and pruned) by the server.
	Acked int
	// Retransmits counts events re-sent after a reconnect.
	Retransmits int
	// Reconnects counts successful re-establishments after a failure.
	Reconnects int
	// Failovers counts moves to a different endpoint in the pool
	// (connection failures on the current endpoint and drain notices).
	Failovers int
}

// Reporter is a target-side connection to a POET server: instrumented
// processes create one per trace (or share one) and stream raw events.
//
// The reporter is fault-tolerant: Report appends to a bounded
// unacked-event window and returns, a background sender streams the
// window to the server, and the acks the server sends after each burst
// it ingests release the window from the front. When
// the connection dies (error, reset, or no ack/heartbeat within the
// peer timeout) the sender redials with exponential backoff and jitter,
// prunes everything the server already ingested (learned from the
// handshake ack), and retransmits the rest — the server treats stale
// retransmissions as idempotent no-ops, so no event is ever lost or
// double-ingested across reconnects.
//
// Safe for concurrent use: Report only appends under an internal lock.
type Reporter struct {
	// addr is the full (possibly comma-separated) endpoint spec, for
	// messages that speak about the service as a whole; eps tracks the
	// individual endpoints and failover rotation.
	addr string
	eps  *pool.Pool
	cfg  repCfg

	mu   sync.Mutex
	cond *sync.Cond
	// window holds reported events not yet pruned as acked, in report
	// order; its first sent went out on the current connection. Report
	// pushes, and only the sender prunes.
	window fifo.Queue[RawEvent]
	sent   int
	// acks is the latest per-trace contiguous ack from the server; moved
	// says one advanced since the sender last pruned.
	acks   map[string]int
	moved  bool
	closed bool
	// failed is the permanent failure, if any; Report and Flush return it.
	failed error
	stats  ReporterStats

	// wake signals the sender (new events, new acks, close).
	wake chan struct{}
	// closeCh closes on Close, aborting any in-progress backoff sleep.
	closeCh chan struct{}
	// done closes when the sender goroutine exits.
	done chan struct{}
}

// repConn is one reporter connection: frames go out through fw, acks
// frames come back to the reader goroutine, which closes broken when the
// connection dies.
type repConn struct {
	net.Conn
	fw     *frameWriter
	broken chan struct{}
}

// DialReporter connects to a POET server as a target. addr may name a
// failover pool of servers as a comma-separated endpoint list
// ("host1:6711,host2:6711"); the reporter connects to the first healthy
// one and rotates to the next on connection failures and drain notices.
// The initial dial and handshake are synchronous (an unreachable pool
// fails fast after one round); subsequent failures are handled by the
// background reconnect logic.
func DialReporter(addr string, opts ...ReporterOption) (*Reporter, error) {
	cfg := defaultRepCfg()
	for _, o := range opts {
		o(&cfg)
	}
	addrs := pool.ParseAddrs(addr)
	if len(addrs) == 0 {
		return nil, fmt.Errorf("poet reporter: %w", pool.ErrNoEndpoints)
	}
	r := &Reporter{
		addr:    addr,
		eps:     pool.New(addrs, cfg.backoffBase, cfg.backoffMax),
		cfg:     cfg,
		acks:    make(map[string]int),
		wake:    make(chan struct{}, 1),
		closeCh: make(chan struct{}),
		done:    make(chan struct{}),
	}
	r.cond = sync.NewCond(&r.mu)
	// A zero budget is one synchronous round over the pool: a fully
	// unreachable service fails fast, a partially degraded one lands on a
	// healthy endpoint.
	var conn *repConn
	err := redial(r.eps, 0, nil, func(ep string) (err error) {
		conn, _, err = r.handshake(ep)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("poet reporter: %w", err)
	}
	go r.sender(conn)
	return r, nil
}

// handshake dials one endpoint, sends the hello (naming the traces in
// the window), reads the answering acks, and spawns the ack reader. It
// returns how many events the reconnect retransmits. Called from
// DialReporter and, on the sender goroutine, from reconnect.
func (r *Reporter) handshake(addr string) (*repConn, int, error) {
	r.mu.Lock()
	var names []string
	seen := make(map[string]bool)
	covered := r.window.Len()
	for i := 0; i < covered; i++ {
		if tr := r.window.At(i).Trace; !seen[tr] {
			seen[tr] = true
			names = append(names, tr)
		}
	}
	r.mu.Unlock()
	s, err := dialSession(addr, hello{role: roleTarget, traces: names},
		&r.cfg.clientCfg, max(r.cfg.peerTimeout, minHandshakeTimeout))
	if err != nil {
		return nil, 0, err
	}
	r.mu.Lock()
	r.applyAcksLocked(s.acks)
	// Everything on the new connection is unsent; the sender prunes
	// acked entries and retransmits the remainder. Only entries the hello
	// covered count, so a reconnect that retransmits has named traces.
	r.sent = 0
	retrans := 0
	for i := 0; i < covered; i++ {
		if ev := r.window.At(i); ev.Seq > r.acks[ev.Trace] {
			retrans++
		}
	}
	r.mu.Unlock()
	c := &repConn{Conn: s.link, fw: s.fw, broken: make(chan struct{})}
	go r.reader(c, addr, s.fr)
	return c, retrans, nil
}

// applyAcksLocked folds a server ack into r.acks, noting whether one
// advanced so the sender knows a prune pass will find work.
func (r *Reporter) applyAcksLocked(acks []traceAck) {
	for _, ta := range acks {
		if ta.Seq > r.acks[ta.Trace] {
			r.acks[ta.Trace] = ta.Seq
			r.moved = true
		}
	}
}

// reader consumes server acks on one connection, pruning is left to the
// sender (the only goroutine that mutates the buffer indices). Exits
// when the connection dies; the peer timeout makes a silent server
// indistinguishable from a dead one, on purpose. An acks frame doubles
// as the server's heartbeat.
func (r *Reporter) reader(conn *repConn, addr string, fr *frameReader) {
	defer close(conn.broken)
	var f frame
	for {
		err := fr.next(&f)
		switch {
		case err != nil:
			if isTimeout(err) {
				r.cfg.logf("poet reporter: no ack or heartbeat from %s in %v; reconnecting", addr, r.cfg.peerTimeout)
			}
		case f.kind == frameError:
			// Hard rejection: the server refused an event as malformed and
			// is closing. Retransmitting it forever would be a livelock;
			// surface the error instead.
			r.fail(fmt.Errorf("poet reporter: server rejected event: %s", f.reason))
			_ = conn.Close()
			return
		case f.kind == frameAcks:
			r.mu.Lock()
			r.applyAcksLocked(f.acks)
			r.mu.Unlock()
			r.signal()
			continue
		case f.kind == frameDrain && !r.eps.HealthyAlternative(addr):
			// With no alternative currently believed healthy (single
			// endpoint, or every peer mid-failure-streak) the notice is
			// ignored — the draining server keeps serving this session
			// until its deadline, which beats spinning on dead endpoints.
			continue
		case f.kind == frameDrain:
			// The server is draining: move to a healthy peer now rather
			// than riding the session to its forced end. The acks frame
			// ahead of the notice was applied first, so the reconnect
			// retransmits only what the draining server never ingested.
			r.cfg.logf("poet reporter: %s is draining; failing over", addr)
			r.eps.Demote(addr)
		default:
			r.cfg.logf("poet reporter: unexpected kind-%d frame from %s; reconnecting", f.kind, addr)
		}
		_ = conn.Close()
		r.signal()
		return
	}
}

func (r *Reporter) signal() {
	select {
	case r.wake <- struct{}{}:
	default:
	}
}

func (r *Reporter) fail(err error) {
	r.mu.Lock()
	if r.failed == nil {
		r.failed = err
	}
	r.cond.Broadcast()
	r.mu.Unlock()
	r.signal()
}

// pruneLocked drops acked entries from the window, if an ack advanced
// since the last pass. Acks are contiguous per trace and the window goes
// out in order, so the acked entries are a prefix, released from the
// front — unless the front's trace lacks an earlier Seq, reported after
// it or not yet: acked entries may then sit behind it, so the pass
// rotates the whole window through, dropping them, and no acked entry
// counts toward the bound or goes out again. Sender-only.
func (r *Reporter) pruneLocked() {
	if !r.moved {
		return
	}
	r.moved = false
	before := r.window.Len()
	n := 0
	for ; n < before; n++ {
		if ev := r.window.At(n); ev.Seq > r.acks[ev.Trace] {
			break
		}
	}
	r.window.Pop(n)
	r.sent = max(r.sent-n, 0)
	if m := r.window.Len(); m > 0 {
		if front := r.window.At(0); front.Seq > r.acks[front.Trace]+1 {
			for i, sent := 0, r.sent; i < m; i++ {
				ev := *r.window.At(0)
				if r.window.Pop(1); ev.Seq > r.acks[ev.Trace] {
					r.window.Push(ev)
				} else if i < sent {
					r.sent--
				}
			}
		}
	}
	r.stats.Acked += before - r.window.Len()
	r.cond.Broadcast()
}

// claimLocked hands the sender the unsent entries to the end of their
// chunk, and how many were unsent. Without a connection it is void: the
// handshake resets sent.
func (r *Reporter) claimLocked() (claim []RawEvent, unsent int) {
	if unsent = r.window.Len() - r.sent; unsent > 0 {
		claim = r.window.Span(r.sent)
		r.sent += len(claim)
	}
	return claim, unsent
}

// sender owns the connection: it streams unsent events, heartbeats when
// idle, and reconnects (pruning and retransmitting) when the connection
// dies.
func (r *Reporter) sender(conn *repConn) {
	defer close(r.done)
	disconnect := func() {
		if conn != nil {
			_ = conn.Close()
			conn = nil
		}
	}
	defer disconnect()
	hb := time.NewTimer(r.cfg.heartbeat)
	defer hb.Stop()
	for {
		// One lock per pass: prune, then claim one chunk's unsent
		// entries. They stay put while they are encoded — Report only
		// pushes past them, and only this goroutine prunes — and counting
		// them sent before the flush is safe because a failed flush ends
		// in a handshake, which resets sent. The claim dies with the pass,
		// so it never pins a chunk the next prune releases.
		r.mu.Lock()
		r.pruneLocked()
		failed, closed := r.failed, r.closed
		claim, unsent := r.claimLocked()
		r.mu.Unlock()
		if failed != nil {
			return
		}
		if closed && (unsent == 0 || conn == nil) {
			// Drained (or unsendable): exit. Close does not redial.
			return
		}
		if conn == nil {
			c, err := r.reconnect()
			if err != nil {
				if !errors.Is(err, ErrClientClosed) {
					r.fail(fmt.Errorf("poet reporter: %w (cause: %v)", ErrStreamInterrupted, err))
				}
				return
			}
			conn = c
			backoff.ResetTimer(hb, r.cfg.heartbeat)
			continue // re-prune with the handshake acks before sending
		}
		if len(claim) > 0 {
			for i := range claim {
				conn.fw.raw(&claim[i])
			}
			if len(claim) < unsent {
				continue // claim the rest before the flush
			}
			if err := conn.fw.flush(); err != nil {
				r.cfg.logf("poet reporter: send to %s failed: %v", r.addr, err)
				disconnect()
				continue
			}
			backoff.ResetTimer(hb, r.cfg.heartbeat)
			continue
		}
		select {
		case <-r.wake:
		case <-conn.broken:
			disconnect()
		case <-hb.C:
			conn.fw.signal(frameHeartbeat)
			if err := conn.fw.flush(); err != nil {
				r.cfg.logf("poet reporter: heartbeat to %s failed: %v", r.addr, err)
				disconnect()
			}
			hb.Reset(r.cfg.heartbeat)
		}
	}
}

// reconnect redials through the endpoint pool until the budget is
// exhausted. Runs on the sender goroutine.
func (r *Reporter) reconnect() (conn *repConn, err error) {
	if r.cfg.reconnectBudget <= 0 {
		return nil, errors.New("reconnection disabled")
	}
	err = redial(r.eps, r.cfg.reconnectBudget, r.closeCh, func(ep string) error {
		if r.Err() != nil {
			return ErrClientClosed
		}
		var retrans int
		if conn, retrans, err = r.handshake(ep); err != nil {
			return err
		}
		r.mu.Lock()
		r.stats.Reconnects++
		r.stats.Retransmits += retrans
		r.mu.Unlock()
		r.cfg.logf("poet reporter: reconnected to %s (retransmitting %d unacked events)", ep, retrans)
		return nil
	})
	return conn, err
}

// Report buffers one raw event for transmission. It blocks only when the
// unacked window is full, and returns an error only when the reporter
// has permanently failed (reconnection disabled or exhausted, or the
// server rejected an event as malformed) or been closed.
func (r *Reporter) Report(raw RawEvent) error {
	r.mu.Lock()
	for r.failed == nil && !r.closed && r.window.Len() >= r.cfg.buffer {
		r.cond.Wait()
	}
	if r.failed != nil {
		err := r.failed
		r.mu.Unlock()
		return err
	}
	if r.closed {
		r.mu.Unlock()
		return fmt.Errorf("poet reporter: %w", ErrClientClosed)
	}
	if n := len(raw.Trace) + len(raw.Type) + len(raw.Text); n > maxFrameLen-64 {
		r.mu.Unlock()
		return fmt.Errorf("poet reporter: event %s/%d carries %d bytes of strings, more than one frame holds", raw.Trace, raw.Seq, n)
	}
	r.window.Push(raw)
	r.stats.Reported++
	r.mu.Unlock()
	r.signal()
	return nil
}

// Flush blocks until every reported event has been acknowledged by the
// server (so the collector has ingested it), or returns the permanent
// failure that prevents it.
func (r *Reporter) Flush() error {
	r.signal()
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.failed == nil && !r.closed && r.window.Len() > 0 {
		r.cond.Wait()
	}
	if r.failed != nil {
		return r.failed
	}
	if r.window.Len() > 0 {
		return fmt.Errorf("poet reporter: closed with %d unacked events", r.window.Len())
	}
	return nil
}

// Stats returns the reporter's cumulative wire counters.
func (r *Reporter) Stats() ReporterStats {
	r.mu.Lock()
	s := r.stats
	r.mu.Unlock()
	s.Failovers = int(r.eps.Failovers())
	return s
}

// Err returns the reporter's permanent failure, if any.
func (r *Reporter) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.failed
}

// Close sends any still-unsent events on the live connection (best
// effort; it does not redial or wait for acks — use Flush first for a
// delivery guarantee), then tears the connection down.
func (r *Reporter) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		<-r.done
		return nil
	}
	r.closed = true
	close(r.closeCh)
	r.cond.Broadcast()
	r.mu.Unlock()
	r.signal()
	<-r.done
	return nil
}

// ---------------------------------------------------------------------
// MonitorClient

// MonitorOption configures DialMonitor.
type MonitorOption func(*clientCfg)

// WithMonitorReconnect bounds the cumulative backoff spent redialing per
// outage. 0 disables reconnection: Next surfaces ErrStreamInterrupted at
// the first transport failure.
func WithMonitorReconnect(budget time.Duration) MonitorOption {
	return func(c *clientCfg) { c.reconnectBudget = budget }
}

// WithMonitorReadTimeout sets how long Next waits for a frame (events or
// the server's idle heartbeats) before declaring the server dead. It
// must exceed the server's heartbeat interval.
func WithMonitorReadTimeout(d time.Duration) MonitorOption {
	return func(c *clientCfg) {
		if d > 0 {
			c.peerTimeout = d
		}
	}
}

// WithMonitorBackoff overrides the reconnect backoff schedule.
func WithMonitorBackoff(base, max time.Duration) MonitorOption {
	return func(c *clientCfg) { c.backoffBase, c.backoffMax = base, max }
}

// WithMonitorLog routes reconnect diagnostics to logf.
func WithMonitorLog(logf func(string, ...any)) MonitorOption {
	return func(c *clientCfg) {
		if logf != nil {
			c.logf = logf
		}
	}
}

// MonitorClientStats are a monitor client's cumulative wire counters.
type MonitorClientStats struct {
	// Received counts events consumed (also the resume offset sent on
	// reconnect).
	Received int
	// Reconnects counts successful session resumptions.
	Reconnects int
	// Failovers counts moves to a different endpoint in the pool
	// (connection failures on the current endpoint and drain notices).
	Failovers int
}

// MonitorClient receives the linearized event stream from a POET server,
// tracking trace announcements so pattern process attributes can be
// matched against trace names.
//
// The client is fault-tolerant: when the connection dies mid-stream it
// reconnects with exponential backoff and resumes from the exact event
// index it had reached (the server replays only the suffix), so the
// observed stream stays gap-free and duplicate-free across failures. A
// clean end of stream (the server's End frame) surfaces as io.EOF; a
// dead connection that cannot be resumed surfaces as
// ErrStreamInterrupted — never as a clean EOF.
//
// Not safe for concurrent use, except Close, which may be called from
// another goroutine to abort a blocked Next.
type MonitorClient struct {
	// addr is the full (possibly comma-separated) endpoint spec; eps
	// tracks the individual endpoints and failover rotation.
	addr  string
	eps   *pool.Pool
	cfg   clientCfg
	names map[event.TraceID]string

	mu      sync.Mutex // guards conn swaps and closed, for cross-goroutine Close
	conn    net.Conn
	curAddr string // endpoint the live connection is to
	closed  bool
	// closeCh closes on Close, aborting any in-progress backoff sleep.
	closeCh chan struct{}

	// fr decodes the connection's frames. Replaced wholesale on every
	// (re)connection, so the string table, the announced traces, and the
	// delta baseline reset together with the server's.
	fr       *frameReader
	received int
	ended    bool
	stats    MonitorClientStats
}

// DialMonitor connects to a POET server as a monitor client. addr may
// name a failover pool of servers as a comma-separated endpoint list
// ("host1:6711,host2:6711"); the client connects to the first healthy
// one and rotates to the next on connection failures and drain notices,
// resuming the stream at its exact offset so the observed sequence
// stays gap-free and duplicate-free across the move.
func DialMonitor(addr string, opts ...MonitorOption) (*MonitorClient, error) {
	cfg := defaultClientCfg()
	for _, o := range opts {
		o(&cfg)
	}
	addrs := pool.ParseAddrs(addr)
	if len(addrs) == 0 {
		return nil, fmt.Errorf("poet monitor: %w", pool.ErrNoEndpoints)
	}
	m := &MonitorClient{
		addr:    addr,
		eps:     pool.New(addrs, cfg.backoffBase, cfg.backoffMax),
		cfg:     cfg,
		names:   make(map[event.TraceID]string),
		closeCh: make(chan struct{}),
	}
	// One synchronous round over the pool, as in DialReporter.
	if err := redial(m.eps, 0, nil, func(ep string) error { return m.connect(ep, 0) }); err != nil {
		return nil, fmt.Errorf("poet monitor: %w", err)
	}
	return m, nil
}

// connect dials one endpoint and performs the handshake, resuming from
// the given linearization offset.
func (m *MonitorClient) connect(addr string, resumeFrom int) error {
	s, err := dialSession(addr, hello{role: roleMonitor, from: resumeFrom}, &m.cfg, m.cfg.peerTimeout)
	if err != nil {
		return err
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		_ = s.Close()
		return ErrClientClosed
	}
	m.conn = s.link
	m.curAddr = addr
	m.mu.Unlock()
	m.fr = s.fr
	return nil
}

// Next returns the next delivered event. It returns io.EOF only on a
// clean end of stream: the server's End frame, or a locally Closed
// client. A connection that dies mid-stream is transparently resumed
// (reconnect with backoff, replay from the current offset); if resuming
// is disabled or fails, Next returns an error wrapping
// ErrStreamInterrupted.
func (m *MonitorClient) Next() (*event.Event, error) {
	if m.ended {
		return nil, io.EOF
	}
	for {
		m.mu.Lock()
		conn, addr, closed := m.conn, m.curAddr, m.closed
		m.mu.Unlock()
		if closed {
			return nil, io.EOF
		}
		var f frame
		if err := m.fr.next(&f); err != nil {
			if m.isClosed() {
				return nil, io.EOF
			}
			if errors.Is(err, errNoBaseline) {
				// A baseline desync is a protocol bug, not a transport
				// fault: resuming would mask it, so surface it.
				return nil, err
			}
			if isTimeout(err) {
				m.cfg.logf("poet monitor: no frame from %s in %v; connection presumed dead", addr, m.cfg.peerTimeout)
			}
			_ = conn.Close()
			if rerr := m.resume(err); rerr != nil {
				return nil, rerr
			}
			continue
		}
		switch f.kind {
		case frameEnd:
			m.ended = true
			return nil, io.EOF
		case frameHeartbeat:
		case frameDrain:
			// The server is draining. A pooled client moves to a healthy
			// peer, resuming at its exact offset so the stream stays
			// gap-free and duplicate-free across the move. With no
			// alternative currently believed healthy (single endpoint, or
			// every peer mid-failure-streak) it rides the session until
			// the server's End frame instead of abandoning a live stream
			// for dead endpoints.
			if m.eps.HealthyAlternative(addr) {
				m.cfg.logf("poet monitor: %s is draining; failing over at offset %d", addr, m.received)
				m.eps.Demote(addr)
				_ = conn.Close()
				if rerr := m.resume(errors.New("server draining")); rerr != nil {
					return nil, rerr
				}
			}
		case frameTrace:
			m.names[f.id] = f.name
		case frameEvent:
			m.received++
			m.stats.Received = m.received
			return f.ev, nil
		default:
			return nil, fmt.Errorf("poet monitor: unexpected kind-%d frame on a monitor stream", f.kind)
		}
	}
}

// resume redials through the endpoint pool and resumes the session at
// the current offset. cause is the transport error that killed the
// connection.
func (m *MonitorClient) resume(cause error) error {
	interrupted := fmt.Errorf("poet monitor: %w after %d events (cause: %v)", ErrStreamInterrupted, m.received, cause)
	if m.cfg.reconnectBudget <= 0 {
		return interrupted
	}
	err := redial(m.eps, m.cfg.reconnectBudget, m.closeCh, func(ep string) error {
		if err := m.connect(ep, m.received); err != nil {
			return err
		}
		m.stats.Reconnects++
		m.cfg.logf("poet monitor: resumed session with %s at offset %d", ep, m.received)
		return nil
	})
	switch {
	case err == nil:
		return nil
	case errors.Is(err, ErrClientClosed):
		return io.EOF
	}
	// The budget ran out, or the offset this client remembers is beyond
	// what the server (or a promoted standby) can replay.
	return fmt.Errorf("%w; %w", interrupted, err)
}

func (m *MonitorClient) isClosed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.closed
}

// TraceName returns the announced name of a trace.
func (m *MonitorClient) TraceName(t event.TraceID) (string, bool) {
	name, ok := m.names[t]
	return name, ok
}

// Traces returns all announced trace IDs in no particular order.
func (m *MonitorClient) Traces() []event.TraceID {
	out := make([]event.TraceID, 0, len(m.names))
	for t := range m.names {
		out = append(out, t)
	}
	return out
}

// Stats returns the client's cumulative wire counters.
func (m *MonitorClient) Stats() MonitorClientStats {
	s := m.stats
	s.Failovers = int(m.eps.Failovers())
	return s
}

// Close closes the connection and stops any in-flight reconnection,
// including one parked in a backoff sleep.
func (m *MonitorClient) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	close(m.closeCh)
	conn := m.conn
	m.mu.Unlock()
	if conn != nil {
		return conn.Close()
	}
	return nil
}
