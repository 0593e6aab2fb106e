package poet

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"ocep/internal/backoff"
	"ocep/internal/pool"
)

// Wire protocol v6 ("OCEP-POET-6"); docs/ARCHITECTURE.md has the frame
// layout table. Every connection speaks the frame codec of frame.go in
// both directions, from its first byte: a hello frame naming the role,
// answered by an acks frame (the target's per-trace acks; empty for the
// other roles) or an error frame (the reason, and whether retrying may
// help). After it, target→server raw events with acks, drain and error
// frames coming back; server→monitor delivered events; server→replica
// records with the replica's head (applied count) and heartbeat frames
// coming back; server→shard exports; and query requests answered by the
// monitor stream's own trace and event frames, or a head frame.
//
// A writer buffers every record its producer already has in hand — the
// delivery batch, the reporter's unsent window, the record-log suffix —
// and flushes when that source is exhausted: one deadline and one
// write(2) per burst, no timer, so a lone event leaves at once.
//
// Reconnecting peers resume: a target hello names the traces it is
// retransmitting (the accepting acks frame returns the server's ack for
// each, so already-ingested events are pruned before replay), and a
// monitor hello carries the number of linearized events already
// received, so the server replays only the suffix. All per-connection
// codec state restarts with the handshake.
//
// Compatibility: v1–v3 opened with a gob hello; the server recognizes
// one by its first frame failing to parse and rejects it with a message
// naming v5, instead of desynchronizing mid-stream. A v4 peer's hello
// parses (v5 changed only how texts are spelled), and is refused with
// an error frame naming both versions.

// Connection roles.
const (
	roleTarget  = "target"
	roleMonitor = "monitor"
	// roleReplica is a warm-standby collector tailing this server's
	// ingestion-ordered record stream (events plus explicit trace
	// registrations) to keep an identical collector one failover away.
	roleReplica = "replica"
	// roleShard is a peer shard tailing this server's cross-shard export
	// log: the stamped send events other shards need before they can
	// deliver receives whose causal past lives here.
	roleShard = "shard"
)

// hello is a session's first frame.
type hello struct {
	magic, role string
	// from is where the session resumes: the linearized events a monitor
	// has received, the event records a replica has applied, the export
	// records a shard peer has.
	from int
	// traces (target role) names the traces the reporter has unacked
	// events for; the accepting acks frame returns the server's ack for
	// each.
	traces []string
}

const wireMagic = "OCEP-POET-6"

// traceAck is the highest seq s such that events 1..s of the trace have
// all been ingested (delivered or buffered awaiting causal partners).
type traceAck struct {
	Trace string
	Seq   int
}

// link is one end of a wire connection. It moves each deadline onto the
// syscall it guards — a fresh one is armed before every read(2) and
// write(2), not before every message — and owns the connection's one
// inbound buffer, br.
type link struct {
	net.Conn
	// readTimeout and writeTimeout arm the deadlines when positive. Each
	// is touched only by the goroutine doing that direction's I/O.
	readTimeout, writeTimeout time.Duration
	br                        *bufio.Reader
	// beforeRead, when set, is told before every read(2), when br holds no
	// whole frame; onRead of every read(2) that returned data.
	beforeRead, onRead func()
}

func newLink(conn net.Conn, readTimeout, writeTimeout time.Duration) *link {
	l := &link{Conn: conn, readTimeout: readTimeout, writeTimeout: writeTimeout}
	l.br = bufio.NewReaderSize(l, frameBufSize)
	return l
}

func (l *link) Read(p []byte) (int, error) {
	if l.beforeRead != nil {
		l.beforeRead()
	}
	if l.readTimeout > 0 {
		_ = l.Conn.SetReadDeadline(time.Now().Add(l.readTimeout))
	}
	n, err := l.Conn.Read(p)
	if n > 0 && l.onRead != nil {
		l.onRead()
	}
	return n, err
}

func (l *link) Write(p []byte) (int, error) {
	if l.writeTimeout > 0 {
		_ = l.Conn.SetWriteDeadline(time.Now().Add(l.writeTimeout))
	}
	return l.Conn.Write(p)
}

// ---------------------------------------------------------------------
// The client session engine: what the four wire clients — Reporter,
// MonitorClient, Replicator, ShardFollower — do alike. Each role adds
// its hello, its per-frame loop and its stats.

// ErrStreamInterrupted reports that a wire connection died without the
// protocol's explicit end-of-stream frame: the peer crashed, the network
// reset, or a heartbeat timeout fired. It is distinct from io.EOF so a
// monitor can never mistake a partial stream for a completed run. The
// redial loop consumes it internally; it surfaces only when reconnection
// is disabled, its budget is exhausted, or the server refuses the
// resumed session.
var ErrStreamInterrupted = errors.New("poet: event stream interrupted")

// ErrClientClosed reports an operation on a locally closed client.
var ErrClientClosed = errors.New("poet: client closed")

// ErrSessionRejected reports a hello the server refused (for a monitor,
// typically a resume offset beyond the server's stream — the state the
// client remembers no longer exists, e.g. after a recovery from a
// weaker-than-always fsync policy). Redialing cannot fix it, so the
// redial loop treats it as terminal instead of burning its backoff
// budget against a permanent refusal.
var ErrSessionRejected = errors.New("poet: session rejected by server")

// Wire-client defaults.
const (
	defaultDialTimeout     = 3 * time.Second
	defaultWriteTimeout    = 10 * time.Second
	defaultReconnectBudget = 30 * time.Second
	defaultBackoffBase     = 50 * time.Millisecond
	defaultBackoffMax      = 2 * time.Second
	defaultPeerTimeout     = 10 * time.Second
	defaultReporterBuffer  = 8192
	// minHandshakeTimeout floors the hello-answer read deadline: liveness
	// timeouts may be tuned far below what a degraded link needs to
	// complete a handshake.
	minHandshakeTimeout = 2 * time.Second
)

// isTimeout reports whether err is a read/write deadline expiry.
func isTimeout(err error) bool {
	return errors.Is(err, os.ErrDeadlineExceeded)
}

// clientCfg configures a wire client; SessionOptions set it.
type clientCfg struct {
	// reconnectBudget bounds the backoff slept per outage; the pool paces
	// failed rounds between backoffBase and backoffMax.
	reconnectBudget, backoffBase, backoffMax time.Duration
	// heartbeat is the keep-alive cadence of the roles that write after
	// their hello (reporter, replica); peerTimeout is how long the inbound
	// direction may stay silent before the connection is declared dead.
	heartbeat, peerTimeout, dialTimeout, writeTimeout time.Duration
	logf                                              func(string, ...any)
	// buffer bounds a reporter's unacked window.
	buffer int
	// breakerAfter exhausted budgets open the breaker, which then probes
	// once every breakerProbe; zero leaves it unarmed.
	breakerAfter int
	breakerProbe time.Duration
}

func defaultClientCfg() clientCfg {
	return clientCfg{
		reconnectBudget: defaultReconnectBudget,
		backoffBase:     defaultBackoffBase,
		backoffMax:      defaultBackoffMax,
		heartbeat:       DefaultHeartbeat,
		peerTimeout:     defaultPeerTimeout,
		dialTimeout:     defaultDialTimeout,
		writeTimeout:    defaultWriteTimeout,
		logf:            func(string, ...any) {},
		buffer:          defaultReporterBuffer,
	}
}

// SessionOption configures a wire client: DialReporter, DialMonitor,
// FollowPrimary and FollowShardPeer all take them. docs/ARCHITECTURE.md
// tables which option acts on which role.
type SessionOption func(*clientCfg)

// ReporterOption is the former name of SessionOption.
type ReporterOption = SessionOption

// WithSessionReconnect bounds the cumulative backoff spent redialing per
// outage; exhausting it ends the client with an ErrStreamInterrupted
// wrap. 0 allows the first dial's round and no redial afterwards.
func WithSessionReconnect(budget time.Duration) SessionOption {
	return func(c *clientCfg) { c.reconnectBudget = budget }
}

// WithSessionBackoff sets the schedule that paces failed dial rounds.
func WithSessionBackoff(base, max time.Duration) SessionOption {
	return func(c *clientCfg) { c.backoffBase, c.backoffMax = base, max }
}

// WithSessionHeartbeat sets the keep-alive cadence toward the server (a
// reporter's idle heartbeats, a replica's confirmations) and the
// dead-peer timeout to 5x it: a session that hears nothing for that long
// is redialed, so the timeout must exceed the server's own heartbeat
// interval.
func WithSessionHeartbeat(d time.Duration) SessionOption {
	return func(c *clientCfg) {
		if d > 0 {
			c.heartbeat, c.peerTimeout = d, 5*d
		}
	}
}

// WithReplicaHeartbeat is the former name of WithSessionHeartbeat.
var WithReplicaHeartbeat = WithSessionHeartbeat

// WithSessionLog routes the client's diagnostics (redials, failovers,
// retransmits, dead peers) to logf.
func WithSessionLog(logf func(string, ...any)) SessionOption {
	return func(c *clientCfg) {
		if logf != nil {
			c.logf = logf
		}
	}
}

// WithReporterBuffer bounds a reporter's unacked-event buffer. Report
// blocks when it is full until the server acks (or the reporter fails).
func WithReporterBuffer(n int) SessionOption {
	return func(c *clientCfg) {
		if n > 0 {
			c.buffer = n
		}
	}
}

// WithShardBreaker arms a shard follower's circuit breaker: after n
// consecutive exhausted reconnect budgets the follower stops burning
// dial loops and opens the breaker, probing the peer's endpoints once
// every probe interval (half-open) until one accepts, which closes it.
// Without a breaker (the default) an exhausted budget ends the follower
// with an ErrStreamInterrupted wrap. Other roles ignore it.
func WithShardBreaker(n int, probe time.Duration) SessionOption {
	return func(c *clientCfg) {
		if n > 0 && probe > 0 {
			c.breakerAfter, c.breakerProbe = n, probe
		}
	}
}

// session is the client end of a freshly handshaken connection to ep:
// the frame writer and reader that carried the hello and its answer
// carry the rest of the session, and acks is what the answer held.
type session struct {
	*link
	fw   *frameWriter
	fr   *frameReader
	ep   string
	acks []traceAck
}

// dialSession dials addr, sends h, and reads the answer under the peer
// timeout floored at minHandshakeTimeout; the plain peer timeout guards
// the reads after it. A refused session closes the connection: a
// retriable refusal (standby awaiting promotion, draining server) reads
// like a dial failure so endpoint pools rotate and keep probing, a
// terminal one wraps ErrSessionRejected.
func dialSession(addr string, h hello, cfg *clientCfg) (*session, error) {
	conn, err := net.DialTimeout("tcp", addr, cfg.dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("dial: %w", err)
	}
	l := newLink(conn, max(cfg.peerTimeout, minHandshakeTimeout), cfg.writeTimeout)
	s := &session{link: l, fw: newFrameWriter(l), fr: &frameReader{br: l.br}, ep: addr}
	h.magic = wireMagic
	s.fw.hello(&h)
	var f frame
	if err = s.fw.flush(); err != nil {
		err = fmt.Errorf("hello: %w", err)
	} else if err = s.fr.next(&f); err != nil {
		err = fmt.Errorf("hello answer: %w", err)
	} else if f.kind == frameError && f.retry {
		err = fmt.Errorf("session deferred: %s", f.reason)
	} else if f.kind == frameError {
		err = fmt.Errorf("%w: %s", ErrSessionRejected, f.reason)
	} else if f.kind != frameAcks {
		err = fmt.Errorf("hello answered by a kind-%d frame", f.kind)
	}
	if err != nil {
		_ = conn.Close()
		return nil, err
	}
	s.acks = f.acks
	s.readTimeout = cfg.peerTimeout
	return s, nil
}

// clientRole is what a role adds to the engine: the hello each session
// opens with, and what it takes from a session that handshook — attach
// runs once the session is published, on the goroutine that then hands
// it to the role's frame loop.
type clientRole interface {
	greet() hello
	attach(s *session)
}

// Breaker states, exported both through ShardFollowerStats and as the
// poet_shard_peer_breaker_state gauge values.
const (
	// BreakerClosed: the client dials and follows normally.
	BreakerClosed = 0
	// BreakerHalfOpen: a probe round is in flight after the open interval.
	BreakerHalfOpen = 1
	// BreakerOpen: the peer exhausted its reconnect budgets; the client
	// only probes periodically.
	BreakerOpen = 2
)

// terminalError marks a session's end that redialing cannot fix — the
// local collector refused a record the peer sent, the stream
// desynchronized, the primary drained — so the client ends with err.
type terminalError struct{ err error }

func (t *terminalError) Error() string { return t.err.Error() }

func terminal(err error) error { return &terminalError{err} }

// wireClient is the engine under every wire client: the endpoint pool,
// the live session, the stop signal, and the one redial loop. A role
// embeds it, and mu guards the role's own fields too.
type wireClient struct {
	name string // "reporter", "monitor", …: how errors and logs name it
	role clientRole
	eps  *pool.Pool
	cfg  clientCfg

	mu sync.Mutex
	// cond is broadcast when the client stops or fails; roles wait on it
	// for their own state too.
	cond    *sync.Cond
	live    *session // the session stop severs
	stopped bool
	err     error // why the client ended; nil after a stop
	// stopCh closes on stop, ending any dial or backoff sleep; done
	// closes when run returns.
	stopCh, done chan struct{}
	reconnects   int
	// breaker and exhaustions are the circuit breaker's state; only the
	// dialing goroutine writes them.
	breaker, exhaustions int
}

// init readies the engine of the client called name, for the
// comma-separated endpoint list addrs.
func (c *wireClient) init(name, addrs string, cfg clientCfg, opts []SessionOption, role clientRole) error {
	for _, o := range opts {
		o(&cfg)
	}
	if _, ok := role.(*ShardFollower); !ok {
		// The breaker is the shard follower's alone: any other role ends
		// on an exhausted budget (a standby promotes on it).
		cfg.breakerAfter = 0
	}
	list := pool.ParseAddrs(addrs)
	if len(list) == 0 {
		return fmt.Errorf("poet %s: %w", name, pool.ErrNoEndpoints)
	}
	c.name, c.role, c.cfg = name, role, cfg
	c.eps = pool.New(list, cfg.backoffBase, cfg.backoffMax)
	c.cond = sync.NewCond(&c.mu)
	c.stopCh, c.done = make(chan struct{}), make(chan struct{})
	return nil
}

// connect makes the first session synchronously, in one round over the
// pool: a fully unreachable service fails fast, a partly degraded one
// lands on a healthy endpoint.
func (c *wireClient) connect() (*session, error) {
	s, err := c.dial(0)
	if err != nil {
		return nil, fmt.Errorf("poet %s: %w", c.name, err)
	}
	return s, nil
}

// try handshakes with ep and publishes the session. Stop may have raced
// the dial — it severs only a published session — so stopped is
// re-checked here, under the lock that publishes: a client stopped
// meanwhile closes the session itself, instead of sitting out a peer
// timeout nobody can interrupt.
func (c *wireClient) try(ep string) (*session, error) {
	s, err := dialSession(ep, c.role.greet(), &c.cfg)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	stopped := c.stopped
	if !stopped {
		c.live = s
		c.exhaustions = 0
	}
	c.mu.Unlock()
	if stopped {
		_ = s.Close()
		return nil, ErrClientClosed
	}
	c.role.attach(s)
	return s, nil
}

// dial tries the pool's endpoints until one accepts, sleeping the pool's
// backoff only once a whole round has failed, while the sleep stays
// within budget (zero: one round). Past the budget an armed breaker
// counts the exhausted budget and starts another, and from the
// breakerAfter-th on holds open: one round per probe interval until an
// endpoint accepts. dial ends early with ErrClientClosed once stopped
// and with a terminal ErrSessionRejected — another endpoint cannot make
// a refusal wrong.
func (c *wireClient) dial(budget time.Duration) (*session, error) {
	var slept time.Duration
	probed := 0 // endpoints tried in this half-open round
	for {
		if !backoff.Sleep(0, c.stopCh) {
			return nil, ErrClientClosed
		}
		ep := c.eps.Pick()
		s, err := c.try(ep)
		if err == nil {
			c.eps.Success(ep)
			if c.breaker != BreakerClosed {
				c.setBreaker(BreakerClosed)
				c.cfg.logf("poet %s: breaker closed; following %s again", c.name, ep)
			}
			return s, nil
		}
		if errors.Is(err, ErrSessionRejected) || errors.Is(err, ErrClientClosed) {
			return nil, err
		}
		d := c.eps.Fail(ep, err)
		switch {
		case c.breaker != BreakerClosed:
			// Half-open: the probe round goes on to the next endpoint.
			if probed++; probed < c.eps.Size() {
				continue
			}
			probed, d = 0, c.cfg.breakerProbe
			c.setBreaker(BreakerOpen)
		case slept+d <= budget:
			slept += d
		default:
			if sum := c.eps.ErrorSummary(); sum != nil {
				err = sum
			}
			if budget > 0 {
				err = fmt.Errorf("reconnect budget %v exhausted: %w", budget, err)
			}
			if budget == 0 || !c.trip(err) {
				return nil, err
			}
			slept = 0
			if c.breaker == BreakerClosed {
				continue // another budget, at once
			}
			d = c.cfg.breakerProbe
		}
		if !backoff.Sleep(d, c.stopCh) {
			return nil, ErrClientClosed
		}
		if c.breaker == BreakerOpen {
			c.setBreaker(BreakerHalfOpen)
		}
	}
}

// trip counts an exhausted budget against an armed breaker, opening it
// at the breakerAfter-th, and reports whether dialing goes on.
func (c *wireClient) trip(cause error) bool {
	if c.cfg.breakerAfter == 0 {
		return false
	}
	c.mu.Lock()
	c.exhaustions++
	open := c.exhaustions >= c.cfg.breakerAfter
	if open {
		c.breaker = BreakerOpen
	}
	c.mu.Unlock()
	if open {
		c.cfg.logf("poet %s: breaker OPEN for %s after %d exhausted reconnect budgets (%v); probing every %v",
			c.name, c.eps.Pick(), c.cfg.breakerAfter, cause, c.cfg.breakerProbe)
	}
	return true
}

func (c *wireClient) setBreaker(state int) {
	c.mu.Lock()
	c.breaker = state
	c.mu.Unlock()
}

// run drives a client's sessions on its own goroutine: serve runs each
// until it ends, and nextSession finds the next, until the client stops
// or fails. s is the first session; nil dials it here, within the
// budget.
func (c *wireClient) run(s *session, serve func(*session) error) {
	defer close(c.done)
	var err error
	if s == nil {
		if s, err = c.dial(c.cfg.reconnectBudget); err != nil && !errors.Is(err, ErrClientClosed) {
			err = fmt.Errorf("poet %s: %w: %w", c.name, ErrStreamInterrupted, err)
		}
	}
	for err == nil {
		s, err = c.nextSession(serve(s))
	}
	c.finish(err)
}

// nextSession ends the live session — cause says why — and dials the next
// within the reconnect budget. Instead it returns what ends the client:
// ErrClientClosed once stopped; a terminal cause's own error; otherwise,
// once redialing is disabled, its budget spent or the server refuses
// the resumed session, an ErrStreamInterrupted wrap.
func (c *wireClient) nextSession(cause error) (*session, error) {
	c.mu.Lock()
	old, stopped := c.live, c.stopped
	c.live = nil
	c.mu.Unlock()
	if old != nil {
		_ = old.Close()
	}
	var t *terminalError
	switch {
	case errors.As(cause, &t):
		return nil, t.err
	case stopped:
		return nil, ErrClientClosed
	case isTimeout(cause):
		cause = fmt.Errorf("nothing heard in %v: %w", c.cfg.peerTimeout, cause)
	}
	if old != nil {
		c.cfg.logf("poet %s: lost the session with %s: %v", c.name, old.ep, cause)
	}
	err := errors.New("reconnection disabled")
	if c.cfg.reconnectBudget > 0 {
		var s *session
		if s, err = c.dial(c.cfg.reconnectBudget); err == nil {
			c.mu.Lock()
			c.reconnects++
			c.mu.Unlock()
			c.cfg.logf("poet %s: resumed session with %s", c.name, s.ep)
			return s, nil
		} else if errors.Is(err, ErrClientClosed) {
			return nil, err
		}
	}
	return nil, fmt.Errorf("poet %s: %w (cause: %v): %w", c.name, ErrStreamInterrupted, cause, err)
}

// drained takes a drain notice from the server at ep: with a healthy
// alternative in the pool it demotes ep and reports that the session
// should move. Otherwise (single endpoint, or every peer mid-failure
// streak) the session rides on to the server's End frame, which beats
// abandoning a live stream for dead endpoints.
func (c *wireClient) drained(ep string) bool {
	if !c.eps.HealthyAlternative(ep) {
		return false
	}
	c.cfg.logf("poet %s: %s is draining; failing over", c.name, ep)
	c.eps.Demote(ep)
	return true
}

// finish records why the client ended (the first reason wins; a stop
// is no failure) and wakes the role's waiters.
func (c *wireClient) finish(err error) {
	c.mu.Lock()
	if c.err == nil && !errors.Is(err, ErrClientClosed) {
		c.err = err
	}
	c.cond.Broadcast()
	c.mu.Unlock()
}

// failure returns why the client ended, if it failed.
func (c *wireClient) failure() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// stop ends the client: no further dial, and any backoff sleep ends at
// once. sever closes the live session too; a reporter's Close leaves
// that to its sender, which first sends what is unsent.
func (c *wireClient) stop(sever bool) {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return
	}
	c.stopped = true
	live := c.live
	c.cond.Broadcast()
	c.mu.Unlock()
	close(c.stopCh)
	if sever && live != nil {
		_ = live.Close()
	}
}
