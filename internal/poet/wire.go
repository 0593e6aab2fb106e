package poet

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"ocep/internal/backoff"
	"ocep/internal/pool"
)

// Wire protocol v4 ("OCEP-POET-4"); docs/ARCHITECTURE.md has the frame
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
// naming v4, instead of desynchronizing mid-stream.

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

const wireMagic = "OCEP-POET-4"

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

// clientCfg is what the client ends of the four streaming roles
// configure alike.
type clientCfg struct {
	// reconnectBudget bounds the cumulative backoff per outage; the pool
	// paces failed rounds between backoffBase and backoffMax.
	reconnectBudget, backoffBase, backoffMax time.Duration
	// peerTimeout is how long the inbound direction may stay silent
	// before the connection is declared dead.
	peerTimeout, dialTimeout, writeTimeout time.Duration
	logf                                   func(string, ...any)
}

func defaultClientCfg() clientCfg {
	return clientCfg{
		reconnectBudget: defaultReconnectBudget,
		backoffBase:     defaultBackoffBase,
		backoffMax:      defaultBackoffMax,
		peerTimeout:     defaultPeerTimeout,
		dialTimeout:     defaultDialTimeout,
		writeTimeout:    defaultWriteTimeout,
		logf:            func(string, ...any) {},
	}
}

// session is the client end of a freshly handshaken connection: the
// frame writer and reader that carried the hello and its answer carry
// the rest of the session, and acks is what the answer held.
type session struct {
	*link
	fw   *frameWriter
	fr   *frameReader
	acks []traceAck
}

// dialSession dials addr, sends h, and reads the answer under
// ackTimeout (see minHandshakeTimeout); the peer timeout guards the
// reads after it. A refused session closes the connection: a retriable
// refusal (standby awaiting promotion, draining server) reads like a
// dial failure so endpoint pools rotate and keep probing, a terminal one
// wraps ErrSessionRejected.
func dialSession(addr string, h hello, cfg *clientCfg, ackTimeout time.Duration) (*session, error) {
	conn, err := net.DialTimeout("tcp", addr, cfg.dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("dial: %w", err)
	}
	l := newLink(conn, ackTimeout, cfg.writeTimeout)
	s := &session{link: l, fw: newFrameWriter(l), fr: &frameReader{br: l.br}}
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

// follower is the lifecycle the two log-tailing clients (Replicator,
// ShardFollower) share: the live connection, published under mu so Stop
// can sever it; the stop signal; and why following ended.
type follower struct {
	mu      sync.Mutex
	conn    *link
	stopped bool
	err     error
	stopCh  chan struct{}
	done    chan struct{}
}

// publishLocked makes conn the connection Stop will close. Stop may have
// raced the dial — it closes only a published connection — so stopped is
// re-checked here, under the lock that publishes: a follower stopped
// meanwhile closes the connection itself, instead of sitting out a peer
// timeout on a session nobody can interrupt. Caller holds mu.
func (f *follower) publishLocked(conn *link) bool {
	if f.stopped {
		_ = conn.Close()
		return false
	}
	f.conn = conn
	return true
}

func (f *follower) isStopped() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stopped
}

func (f *follower) finish(err error) {
	f.mu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.mu.Unlock()
}

// Stop detaches from the peer (for a Replicator: manual promotion). The
// caller should wait on Done for the session goroutine.
func (f *follower) Stop() {
	f.mu.Lock()
	if f.stopped {
		f.mu.Unlock()
		return
	}
	f.stopped = true
	conn := f.conn
	f.mu.Unlock()
	close(f.stopCh)
	if conn != nil {
		_ = conn.Close()
	}
}

// Done is closed when following has stopped, for any reason; Err then
// says why.
func (f *follower) Done() <-chan struct{} { return f.done }

// Err returns why following ended: nil (Stop was called), an
// ErrStreamInterrupted wrap (peer unreachable past the reconnect budget
// — a standby's cue to promote), a terminal ErrSessionRejected wrap
// (misconfigured pairing — do not promote), a record the local collector
// refused, or, for a Replicator, ErrPrimaryDrained (clean handoff).
func (f *follower) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// redial tries the pool's endpoints until try succeeds, sleeping the
// pool's backoff only when a whole round has failed, while the
// cumulative sleep stays within budget (zero: one round, for the
// synchronous first dial). It ends early with ErrClientClosed when stop
// closes or try says so, and with a terminal ErrSessionRejected from
// try — another endpoint cannot make a refusal wrong.
func redial(eps *pool.Pool, budget time.Duration, stop <-chan struct{}, try func(ep string) error) error {
	var slept time.Duration
	for {
		if !backoff.Sleep(0, stop) {
			return ErrClientClosed
		}
		ep := eps.Pick()
		err := try(ep)
		if err == nil {
			eps.Success(ep)
			return nil
		}
		if errors.Is(err, ErrSessionRejected) || errors.Is(err, ErrClientClosed) {
			return err
		}
		d := eps.Fail(ep, err)
		if slept+d > budget {
			if sum := eps.ErrorSummary(); sum != nil {
				err = sum
			}
			if budget > 0 {
				err = fmt.Errorf("reconnect budget %v exhausted: %w", budget, err)
			}
			return err
		}
		slept += d
		if !backoff.Sleep(d, stop) {
			return ErrClientClosed
		}
	}
}
