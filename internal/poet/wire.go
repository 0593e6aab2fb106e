package poet

import (
	"bufio"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"ocep/internal/backoff"
	"ocep/internal/pool"
)

// Wire protocol v3 ("OCEP-POET-3"); docs/ARCHITECTURE.md has the frame
// layout table. Every connection opens with a gob hello naming its role,
// answered (for every role but query) by a gob helloAck. After that the
// data direction of the four streaming roles speaks the binary frame
// codec of frame.go — target→server raw events, server→monitor
// delivered events, server→replica records, server→shard exports, each
// with its in-band heartbeat/drain/end/head frames — while the cold
// reverse direction (serverAck at the ack interval, replicaAck per
// applied burst) and the query role stay gob: their structs grow fields
// without a format change, and none of it shows in a profile.
//
// A writer buffers every record its producer already has in hand — the
// delivery batch, the reporter's unsent window, the record-log suffix —
// and flushes when that source is exhausted: one deadline and one
// write(2) per burst, no timer, so a lone event leaves at once.
//
// Reconnecting peers resume: a target hello names the traces it is
// retransmitting (the helloAck returns the server's ack for each, so
// already-ingested events are pruned before replay), and a monitor hello
// carries ResumeFrom, the number of linearized events already received,
// so the server replays only the suffix. All per-connection codec state
// restarts with the handshake.
//
// Compatibility: v3 replaces the gob data messages of v2 outright, as v2
// replaced v1's ack-less stream; the server rejects both older magics at
// the handshake instead of desynchronizing mid-stream.

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

type hello struct {
	Magic string
	Role  string
	// ResumeFrom (monitor role) is the number of linearized events the
	// client has already received; the server replays from that offset.
	ResumeFrom int
	// Traces (target role) names the traces the reporter has unacked
	// events for; the helloAck returns the server's ack for each.
	Traces []string
	// DeltaVC (monitor role) advertises that the client can decode
	// delta-encoded vector timestamps. The server echoes it in the
	// helloAck when it agrees; either side left at false keeps the
	// connection on dense clocks.
	DeltaVC bool
	// ReplicaFrom (replica role) is the number of event records the
	// replica has already applied; the server replays its journal from
	// just past that point, after the registered traces.
	ReplicaFrom int
}

const wireMagic = "OCEP-POET-3"

// The older magics are recognized only to produce a targeted rejection.
const (
	wireMagicV1 = "OCEP-POET-1"
	wireMagicV2 = "OCEP-POET-2"
)

// helloAck is the server's handshake response to target and monitor
// hellos.
type helloAck struct {
	OK    bool
	Error string
	// Acks (target role) is the server's contiguous ingest position for
	// each trace named in the hello.
	Acks []traceAck
	// DeltaVC confirms delta-encoded timestamps for this monitor or
	// shard session.
	DeltaVC bool
	// Retry marks a rejection as retriable: the server is a standby
	// awaiting promotion or is draining, so the same hello may succeed
	// later (or at another endpoint of the pool). Terminal rejections —
	// a resume offset the collector cannot honor — leave it false, and
	// clients surface those instead of rotating endpoints past them.
	Retry bool
}

// traceAck is the highest seq s such that events 1..s of the trace have
// all been ingested (delivered or buffered awaiting causal partners).
type traceAck struct {
	Trace string
	Seq   int
}

// serverAck is one server-to-target frame. A frame with unchanged Acks
// doubles as a heartbeat. A non-empty Err reports a hard event rejection
// (the event is malformed, not merely stale); the server closes the
// connection after sending it, and the reporter surfaces the error
// instead of retransmitting the poison event forever.
type serverAck struct {
	Acks []traceAck
	Err  string
	// Drain announces an orderly shutdown: the server keeps acking what
	// it has but wants no new sessions. A reporter with alternative
	// endpoints fails over immediately instead of waiting for the
	// connection to die; a single-endpoint reporter ignores the notice.
	Drain bool
}

// replicaAck is one replica-to-server frame: the number of event
// records the replica has durably applied (a bare heartbeat when
// nothing advanced). The server's replication barrier releases reporter
// acks and monitor sends only up to the confirmed position.
type replicaAck struct {
	Applied   int
	Heartbeat bool
}

// link is one end of a wire connection. It moves each deadline onto the
// syscall it guards — a fresh one is armed before every read(2) and
// write(2), not before every message — and owns the connection's one
// inbound buffer: the gob handshake decoder and the frameReader both
// read through br, so bytes that arrive in the same segment as the
// handshake are never stranded in a decoder's private read-ahead
// (gob.NewDecoder wraps anything that is not an io.ByteReader in a
// bufio.Reader of its own).
type link struct {
	net.Conn
	// readTimeout and writeTimeout arm the deadlines when positive. Each
	// is touched only by the goroutine doing that direction's I/O.
	readTimeout, writeTimeout time.Duration
	br                        *bufio.Reader
	// onRead, when set, is told of every read(2) that returned data.
	onRead func()
}

func newLink(conn net.Conn, readTimeout, writeTimeout time.Duration) *link {
	l := &link{Conn: conn, readTimeout: readTimeout, writeTimeout: writeTimeout}
	l.br = bufio.NewReaderSize(l, frameBufSize)
	return l
}

func (l *link) Read(p []byte) (int, error) {
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

// session is the client end of a freshly handshaken connection.
type session struct {
	*link
	// enc and dec carried the hello and the helloAck; a role whose cold
	// reverse direction stays gob keeps using the same pair (a second
	// encoder on the stream would resend type definitions).
	enc *gob.Encoder
	dec *gob.Decoder
	ack helloAck
}

// dialSession dials addr, sends h, and reads the helloAck under
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
	s := &session{link: newLink(conn, ackTimeout, cfg.writeTimeout)}
	s.enc, s.dec = gob.NewEncoder(s.link), gob.NewDecoder(s.br)
	if err := s.enc.Encode(h); err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("hello: %w", err)
	}
	if err := s.dec.Decode(&s.ack); err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("hello ack: %w", err)
	}
	if !s.ack.OK {
		_ = conn.Close()
		if s.ack.Retry {
			return nil, fmt.Errorf("session deferred: %s", s.ack.Error)
		}
		return nil, fmt.Errorf("%w: %s", ErrSessionRejected, s.ack.Error)
	}
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
