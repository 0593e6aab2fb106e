package poet

import (
	"errors"
	"fmt"
	"io"
	"time"

	"ocep/internal/backoff"
	"ocep/internal/event"
	"ocep/internal/fifo"
)

// ---------------------------------------------------------------------
// Reporter

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
	// The engine's mu guards the fields below, and its err is the
	// permanent failure Report and Flush return.
	wireClient

	// window holds reported events not yet pruned as acked, in report
	// order; its first sent went out on the current connection. Report
	// pushes, and only the sender prunes.
	window fifo.Queue[RawEvent]
	sent   int
	// acks is the latest per-trace contiguous ack from the server; moved
	// says one advanced since the sender last pruned.
	acks  map[string]int
	moved bool
	// covered is how many window entries the last hello named traces for.
	covered int
	stats   ReporterStats

	// wake signals the sender (new events, new acks, close).
	wake chan struct{}
	// lost carries why the live session's ack reader stopped.
	lost chan error
}

// DialReporter connects to a POET server as a target. addr may name a
// failover pool of servers as a comma-separated endpoint list
// ("host1:6711,host2:6711"); the reporter connects to the first healthy
// one and rotates to the next on connection failures and drain notices.
// The initial dial and handshake are synchronous (an unreachable pool
// fails fast after one round); subsequent failures are handled by the
// background redial loop.
func DialReporter(addr string, opts ...SessionOption) (*Reporter, error) {
	r := &Reporter{acks: make(map[string]int), wake: make(chan struct{}, 1)}
	if err := r.init("reporter", addr, defaultClientCfg(), opts, r); err != nil {
		return nil, err
	}
	s, err := r.connect()
	if err != nil {
		return nil, err
	}
	go r.run(s, r.serve)
	return r, nil
}

// greet names the traces in the window; the accepting acks frame returns
// the server's ack for each.
func (r *Reporter) greet() hello {
	r.mu.Lock()
	defer r.mu.Unlock()
	var names []string
	seen := make(map[string]bool)
	r.covered = r.window.Len()
	for i := 0; i < r.covered; i++ {
		if tr := r.window.At(i).Trace; !seen[tr] {
			seen[tr] = true
			names = append(names, tr)
		}
	}
	return hello{role: roleTarget, traces: names}
}

// attach applies the answer's acks and spawns the session's ack reader.
// Everything on the new session is unsent; the sender prunes acked
// entries and retransmits the remainder. Only entries the hello covered
// count as retransmits, so a session that retransmits has named traces.
func (r *Reporter) attach(s *session) {
	lost := make(chan error, 1)
	r.mu.Lock()
	r.applyAcksLocked(s.acks)
	r.sent = 0
	retrans := 0
	for i := 0; i < r.covered; i++ {
		if ev := r.window.At(i); ev.Seq > r.acks[ev.Trace] {
			retrans++
		}
	}
	r.stats.Retransmits += retrans
	r.lost = lost
	r.mu.Unlock()
	if retrans > 0 {
		r.cfg.logf("poet reporter: retransmitting %d unacked events to %s", retrans, s.ep)
	}
	go r.reader(s, lost)
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

// reader consumes server acks on one session, and sends why it stopped
// on lost; pruning is left to the sender (the only goroutine that
// mutates the buffer indices). The peer timeout makes a silent server
// indistinguishable from a dead one, on purpose. An acks frame doubles
// as the server's heartbeat.
func (r *Reporter) reader(s *session, lost chan<- error) {
	var f frame
	for {
		err := s.fr.next(&f)
		switch {
		case err != nil:
		case f.kind == frameError:
			// Hard rejection: the server refused an event as malformed and
			// is closing. Retransmitting it forever would be a livelock;
			// surface the error instead.
			err = fmt.Errorf("poet reporter: server rejected event: %s", f.reason)
			r.finish(err)
			err = terminal(err)
		case f.kind == frameAcks:
			r.mu.Lock()
			r.applyAcksLocked(f.acks)
			r.mu.Unlock()
			r.signal()
			continue
		case f.kind == frameDrain && !r.drained(s.ep):
			continue
		case f.kind == frameDrain:
			// The acks frame ahead of the notice was applied first, so the
			// next session retransmits only what this server never ingested.
			err = errors.New("server draining")
		default:
			err = fmt.Errorf("unexpected kind-%d frame", f.kind)
		}
		_ = s.Close()
		lost <- err
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

// serve streams the window on one session — unsent events, a heartbeat
// when idle — until the session dies, or returns nil once the reporter
// is closed with nothing unsent.
func (r *Reporter) serve(s *session) error {
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
		failed, closed, lost := r.err, r.stopped, r.lost
		claim, unsent := r.claimLocked()
		r.mu.Unlock()
		if failed != nil {
			return terminal(failed)
		}
		if closed && unsent == 0 {
			return nil
		}
		if len(claim) > 0 {
			for i := range claim {
				s.fw.raw(&claim[i])
			}
			if len(claim) < unsent {
				continue // claim the rest before the flush
			}
			if err := s.fw.flush(); err != nil {
				return err
			}
			backoff.ResetTimer(hb, r.cfg.heartbeat)
			continue
		}
		select {
		case <-r.wake:
		case err := <-lost:
			return err
		case <-hb.C:
			s.fw.signal(frameHeartbeat)
			if err := s.fw.flush(); err != nil {
				return err
			}
			hb.Reset(r.cfg.heartbeat)
		}
	}
}

// Report buffers one raw event for transmission. It blocks only when the
// unacked window is full, and returns an error only when the reporter
// has permanently failed (reconnection disabled or exhausted, or the
// server rejected an event as malformed) or been closed.
func (r *Reporter) Report(raw RawEvent) error {
	r.mu.Lock()
	for r.err == nil && !r.stopped && r.window.Len() >= r.cfg.buffer {
		r.cond.Wait()
	}
	if r.err != nil {
		err := r.err
		r.mu.Unlock()
		return err
	}
	if r.stopped {
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
	for r.err == nil && !r.stopped && r.window.Len() > 0 {
		r.cond.Wait()
	}
	if r.err != nil {
		return r.err
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
	s.Reconnects = r.reconnects
	r.mu.Unlock()
	s.Failovers = int(r.eps.Failovers())
	return s
}

// Err returns the reporter's permanent failure, if any.
func (r *Reporter) Err() error { return r.failure() }

// Close sends any still-unsent events on the live connection (best
// effort; it does not redial or wait for acks — use Flush first for a
// delivery guarantee), then tears the connection down.
func (r *Reporter) Close() error {
	r.stop(false)
	r.signal()
	<-r.done
	return nil
}

// ---------------------------------------------------------------------
// MonitorClient

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
	wireClient
	names map[event.TraceID]string

	// fr decodes the live session's frames, from ep. Replaced wholesale
	// on every (re)connection, so the string table, the announced traces,
	// and each trace's last timestamp reset together with the server's.
	fr       *frameReader
	ep       string
	received int
	ended    bool
}

// DialMonitor connects to a POET server as a monitor client. addr may
// name a failover pool of servers as a comma-separated endpoint list
// ("host1:6711,host2:6711"); the client connects to the first healthy
// one and rotates to the next on connection failures and drain notices,
// resuming the stream at its exact offset so the observed sequence
// stays gap-free and duplicate-free across the move. The initial dial is
// synchronous, one round over the pool.
func DialMonitor(addr string, opts ...SessionOption) (*MonitorClient, error) {
	m := &MonitorClient{names: make(map[event.TraceID]string)}
	if err := m.init("monitor", addr, defaultClientCfg(), opts, m); err != nil {
		return nil, err
	}
	if _, err := m.connect(); err != nil {
		return nil, err
	}
	return m, nil
}

// greet resumes at the linearization offset reached.
func (m *MonitorClient) greet() hello { return hello{role: roleMonitor, from: m.received} }

// attach reads the rest of the stream from s. Next's goroutine, the only
// one to read fr, dialed s. A monitor never writes after its hello, so
// the session's writer and its buffer go.
func (m *MonitorClient) attach(s *session) {
	m.fr, m.ep, s.fw = s.fr, s.ep, nil
	if m.received > 0 {
		m.cfg.logf("poet monitor: resuming the stream from %s at offset %d", s.ep, m.received)
	}
}

// Next returns the next delivered event. It returns io.EOF only on a
// clean end of stream: the server's End frame, or a locally Closed
// client. A connection that dies mid-stream is transparently resumed
// (reconnect with backoff, replay from the current offset); if resuming
// is disabled or fails, Next returns an error wrapping
// ErrStreamInterrupted.
func (m *MonitorClient) Next() (*event.Event, error) {
	for !m.ended {
		m.mu.Lock()
		stopped := m.stopped
		m.mu.Unlock()
		if stopped {
			return nil, io.EOF
		}
		var f frame
		err := m.fr.next(&f)
		switch {
		case errors.Is(err, errDesync):
			// A timestamp desync is a protocol bug, not a transport fault:
			// resuming would mask it, so surface it.
			return nil, err
		case err != nil:
		case f.kind == frameEvent:
			m.received++
			return f.ev, nil
		case f.kind == frameTrace:
			m.names[f.id] = f.name
			continue
		case f.kind == frameHeartbeat:
			continue
		case f.kind == frameEnd:
			m.ended = true
			continue
		case f.kind == frameDrain && !m.drained(m.ep):
			continue
		case f.kind == frameDrain:
			// Move to the healthy peer, resuming at the exact offset.
			err = errors.New("server draining")
		default:
			return nil, fmt.Errorf("poet monitor: unexpected kind-%d frame on a monitor stream", f.kind)
		}
		if _, err = m.nextSession(err); errors.Is(err, ErrClientClosed) {
			return nil, io.EOF
		} else if err != nil {
			return nil, err
		}
	}
	return nil, io.EOF
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
	m.mu.Lock()
	defer m.mu.Unlock()
	return MonitorClientStats{Received: m.received, Reconnects: m.reconnects, Failovers: int(m.eps.Failovers())}
}

// Close closes the connection and stops any in-flight reconnection,
// including one parked in a backoff sleep.
func (m *MonitorClient) Close() error {
	m.stop(true)
	return nil
}
