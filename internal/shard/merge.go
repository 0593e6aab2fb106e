package shard

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"ocep/internal/event"
	"ocep/internal/fifo"
	"ocep/internal/poet"
	"ocep/internal/telemetry"
	"ocep/internal/vclock"
)

// Stream is the slice of a monitor client the merge layer consumes;
// *poet.MonitorClient satisfies it. Next and TraceName are called from
// a single goroutine per stream (the monitor-client contract).
type Stream interface {
	Next() (*event.Event, error)
	TraceName(event.TraceID) (string, bool)
}

// mergeQueueMax bounds each per-shard queue: a shard far ahead of its
// peers parks its pump instead of buffering without limit. It must
// comfortably exceed any single burst of causally-unordered deliveries,
// which cross-shard exchange latency bounds in practice.
const mergeQueueMax = 1 << 14

// item is one pumped event with the trace name captured on the pump
// goroutine (where calling TraceName is safe).
type item struct {
	e    *event.Event
	name string
	ok   bool
}

// WedgeError reports a wedged merge: emission has made no progress for
// longer than the configured bound (or every stream ended) while some
// queued event's cross-shard causal past has not been emitted. It names
// the shard whose stream is starving the merge and the exact frontier
// entry blocking emission, so an operator can go straight to the
// stalled shard instead of diagnosing a silent hang. The merge itself
// stays usable after returning one — a caller that expects the stall to
// heal may simply call Next again (each call waits a fresh bound), or
// close the merge to fail fast.
type WedgeError struct {
	// Shard is the stalled shard: the home shard of the blocking
	// frontier entry, whose stream must emit before the merge can
	// progress.
	Shard int
	// Trace and Need identify the blocking frontier entry: the merge
	// cannot emit until trace Trace (homed on Shard) has emitted its
	// Need-th event; Have is how far it has actually gotten.
	Trace event.TraceID
	Need  int32
	Have  int32
	// Waited is how long emission had been stalled when the wedge was
	// diagnosed (zero when every stream had already ended — there is
	// nothing left to wait for).
	Waited time.Duration
	// QueueDepths is each shard's queue depth at diagnosis time: the
	// events buffered but causally unreleasable.
	QueueDepths []int
	// StreamsEnded reports the terminal form: every shard stream ended
	// with events still blocked, so the missing causal past can never
	// arrive and retrying is pointless.
	StreamsEnded bool
}

func (e *WedgeError) Error() string {
	depths := make([]string, len(e.QueueDepths))
	for i, d := range e.QueueDepths {
		depths[i] = fmt.Sprintf("%d", d)
	}
	cause := fmt.Sprintf("no emittable event for %v", e.Waited.Round(time.Millisecond))
	if e.StreamsEnded {
		cause = "all shard streams ended with events still causally blocked"
	}
	return fmt.Sprintf("shard: merge wedged: %s; shard %d's stream is stalled (blocking frontier entry: trace %d needs clock %d, emitted %d); queue depths [%s]",
		cause, e.Shard, e.Trace, e.Need, e.Have, strings.Join(depths, " "))
}

// mergeCfg carries the MergeOptions.
type mergeCfg struct {
	wedgeAfter   time.Duration
	degradeAfter time.Duration
	logf         func(string, ...any)
	reg          *telemetry.Registry
}

// MergeOption configures a MergedClient.
type MergeOption func(*mergeCfg)

// WithWedgeTimeout bounds how long Next blocks with events queued but
// causally unreleasable: once emission has stalled for d, Next returns
// a *WedgeError naming the stalled shard and the blocking frontier
// entry instead of hanging. The merge stays usable — calling Next again
// waits a fresh bound (wait-and-retry), closing fails fast. Zero (the
// default) waits indefinitely.
func WithWedgeTimeout(d time.Duration) MergeOption {
	return func(c *mergeCfg) { c.wedgeAfter = d }
}

// WithDegradeAfter opts in to graceful degradation: once emission has
// stalled on a shard for d, that shard is declared lost and the merge
// waives cross-shard dependencies on it — the healthy shards' streams
// keep flowing, each still in its own causal order, but events whose
// waived past never arrived are counted as causally incomplete
// (MergeStats.Incomplete) rather than silently passed off as sound. A
// lost shard whose stream produces again is immediately live again and
// cross-shard holds re-engage. Zero (the default) never degrades.
func WithDegradeAfter(d time.Duration) MergeOption {
	return func(c *mergeCfg) { c.degradeAfter = d }
}

// WithMergeLog routes merge diagnostics (shards declared lost or
// recovered) to logf.
func WithMergeLog(logf func(string, ...any)) MergeOption {
	return func(c *mergeCfg) {
		if logf != nil {
			c.logf = logf
		}
	}
}

// WithMergeMetrics registers the merge's telemetry with reg:
// shard_merge_incomplete_events_total, shard_merge_wedges_total, and
// the shard_merge_lost_shards gauge.
func WithMergeMetrics(reg *telemetry.Registry) MergeOption {
	return func(c *mergeCfg) { c.reg = reg }
}

// MergeStats summarizes a merged client's robustness accounting.
type MergeStats struct {
	// Emitted counts events the merged stream has produced.
	Emitted int
	// Incomplete counts emitted events that carried a waived
	// cross-shard dependency on a lost shard (degraded mode): their
	// causal past was not fully emitted first.
	Incomplete int
	// Wedges counts WedgeErrors Next has returned.
	Wedges int
	// ShardsLost counts shard-declared-lost transitions (a flapping
	// shard counts once per loss).
	ShardsLost int
	// Lost lists the currently-lost shard IDs in ascending order.
	Lost []int
}

// MergedClient interleaves the per-shard linearizations of a sharded
// collector tier into a single causally-consistent stream. One pump
// goroutine per shard drains its monitor client into a bounded queue;
// Next emits the first queue head that is *ready* — every cross-shard
// entry of its vector timestamp (trace t with t % numShards owned by
// another shard) already emitted. Same-shard predecessors need no
// check: the shard's own linearization provides them in order.
//
// Emission order is deterministic given the per-shard streams: ready
// heads are taken in fixed shard order, so a re-run over identical
// shard linearizations merges identically. Deadlock-freedom holds
// because the tier exports a send before any peer delivers the
// matching receive, so by induction on cross-shard edges some head is
// always ready while events remain — unless a shard's stream has
// stalled, which WithWedgeTimeout turns from a silent hang into a
// structured WedgeError and WithDegradeAfter into annotated
// degradation.
//
// MergedClient satisfies poet.EventSource; feed it straight to
// Monitor.Run.
type MergedClient struct {
	streams []Stream
	cfg     mergeCfg

	mu      sync.Mutex
	cond    *sync.Cond
	queues  []fifo.Queue[item]
	done    []bool  // pump i finished (EOF or error)
	errs    []error // pump i's terminal error, if any
	lost    []bool  // shard i declared lost by DegradeAfter
	emitted []int32 // [t]: trace t's highest index emitted; covers every queued clock
	names   map[event.TraceID]string
	total   int
	closed  bool

	// stallStart is when emission first found events queued but
	// unreleasable; zero while progressing or idle.
	stallStart time.Time
	incomplete int
	wedges     int
	shardsLost int

	telIncomplete *telemetry.Counter
	telWedges     *telemetry.Counter
	telLost       *telemetry.Gauge
}

var _ poet.EventSource = (*MergedClient)(nil)

// NewMergedClient merges streams, whose order assigns shard IDs:
// streams[i] must be shard i of a len(streams)-wide tier (poetd's
// -shard-id i), because trace homes are read off trace IDs as
// t % len(streams).
func NewMergedClient(streams []Stream, opts ...MergeOption) (*MergedClient, error) {
	if len(streams) == 0 {
		return nil, fmt.Errorf("shard: no streams to merge")
	}
	cfg := mergeCfg{logf: func(string, ...any) {}}
	for _, o := range opts {
		o(&cfg)
	}
	m := &MergedClient{
		streams: streams,
		cfg:     cfg,
		queues:  make([]fifo.Queue[item], len(streams)),
		done:    make([]bool, len(streams)),
		errs:    make([]error, len(streams)),
		lost:    make([]bool, len(streams)),
		names:   make(map[event.TraceID]string),
	}
	if cfg.reg != nil {
		m.telIncomplete = cfg.reg.Counter("shard_merge_incomplete_events_total", "Events emitted with a waived cross-shard dependency on a lost shard (degraded mode).")
		m.telWedges = cfg.reg.Counter("shard_merge_wedges_total", "WedgeErrors the merged stream has reported.")
		m.telLost = cfg.reg.Gauge("shard_merge_lost_shards", "Shards currently declared lost by the merge's DegradeAfter bound.")
	}
	m.cond = sync.NewCond(&m.mu)
	for i := range streams {
		go m.pump(i)
	}
	return m, nil
}

// pump drains one shard's stream into its queue.
func (m *MergedClient) pump(i int) {
	s := m.streams[i]
	for {
		e, err := s.Next()
		if err != nil {
			m.mu.Lock()
			m.done[i] = true
			if err != io.EOF {
				m.errs[i] = err
			}
			m.cond.Broadcast()
			m.mu.Unlock()
			return
		}
		name, ok := s.TraceName(e.ID.Trace)
		m.mu.Lock()
		for m.queues[i].Len() >= mergeQueueMax && !m.closed {
			m.cond.Wait()
		}
		if m.closed {
			m.mu.Unlock()
			return
		}
		if m.lost[i] {
			// The stream produced again: the shard is live, cross-shard
			// holds on it re-engage from here on.
			m.lost[i] = false
			m.telLost.Set(int64(m.lostCountLocked()))
			m.cfg.logf("shard merge: shard %d recovered; resuming causal holds on it", i)
		}
		if n := max(e.VC.Width(), int(e.ID.Trace)+1); n > len(m.emitted) {
			m.emitted = append(m.emitted, make([]int32, n-len(m.emitted))...)
		}
		m.queues[i].Push(item{e: e, name: name, ok: ok})
		m.cond.Broadcast()
		m.mu.Unlock()
	}
}

// blockerLocked walks the entries of vc, at the head of shard i's queue,
// that other shards own, in trace order, and returns the first the
// emitted prefix does not cover and whose owner is not lost: -1 means the
// head may be emitted, and waived then says its causal past is
// incomplete. Readiness and the wedge diagnosis both read it.
func (m *MergedClient) blockerLocked(i int, vc vclock.Stamp) (blocker int, waived bool) {
	for t, owner, w := 0, 0, vc.Width(); t < w; t++ {
		if owner != i && int32(vc.Get(t)) > m.emitted[t] {
			if !m.lost[owner] {
				return t, false
			}
			waived = true
		}
		if owner++; owner == len(m.streams) {
			owner = 0
		}
	}
	return -1, waived
}

// diagnoseLocked finds the first blocked queue head in shard order and
// names its blocking frontier entry; nil when nothing queued is blocked
// (empty queues or every head ready).
func (m *MergedClient) diagnoseLocked() *WedgeError {
	for i := range m.queues {
		if m.queues[i].Len() == 0 {
			continue
		}
		vc := m.queues[i].At(0).e.VC
		if t, _ := m.blockerLocked(i, vc); t >= 0 {
			w := &WedgeError{Shard: t % len(m.streams), Trace: event.TraceID(t), Need: int32(vc.Get(t)), Have: m.emitted[t]}
			w.QueueDepths = make([]int, len(m.queues))
			for j := range m.queues {
				w.QueueDepths[j] = m.queues[j].Len()
			}
			return w
		}
	}
	return nil
}

func (m *MergedClient) lostCountLocked() int {
	n := 0
	for _, l := range m.lost {
		if l {
			n++
		}
	}
	return n
}

// declareLostLocked marks the blocking shard lost: its cross-shard
// dependencies are waived until its stream produces again.
func (m *MergedClient) declareLostLocked(w *WedgeError) {
	if m.lost[w.Shard] {
		return
	}
	m.lost[w.Shard] = true
	m.shardsLost++
	m.telLost.Set(int64(m.lostCountLocked()))
	m.cfg.logf("shard merge: shard %d declared lost after %v without progress (blocking entry: trace %d needs %d, emitted %d); waiving causal holds on it — downstream events may be causally incomplete",
		w.Shard, m.cfg.degradeAfter, w.Trace, w.Need, w.Have)
}

// waitLocked parks until the queues change or d elapses (d <= 0 waits
// without a deadline). The timer's broadcast takes the lock, so the
// wakeup cannot slip between the caller's check and its Wait.
func (m *MergedClient) waitLocked(d time.Duration) {
	if d <= 0 {
		m.cond.Wait()
		return
	}
	t := time.AfterFunc(d, func() {
		m.mu.Lock()
		m.cond.Broadcast()
		m.mu.Unlock()
	})
	m.cond.Wait()
	t.Stop()
}

// stallBoundLocked is the earliest configured stall bound, or 0 when
// neither wedge detection nor degradation is on.
func (m *MergedClient) stallBoundLocked() time.Duration {
	b := m.cfg.wedgeAfter
	if m.cfg.degradeAfter > 0 && (b == 0 || m.cfg.degradeAfter < b) {
		b = m.cfg.degradeAfter
	}
	return b
}

// Next returns the next event of the merged linearization. It returns
// io.EOF when every shard stream ended cleanly and all queues drained;
// a shard stream's error surfaces once nothing more can be emitted. A
// wedge — a queued event whose cross-shard causal past does not arrive
// — is reported as a *WedgeError naming the stalled shard and blocking
// frontier entry: immediately when every stream has ended, and after
// the WithWedgeTimeout bound when streams are still open but emission
// has stalled. It never blocks indefinitely with a bound configured.
func (m *MergedClient) Next() (*event.Event, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		if m.closed {
			return nil, io.EOF
		}
		for i := range m.queues {
			if m.queues[i].Len() == 0 {
				continue
			}
			it := *m.queues[i].At(0)
			blocker, waived := m.blockerLocked(i, it.e.VC)
			if blocker >= 0 {
				continue
			}
			m.queues[i].Pop(1)
			t := it.e.ID.Trace
			m.emitted[t] = max(m.emitted[t], int32(it.e.ID.Index))
			if name, named := m.names[t]; it.ok && (!named || name != it.name) {
				m.names[t] = it.name
			}
			m.total++
			if waived {
				m.incomplete++
				m.telIncomplete.Inc()
			}
			m.stallStart = time.Time{}
			m.cond.Broadcast() // queue space freed
			return it.e, nil
		}
		allDone := true
		for i := range m.queues {
			if !m.done[i] {
				allDone = false
				break
			}
		}
		blocked := m.diagnoseLocked()
		if allDone {
			for _, err := range m.errs {
				if err != nil {
					return nil, fmt.Errorf("shard: merged stream broken: %w", err)
				}
			}
			if blocked == nil {
				return nil, io.EOF
			}
			blocked.StreamsEnded = true
			m.wedges++
			m.telWedges.Inc()
			return nil, blocked
		}
		bound := m.stallBoundLocked()
		if bound == 0 || blocked == nil {
			// Nothing queued is blocked (an idle stream is not a stall),
			// or no bound is configured: park until the queues change.
			m.stallStart = time.Time{}
			m.waitLocked(bound)
			continue
		}
		now := time.Now()
		if m.stallStart.IsZero() {
			m.stallStart = now
		}
		waited := now.Sub(m.stallStart)
		if m.cfg.degradeAfter > 0 && waited >= m.cfg.degradeAfter {
			m.declareLostLocked(blocked)
			continue // re-scan: waived heads may now be ready
		}
		if m.cfg.wedgeAfter > 0 && waited >= m.cfg.wedgeAfter {
			blocked.Waited = waited
			m.wedges++
			m.telWedges.Inc()
			// Restart the stall clock: a wait-and-retry caller's next
			// Next waits a fresh bound before diagnosing again.
			m.stallStart = now
			return nil, blocked
		}
		m.waitLocked(bound - waited)
	}
}

// TraceName reports the trace's name as announced by its home shard's
// stream, available from the first emitted event of that trace on.
func (m *MergedClient) TraceName(t event.TraceID) (string, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	name, ok := m.names[t]
	return name, ok
}

// Emitted returns how many events the merged stream has produced.
func (m *MergedClient) Emitted() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.total
}

// MergeStats returns the merge's robustness accounting.
func (m *MergedClient) MergeStats() MergeStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := MergeStats{
		Emitted:    m.total,
		Incomplete: m.incomplete,
		Wedges:     m.wedges,
		ShardsLost: m.shardsLost,
	}
	for i, l := range m.lost {
		if l {
			st.Lost = append(st.Lost, i)
		}
	}
	return st
}

// Close tears the merge down: pumps unpark and exit, a pending Next
// returns io.EOF, and any underlying stream that is an io.Closer is
// closed (so MonitorClient pumps blocked in Next unblock too).
func (m *MergedClient) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	m.cond.Broadcast()
	m.mu.Unlock()
	var first error
	for _, s := range m.streams {
		if c, ok := s.(io.Closer); ok {
			if err := c.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// DialMergedMonitor dials every shard of a tier spec ("pool0;pool1;…",
// each pool comma-separated, in shard-ID order) as a monitor client and
// returns the merged stream. mopts configure the merge (wedge bound,
// degradation, telemetry); opts apply to every per-shard client.
func DialMergedMonitor(spec string, mopts []MergeOption, opts ...poet.MonitorOption) (*MergedClient, error) {
	pools := SplitSpec(spec)
	if len(pools) == 0 {
		return nil, fmt.Errorf("shard: empty tier spec %q", spec)
	}
	streams := make([]Stream, len(pools))
	for i, p := range pools {
		c, err := poet.DialMonitor(p, opts...)
		if err != nil {
			for j := 0; j < i; j++ {
				_ = streams[j].(io.Closer).Close()
			}
			return nil, fmt.Errorf("shard %d (%s): %w", i, p, err)
		}
		streams[i] = c
	}
	return NewMergedClient(streams, mopts...)
}
