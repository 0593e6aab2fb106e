// Package ocep is an online causal-event-pattern-matching framework for
// distributed applications, a Go implementation of the system described
// in "Towards an Efficient Online Causal-Event-Pattern-Matching
// Framework" (Pramanik, Taylor, Wong — ICDCS 2013).
//
// Instrumented traces (processes, threads, semaphores) report raw events
// to a POET-style collector, which reconstructs the causal partial order,
// assigns vector timestamps, and streams events to monitors in a
// linearization of that order. A Monitor matches a causal event pattern —
// classes of events composed with happens-before (->), concurrency (||),
// communication link (~), limited precedence (lim->) and entanglement
// (<->) operators, with variable binding — and reports, online and with
// bounded stored state, a representative subset of the matches: for every
// (event class, trace) pair occurring in some complete match, at least
// one reported match contains that pair.
//
// # Quick start
//
//	collector := ocep.NewCollector()
//	mon, err := ocep.NewMonitor(`
//	    A := [*, request, *];
//	    B := [*, response, *];
//	    pattern := A -> B;
//	`, ocep.WithMatchHandler(func(m ocep.Match) {
//	    fmt.Println("matched:", m.Events)
//	}))
//	// handle err
//	mon.Attach(collector)
//	// ... report events to the collector from instrumented code ...
//
// The cmd/ directory provides a standalone collector daemon (poetd), an
// online monitor (ocepmon), a pattern checker (patternc), and the full
// evaluation harness reproducing the paper's figures (ocepbench).
package ocep

import (
	"fmt"
	"io"
	"sync"
	"time"

	"ocep/internal/core"
	"ocep/internal/event"
	"ocep/internal/pattern"
	"ocep/internal/poet"
	"ocep/internal/telemetry"
	"ocep/internal/vclock"
)

// Re-exported event model types. They alias the internal implementation
// so values flow between the public API and the toolkit packages.
type (
	// Event is a primitive event: a stamped state transition on a trace.
	Event = event.Event
	// EventID identifies an event by trace and position.
	EventID = event.ID
	// TraceID numbers a trace.
	TraceID = event.TraceID
	// Kind classifies an event's communication role.
	Kind = event.Kind
	// Stamp is the Fidge/Mattern vector timestamp Event.VC holds.
	Stamp = vclock.Stamp
	// VC is a dense vector timestamp; VC.Stamp makes an event's Stamp.
	VC = vclock.VC
	// RawEvent is an unstamped instrumented event as reported by targets.
	RawEvent = poet.RawEvent
	// Collector ingests raw events and delivers stamped events in a
	// linearization of the causal partial order.
	Collector = poet.Collector
	// Server exposes a Collector over TCP.
	Server = poet.Server
	// Match is one reported pattern match.
	Match = core.Match
	// MatcherStats are cumulative matcher counters.
	MatcherStats = core.Stats
	// DispatchStats are a MonitorSet's shared class-index dispatcher
	// counters; see MonitorSet.DispatchStats.
	DispatchStats = core.DispatchStats
	// DeliveryStats are one async monitor's delivery counters.
	DeliveryStats = poet.DeliveryStats
	// Reporter streams raw events to a POET server with acknowledged,
	// exactly-once ingestion and automatic reconnection.
	Reporter = poet.Reporter
	// MonitorClient receives the linearized stream from a POET server,
	// resuming its session across connection failures.
	MonitorClient = poet.MonitorClient
	// EventSource is any linearized stream Monitor.Run can drain: a
	// MonitorClient, or a sharded tier's MergedClient.
	EventSource = poet.EventSource
	// SessionOption configures DialReporter and DialMonitor.
	SessionOption = poet.SessionOption
	// ReporterStats are a reporter's cumulative wire counters.
	ReporterStats = poet.ReporterStats
	// MonitorClientStats are a monitor client's cumulative wire counters.
	MonitorClientStats = poet.MonitorClientStats
	// WireStats are a server's cumulative fault-tolerance counters.
	WireStats = poet.WireStats
	// Durability write-ahead-logs a collector's ingestion; see
	// OpenDurable.
	Durability = poet.Durability
	// DurableOptions configures OpenDurable.
	DurableOptions = poet.DurableOptions
	// RecoveryStats describes what startup recovery found and rebuilt.
	RecoveryStats = poet.RecoveryStats
	// SyncPolicy selects when the write-ahead log is fsynced.
	SyncPolicy = poet.SyncPolicy
	// RetentionStats summarize the effect of Collector.SetRetention.
	RetentionStats = poet.RetentionStats
)

// Re-exported telemetry types. A Registry collects named metrics from
// every layer of the pipeline and renders them as Prometheus text
// (Registry.WritePrometheus) or expvar-style JSON (Registry.WriteJSON).
// Wire one registry through the components of a deployment:
//
//	reg := ocep.NewRegistry()
//	collector.InstrumentMetrics(reg)   // ingest, WAL, delivery
//	server.InstrumentMetrics(reg)      // wire protocol counters
//	mon, _ := ocep.NewMonitor(src, ocep.WithMetrics(reg), ...)
//
// Instrument at wiring time, before traffic flows: batch subscriptions
// snapshot their instruments when a monitor attaches.
type (
	// Registry holds named metrics and renders them. A nil *Registry is
	// the disabled mode: constructors return nil instruments whose
	// methods no-op, so instrumented code costs only nil checks.
	Registry = telemetry.Registry
	// MetricCounter is a monotonically increasing counter. Its
	// WaitAtLeast method lets tests block on pipeline progress instead
	// of sleep-polling.
	MetricCounter = telemetry.Counter
	// MetricGauge is a value that can go up and down.
	MetricGauge = telemetry.Gauge
	// MetricHistogram is a bounded log-linear histogram of int64
	// observations (≤25% relative bucket error, lock-free writes).
	MetricHistogram = telemetry.Histogram
	// MetricLabel is one key=value pair distinguishing series within a
	// metric family.
	MetricLabel = telemetry.Label
	// Health aggregates named readiness checks into /healthz + /readyz
	// probe handlers (poetd mounts one on its metrics listener).
	Health = telemetry.Health
)

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry { return telemetry.NewRegistry() }

// NewHealth returns an empty health-probe aggregator.
func NewHealth() *Health { return telemetry.NewHealth() }

// ErrStreamInterrupted is wrapped by MonitorClient.Next when the event
// stream dies mid-flight and cannot be resumed; a clean end of stream
// is always io.EOF instead.
var ErrStreamInterrupted = poet.ErrStreamInterrupted

// ErrSessionRejected is wrapped by client errors when the server refuses
// a session outright (e.g. a resume offset beyond the server's stream,
// after a crash recovery lost a suffix); the client reconnect loops
// treat it as terminal rather than retrying a permanent refusal.
var ErrSessionRejected = poet.ErrSessionRejected

// ErrOverloaded is wrapped by Collector.Report when admission control
// (Collector.SetAdmissionLimit) refuses an event; the TCP server sheds
// the load back onto the reporter's buffer instead of surfacing it.
var ErrOverloaded = poet.ErrOverloaded

// WAL fsync policies for DurableOptions.Fsync.
const (
	// SyncAlways fsyncs before an append commits: an acknowledged event
	// is never lost to a crash.
	SyncAlways = poet.SyncAlways
	// SyncInterval fsyncs on a timer: bounded loss, near-zero overhead.
	SyncInterval = poet.SyncInterval
	// SyncNone leaves durability to the OS page cache.
	SyncNone = poet.SyncNone
)

// OpenDurable opens (or creates) a data directory, recovers its
// write-ahead log into c, and attaches write-ahead logging to c's
// ingestion, making the collector crash-durable. Close the returned
// Durability on shutdown to sync and close the log.
func OpenDurable(c *Collector, opts DurableOptions) (*Durability, error) {
	return poet.OpenDurable(c, opts)
}

// ParseSyncPolicy parses "always", "interval", or "none".
func ParseSyncPolicy(s string) (SyncPolicy, error) { return poet.ParseSyncPolicy(s) }

// Event kinds.
const (
	KindInternal    = event.KindInternal
	KindSend        = event.KindSend
	KindReceive     = event.KindReceive
	KindSyncAcquire = event.KindSyncAcquire
	KindSyncRelease = event.KindSyncRelease
)

// NewCollector returns an empty collector.
func NewCollector() *Collector { return poet.NewCollector() }

// NewServer wraps a collector for TCP serving; see Server.Listen.
func NewServer(c *Collector, logf func(string, ...any)) *Server {
	return poet.NewServer(c, logf)
}

// DialReporter connects to a POET server as an instrumented target.
// Reports are buffered locally until the server acknowledges ingestion;
// a dead connection is redialed with exponential backoff and the
// unacknowledged suffix retransmitted, which the server absorbs
// idempotently — exactly-once ingestion across failures. See
// WithSessionReconnect, WithSessionBackoff, WithSessionHeartbeat,
// WithSessionLog and WithReporterBuffer.
func DialReporter(addr string, opts ...SessionOption) (*Reporter, error) {
	return poet.DialReporter(addr, opts...)
}

// DialMonitor connects to a POET server as a monitor client. When the
// connection dies mid-stream the client reconnects with backoff and
// resumes from the exact event index it had reached, keeping the
// observed stream gap- and duplicate-free. It takes the same options as
// DialReporter: WithSessionHeartbeat sets how long Next waits for a
// frame (five heartbeats) before declaring the server dead.
func DialMonitor(addr string, opts ...SessionOption) (*MonitorClient, error) {
	return poet.DialMonitor(addr, opts...)
}

// Wire-client options, re-exported for callers of DialReporter and
// DialMonitor.
var (
	// WithSessionReconnect bounds the cumulative backoff spent redialing
	// per outage (0: no redial after the first dial).
	WithSessionReconnect = poet.WithSessionReconnect
	// WithSessionBackoff overrides the reconnect backoff schedule.
	WithSessionBackoff = poet.WithSessionBackoff
	// WithSessionHeartbeat sets the keep-alive cadence and the dead-peer
	// timeout (five heartbeats).
	WithSessionHeartbeat = poet.WithSessionHeartbeat
	// WithSessionLog routes redial diagnostics to a log function.
	WithSessionLog = poet.WithSessionLog
	// WithReporterBuffer bounds a reporter's unacknowledged window.
	WithReporterBuffer = poet.WithReporterBuffer
)

// Option configures a Monitor.
type Option func(*config)

type config struct {
	opts       core.Options
	onMatch    func(Match)
	measure    bool
	async      bool
	queueDepth int
	maxBatch   int
	reg        *Registry
	labels     []MetricLabel
}

// monitorMetrics holds the monitor's real instruments. All fields are
// nil when WithMetrics was not given; the nil receivers no-op.
type monitorMetrics struct {
	// events counts events consumed by the matcher
	// (ocep_monitor_events_total) — the counter tests wait on to know
	// the monitor has caught up with a delivered stream.
	events *telemetry.Counter
	// matches counts reported matches (ocep_monitor_matches_total).
	matches *telemetry.Counter
	// domains records per-trace candidate-domain sizes after causal
	// pruning (ocep_monitor_domain_size); its count equals the
	// matcher's DomainsComputed.
	domains *telemetry.Histogram
}

// WithMatchHandler invokes fn for every reported match. The handler runs
// outside the monitor's own lock, so it may call the monitor's read
// methods (Stats, Coverage, Explain, Timings, Err). Under synchronous
// Attach it still runs on the collector's delivery path and must not
// call back into the Collector; under WithAsyncDelivery it runs on the
// monitor's delivery goroutine and may use the collector freely.
func WithMatchHandler(fn func(Match)) Option {
	return func(c *config) { c.onMatch = fn }
}

// WithAsyncDelivery decouples this monitor from the collector's delivery
// path: Attach registers a cursor over the collector's delivery log read
// by a dedicated goroutine, so one slow pattern no longer stalls
// ingestion or its sibling monitors. The monitor observes the same
// linearization as a synchronous attachment and matches on a private
// store of shallow event copies, made on that goroutine (timestamps stay
// shared with the collector). Use Flush to wait for it before reading
// end-state results, and Detach to stop the delivery goroutine.
func WithAsyncDelivery() Option {
	return func(c *config) { c.async = true }
}

// WithQueueDepth bounds the async monitor's lag behind the delivery head
// (default poet.DefaultQueueDepth). Only meaningful with WithAsyncDelivery.
func WithQueueDepth(n int) Option {
	return func(c *config) { c.queueDepth = n }
}

// WithMaxBatch caps the events fed to the matcher per batch cut (default
// poet.DefaultMaxBatch). Only meaningful with WithAsyncDelivery.
func WithMaxBatch(n int) Option {
	return func(c *config) { c.maxBatch = n }
}

// WithReportAll switches to exhaustive per-trigger enumeration and
// reports every complete match (testing/small runs; the volume can be
// combinatorial).
func WithReportAll() Option {
	return func(c *config) { c.opts.ReportAll = true }
}

// WithRepresentativeOnly reports only matches that cover a new
// (event class, trace) pair, bounding total reports by k*n.
func WithRepresentativeOnly() Option {
	return func(c *config) { c.opts.RepresentativeOnly = true }
}

// WithGuaranteedCoverage adds pinned searches so the k*n representative
// subset guarantee is exact (see DESIGN.md).
func WithGuaranteedCoverage() Option {
	return func(c *config) { c.opts.GuaranteeCoverage = true }
}

// WithoutDuplicatePruning disables the O(1) history-pruning rule.
func WithoutDuplicatePruning() Option {
	return func(c *config) { c.opts.DisablePruning = true }
}

// WithoutBackjumping falls back to chronological backtracking.
func WithoutBackjumping() Option {
	return func(c *config) { c.opts.DisableBackjumping = true }
}

// WithoutCausalDomains disables the causality-interval domain pruning
// (ablation; results are unchanged, work grows).
func WithoutCausalDomains() Option {
	return func(c *config) { c.opts.DisableCausalDomains = true }
}

// WithStaticOrder uses the compile-time evaluation order (the paper's
// behaviour) instead of dynamic most-constrained-first ordering.
func WithStaticOrder() Option {
	return func(c *config) { c.opts.StaticOrder = true }
}

// WithTiming records the wall-clock matching time of every fed event;
// retrieve with Timings.
func WithTiming() Option {
	return func(c *config) { c.measure = true }
}

// WithMaxTriggerMatches bounds the complete matches explored per
// terminating event (safety valve; 0 = unlimited). The count spans the
// trigger's search and its WithGuaranteedCoverage pinned sweeps; the
// match that fills the cap is the last one reported, and it and the
// trigger's earlier matches carry Match.Truncated.
func WithMaxTriggerMatches(n int) Option {
	return func(c *config) { c.opts.MaxTriggerMatches = n }
}

// WithMaxTriggerSteps bounds the search work per terminating event
// (candidate instantiation attempts, shared with the
// WithGuaranteedCoverage pinned sweeps).
// An exhausted trigger aborts cleanly: its partial results are reported
// with Match.Truncated set, Stats().TriggersAborted counts it, and the
// stream continues — the triggering event still joins the histories.
// 0 = unlimited.
func WithMaxTriggerSteps(n int) Option {
	return func(c *config) { c.opts.MaxTriggerSteps = n }
}

// WithTriggerDeadline bounds the wall-clock time per terminating
// event; see WithMaxTriggerSteps for the abort semantics. The deadline
// is polled every 64 search steps, so overrun is bounded and the
// uncontended fast path stays cheap. 0 = no deadline.
func WithTriggerDeadline(d time.Duration) Option {
	return func(c *config) { c.opts.TriggerDeadline = d }
}

// WithHistoryCap bounds the per-(pattern leaf, trace) event histories:
// once every pair with any retained entry is covered by a reported
// match, histories beyond the cap are evicted down to a watermark,
// keeping long-running monitors at a flat footprint. Eviction never
// changes the coverage guarantee (evicted entries belong to
// already-covered pairs). Stats().HistoryEvicted counts evictions.
// 0 = unbounded.
//
// A synchronous monitor (Attach, or a MonitorSet member) matches on the
// collector's own store and pins every event its histories hold against
// Collector.SetRetention. Without this cap its histories keep every
// candidate event of the stream, so the collector's retention bounds
// nothing for it (TestSyncMonitorUnderRetention shows the pin).
func WithHistoryCap(n int) Option {
	return func(c *config) { c.opts.MaxHistoryPerTrace = n }
}

// WithMetrics registers the monitor's metrics (ocep_monitor_*) in reg:
// counters for events consumed and matches reported, scrape-time
// counters mirroring the matcher's search statistics (triggers,
// candidates, backtracks, backjumps), and a histogram of candidate
// domain sizes. A nil registry disables instrumentation at zero cost.
//
// The registry keys series by name, so give each monitor sharing a
// registry its own label (e.g. ocep.L("pattern", "deadlock")) to keep
// their series distinct; identically-labeled monitors would share
// counters.
func WithMetrics(reg *Registry, labels ...MetricLabel) Option {
	return func(c *config) { c.reg = reg; c.labels = labels }
}

// L is shorthand for constructing a MetricLabel.
func L(key, value string) MetricLabel { return telemetry.L(key, value) }

// Monitor matches one causal event pattern over a delivered event
// stream. Create with NewMonitor, then either Attach it to an in-process
// Collector, Run it against a TCP monitor client, or Feed it events
// directly. A Monitor is not safe for concurrent use; Attach serializes
// it behind the collector's delivery lock.
type Monitor struct {
	pat     *pattern.Compiled
	cfg     config
	tel     monitorMetrics
	mu      sync.Mutex
	matcher *core.Matcher
	timings []time.Duration
	err     error
	// sub is the live collector subscription (sync or async); nil until
	// Attach and after Detach.
	sub *poet.Subscription
	// disp is the MonitorSet dispatcher this monitor is a member of, when
	// it was attached through a shared class index rather than its own
	// subscription; nil otherwise. Detach deregisters from it.
	disp *core.Dispatcher
}

// NewMonitor parses and compiles the pattern source and builds a monitor.
func NewMonitor(source string, options ...Option) (*Monitor, error) {
	f, err := pattern.Parse(source)
	if err != nil {
		return nil, fmt.Errorf("ocep: parsing pattern: %w", err)
	}
	pat, err := pattern.Compile(f)
	if err != nil {
		return nil, fmt.Errorf("ocep: compiling pattern: %w", err)
	}
	m := &Monitor{pat: pat}
	for _, o := range options {
		o(&m.cfg)
	}
	m.instrument()
	m.matcher = core.NewMatcher(pat, m.cfg.opts)
	m.matcher.SetDomainHistogram(m.tel.domains)
	return m, nil
}

// instrument registers the monitor's series in cfg.reg (a no-op for a
// nil registry). The scrape-time counters read Stats under the monitor
// lock; they reset when the monitor is re-Attached (a new matcher).
func (m *Monitor) instrument() {
	reg, ls := m.cfg.reg, m.cfg.labels
	m.tel.events = reg.Counter("ocep_monitor_events_total",
		"Events consumed by the monitor's matcher.", ls...)
	m.tel.matches = reg.Counter("ocep_monitor_matches_total",
		"Matches reported by the monitor.", ls...)
	m.tel.domains = reg.Histogram("ocep_monitor_domain_size",
		"Per-trace candidate domain sizes after causal-interval pruning.", ls...)
	reg.CounterFunc("ocep_monitor_triggers_total",
		"Terminating events that started a search.",
		func() int64 { return int64(m.Stats().Triggers) }, ls...)
	reg.CounterFunc("ocep_monitor_candidates_total",
		"Candidate instantiations tried by the search.",
		func() int64 { return int64(m.Stats().CandidatesTried) }, ls...)
	reg.CounterFunc("ocep_monitor_backtracks_total",
		"Candidate instantiations whose subtree found no complete match.",
		func() int64 { return int64(m.Stats().Backtracks) }, ls...)
	reg.CounterFunc("ocep_monitor_backjumps_total",
		"Conflict-directed cutoffs taken by the search.",
		func() int64 { return int64(m.Stats().Backjumps) }, ls...)
	reg.CounterFunc("ocep_monitor_triggers_aborted_total",
		"Triggers aborted by the search budget (WithMaxTriggerSteps / WithTriggerDeadline / WithMaxTriggerMatches).",
		func() int64 { return int64(m.Stats().TriggersAborted) }, ls...)
	reg.CounterFunc("ocep_monitor_history_evicted_total",
		"History entries evicted by the WithHistoryCap retention watermark.",
		func() int64 { return int64(m.Stats().HistoryEvicted) }, ls...)
}

// PatternLength returns the number of primitive events in the pattern
// (the k of the k*n subset bound).
func (m *Monitor) PatternLength() int { return m.pat.K() }

// RegisterTrace pre-registers a trace name (class process attributes
// match trace names). Only needed when feeding events directly.
func (m *Monitor) RegisterTrace(name string) TraceID {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.matcher.RegisterTrace(name)
}

// Feed consumes the next event of a linearized delivery stream and
// returns the newly reported matches.
func (m *Monitor) Feed(e *Event) ([]Match, error) {
	m.mu.Lock()
	matches, err := m.feedLocked(e)
	m.mu.Unlock()
	if err != nil {
		return nil, err
	}
	m.emit(matches)
	return matches, nil
}

// feedLocked advances the matcher. Match callbacks are NOT invoked here:
// callers emit after releasing m.mu, so WithMatchHandler callbacks can
// safely call the monitor's read methods.
func (m *Monitor) feedLocked(e *Event) ([]Match, error) {
	var start time.Time
	if m.cfg.measure {
		start = time.Now()
	}
	matches, err := m.matcher.Feed(e)
	if m.cfg.measure {
		m.timings = append(m.timings, time.Since(start))
	}
	// Matches before the event: a reader that sees the event counted
	// sees its matches counted too.
	m.tel.matches.Add(int64(len(matches)))
	m.tel.events.Inc()
	return matches, err
}

// emit invokes the match callback outside the monitor lock.
func (m *Monitor) emit(matches []Match) {
	if m.cfg.onMatch == nil {
		return
	}
	for _, match := range matches {
		m.cfg.onMatch(match)
	}
}

// Attach subscribes the monitor to an in-process collector: every event
// the collector delivers (past and future) is fed to the matcher.
//
// By default the feed is synchronous, on the collector's delivery path,
// and the monitor shares the collector's store (no second copy of any
// vector timestamp); under SetRetention the collector keeps the events
// the monitor still holds as candidates. With WithAsyncDelivery the monitor instead reads a
// cursor over the delivery log on its own goroutine, matching over a
// private store of event copies; see Flush, Detach and DeliveryStats.
// Check Err after the run in both modes.
//
// Attaching an already-attached monitor detaches it first: the previous
// subscription is cancelled (an async cursor is drained and its delivery
// goroutine stopped), and the matcher and any recorded Err are reset
// before the new replay begins.
func (m *Monitor) Attach(c *Collector) {
	m.Detach()
	m.mu.Lock()
	m.err = nil
	m.mu.Unlock()
	if m.cfg.async {
		m.attachAsync(c)
		return
	}
	m.mu.Lock()
	mat := core.NewMatcherOn(m.pat, c.Store(), m.cfg.opts)
	mat.SetDomainHistogram(m.tel.domains)
	m.matcher = mat
	m.mu.Unlock()
	sub := c.SubscribeReplayPinned(func(e *Event) {
		m.mu.Lock()
		matches, err := m.feedLocked(e)
		if err != nil && m.err == nil {
			m.err = err
		}
		m.mu.Unlock()
		m.emit(matches)
	}, func(t TraceID) int {
		m.mu.Lock()
		defer m.mu.Unlock()
		return mat.HistoryFloor(t)
	})
	m.mu.Lock()
	m.sub = sub
	m.mu.Unlock()
}

// sharedDispatchEligible reports whether the monitor can be served by a
// MonitorSet's shared class-indexed dispatcher. Excluded: async members
// (they own a private store and cursor), WithTiming (per-event wall
// clock must cover every event, not just dispatched ones), WithMetrics
// (ocep_monitor_events_total counts per-monitor feeds, which dispatch
// deliberately avoids).
func (m *Monitor) sharedDispatchEligible() bool {
	return !m.cfg.async && !m.cfg.measure && m.cfg.reg == nil
}

// joinDispatcher rebuilds the matcher on the collector's store and
// registers it with the set's shared dispatcher. The dispatcher's feed
// callback replicates the synchronous Attach path (feed under the
// monitor lock, emit outside it); the caller subscribes the dispatcher
// to the collector afterwards, so the replay reaches every member.
func (m *Monitor) joinDispatcher(d *core.Dispatcher, c *Collector) {
	m.Detach()
	m.mu.Lock()
	m.err = nil
	m.matcher = core.NewMatcherOn(m.pat, c.Store(), m.cfg.opts)
	m.matcher.SetDomainHistogram(m.tel.domains)
	m.disp = d
	mat := m.matcher
	m.mu.Unlock()
	d.Add(mat, func(e *Event, commAt int) {
		m.mu.Lock()
		matches := mat.FeedDispatched(e, commAt)
		m.mu.Unlock()
		m.emit(matches)
	})
}

// recordErr records the first subscription error (shared-dispatch
// members all observe a dispatcher stream error).
func (m *Monitor) recordErr(err error) {
	m.mu.Lock()
	if m.err == nil {
		m.err = err
	}
	m.mu.Unlock()
}

// attachAsync registers the monitor's batch subscription. Its matcher
// owns a store, which back-patches send partners, so it is fed copies;
// trace announcements make it mirror the collector's trace numbering.
func (m *Monitor) attachAsync(c *Collector) {
	m.mu.Lock()
	m.matcher = core.NewMatcher(m.pat, m.cfg.opts)
	m.matcher.SetDomainHistogram(m.tel.domains)
	m.mu.Unlock()
	slab, copies := new(event.Slab), []*Event(nil)
	opts := poet.AsyncOptions{
		QueueDepth: m.cfg.queueDepth,
		MaxBatch:   m.cfg.maxBatch,
		OnTrace: func(t TraceID, name string) {
			m.mu.Lock()
			m.matcher.NameTrace(t, name)
			m.mu.Unlock()
		},
	}
	sub := c.SubscribeBatchReplay(func(batch []*Event) {
		copies = poet.CopyBatch(copies[:0], batch, slab)
		batch = copies
		m.mu.Lock()
		var matches []Match
		var err error
		if m.cfg.measure {
			// WithTiming wants per-event wall-clock times: fall back to
			// the per-event path inside the batch.
			for _, e := range batch {
				var ms []Match
				if ms, err = m.feedLocked(e); err != nil {
					break
				}
				matches = append(matches, ms...)
			}
		} else {
			matches, err = m.matcher.FeedBatch(batch)
			m.tel.matches.Add(int64(len(matches)))
			m.tel.events.Add(int64(len(batch)))
		}
		if err != nil && m.err == nil {
			m.err = err
		}
		m.mu.Unlock()
		m.emit(matches)
	}, opts)
	m.mu.Lock()
	m.sub = sub
	m.mu.Unlock()
}

// Flush blocks until the monitor has consumed every event the collector
// delivered before the call — the drain protocol that gives tests and
// daemons a deterministic end state. A no-op for synchronous
// attachments (they are always drained) and unattached monitors. Must
// not be called from a WithMatchHandler callback.
func (m *Monitor) Flush() {
	m.mu.Lock()
	sub := m.sub
	m.mu.Unlock()
	if sub != nil {
		sub.Flush()
	}
}

// Detach cancels the collector subscription. For an async attachment the
// cursor is drained and the delivery goroutine stopped before Detach
// returns; a shared-dispatch member is deregistered from the set's
// dispatcher (dropping its class-index entries). Safe to call more than
// once.
func (m *Monitor) Detach() {
	m.mu.Lock()
	sub := m.sub
	m.sub = nil
	d := m.disp
	m.disp = nil
	mat := m.matcher
	m.mu.Unlock()
	if sub != nil {
		sub.Cancel()
	}
	if d != nil {
		d.Remove(mat)
	}
}

// DeliveryStats returns the async delivery counters: events enqueued
// and handled, batches cut, and the current and peak lag. Zero for
// synchronous or unattached monitors.
func (m *Monitor) DeliveryStats() DeliveryStats {
	m.mu.Lock()
	sub := m.sub
	m.mu.Unlock()
	if sub == nil {
		return DeliveryStats{}
	}
	return sub.Stats()
}

// Run drains a linearized event source — a TCP monitor client, or the
// merged stream of a sharded tier — until it ends, feeding every event.
// It returns the first feed or transport error, or nil on a clean end
// of stream.
func (m *Monitor) Run(client poet.EventSource) error {
	for {
		e, err := client.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		m.mu.Lock()
		if name, ok := client.TraceName(e.ID.Trace); ok {
			// NameTrace, not RegisterTrace: the event carries the
			// collector's trace ID, which must be mirrored even when
			// traces are first seen out of ID order.
			m.matcher.NameTrace(e.ID.Trace, name)
		}
		matches, err := m.feedLocked(e)
		m.mu.Unlock()
		if err != nil {
			return err
		}
		m.emit(matches)
	}
}

// Err returns the first error recorded by an Attach subscription.
func (m *Monitor) Err() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.err
}

// Stats returns the matcher's cumulative counters.
func (m *Monitor) Stats() MatcherStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.matcher.Stats()
}

// CoveredPair is one (event class, trace) pair of the representative
// subset.
type CoveredPair = core.CoveredPair

// Coverage returns the representative subset's footprint: the (pattern
// leaf, trace) pairs witnessed by reported matches so far.
func (m *Monitor) Coverage() []CoveredPair {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.matcher.Coverage()
}

// Explain renders a human-readable account of why a reported match
// holds: leaf bindings, pairwise constraints with vector-timestamp
// evidence, and compound-constraint witnesses. It takes no lock (the
// pattern is immutable and the store append-only) so it is safe to call
// from a WithMatchHandler callback; do not call it concurrently with
// Attach.
func (m *Monitor) Explain(match Match) string {
	return core.ExplainMatch(m.pat, match, m.matcher.Store().TraceName)
}

// Timings returns the recorded per-event matching times (WithTiming).
func (m *Monitor) Timings() []time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]time.Duration, len(m.timings))
	copy(out, m.timings)
	return out
}

// CheckPattern parses and compiles a pattern source, returning a
// human-readable summary of the compiled form (classes, leaves,
// constraints, terminating events) — the functionality of cmd/patternc.
func CheckPattern(source string) (string, error) {
	f, err := pattern.Parse(source)
	if err != nil {
		return "", err
	}
	pat, err := pattern.Compile(f)
	if err != nil {
		return "", err
	}
	return pattern.Describe(pat), nil
}
