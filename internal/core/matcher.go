package core

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
	"time"

	"ocep/internal/event"
	"ocep/internal/pattern"
	"ocep/internal/telemetry"
)

// Options tunes the matcher. The zero value is the configuration
// evaluated in the paper: duplicate pruning on, causality-driven domain
// restriction on, backjumping on, representative-subset reporting.
type Options struct {
	// DisablePruning turns off the O(1) duplicate rule on leaf
	// histories (Section V-D). Pruning is also disabled automatically
	// when the pattern uses lim->, whose completion check needs the
	// full class history.
	DisablePruning bool
	// DisableBackjumping falls back to chronological backtracking
	// (the "very basic implementation" of Section IV-C).
	DisableBackjumping bool
	// DisableCausalDomains skips the Figure 4 interval restriction and
	// instead checks the causal constraints per candidate. Matches are
	// unchanged; only the searched volume grows. Ablation only.
	DisableCausalDomains bool
	// ReportAll switches the per-trigger search to exhaustive
	// enumeration and reports every complete match (instead of the
	// paper's one-match-per-trace-per-level enumeration). Intended for
	// tests and small runs; the volume can be combinatorial.
	ReportAll bool
	// RepresentativeOnly suppresses any complete match that covers no
	// new (leaf, trace) pair, so the total number of reported matches
	// over the whole run is bounded by k*n (the stored-subset bound of
	// Section IV-B applied to reporting). By default every match the
	// per-trigger enumeration finds is reported, which is how the
	// paper's Figure 3 presents per-arrival results.
	RepresentativeOnly bool
	// MaxTriggerMatches aborts a single trigger's search after this
	// many complete matches (0 = unlimited). A safety valve for
	// adversarial inputs. The count spans the trigger's main search and
	// its GuaranteeCoverage pinned sweeps. A trigger aborted by the cap
	// counts in Stats.TriggersAborted and its matches carry
	// Match.Truncated.
	MaxTriggerMatches int
	// MaxTriggerSteps bounds the searched volume of a single trigger:
	// the search aborts cleanly after this many goForward candidate
	// steps (0 = unlimited). The triggering event is still appended to
	// the histories, so the stream stays consistent; the abort is
	// surfaced via Stats.TriggersAborted and Match.Truncated. The
	// trigger's main search and its GuaranteeCoverage pinned sweeps
	// draw on one count, so the ceiling bounds the trigger's total work.
	MaxTriggerSteps int
	// TriggerDeadline bounds the wall-clock time of a single trigger's
	// search (0 = unlimited). The deadline is polled every 64 steps of
	// the step counter, so an exhausted trigger overruns it by at most
	// a few microseconds of candidate work. Same surfacing and
	// sharing with the pinned sweeps as MaxTriggerSteps.
	TriggerDeadline time.Duration
	// MaxHistoryPerTrace caps the retained entries of each (leaf,
	// trace) history (0 = unlimited). When a history exceeds the cap
	// on a trace whose (leaf, trace) pair is already covered, its
	// oldest entries are evicted down to a low watermark (3/4 of the
	// cap); pairs not yet covered retain everything, so eviction never
	// un-covers a pair and the representative-subset guarantee keeps
	// its footing. A matcher owning its store also compacts the store
	// prefix below the oldest retained entry, bounding memory end to
	// end. Eviction is disabled automatically for patterns using lim->,
	// whose completion check needs the full class history. Evictions
	// count in Stats.HistoryEvicted.
	MaxHistoryPerTrace int
	// GuaranteeCoverage runs, after the paper's per-trace enumeration,
	// one pinned search per still-uncovered (leaf, trace) pair. This
	// makes the k*n representative-subset property exact (the paper's
	// enumeration is best-effort for patterns whose constraints are
	// not monotone in candidate choice, e.g. mixed order/concurrency).
	GuaranteeCoverage bool
	// StaticOrder uses the compile-time evaluation order of the
	// pattern tree (the paper's Order attribute) instead of the dynamic
	// most-constrained-first ordering. Dynamic ordering can be orders
	// of magnitude faster on cyclic patterns because it instantiates
	// leaves whose process variable is already bound first; this flag
	// reproduces the paper's behaviour for comparison.
	StaticOrder bool
}

// Match is one reported pattern match: the matched event per pattern-tree
// leaf, and the attribute-variable bindings that witnessed it.
type Match struct {
	// Events holds the matched event for each leaf, indexed like
	// Compiled.Leaves.
	Events []*event.Event
	// Bindings is the witnessing attribute-variable environment.
	Bindings map[string]string
	// Truncated marks a match reported by a trigger whose search was
	// aborted before exhausting its space (MaxTriggerSteps,
	// TriggerDeadline or MaxTriggerMatches fired): the trigger's match
	// set may be incomplete and coverage may lag. The match itself is
	// still sound.
	Truncated bool
}

// Stats are cumulative matcher counters.
type Stats struct {
	// EventsSeen counts events fed to the matcher.
	EventsSeen int
	// EventsMatched counts events that joined at least one leaf history.
	EventsMatched int
	// Triggers counts terminating events that started a search.
	Triggers int
	// CompleteMatches counts complete matches found, reported or not.
	CompleteMatches int
	// Reported counts matches reported (covering new pairs, or all
	// matches under ReportAll).
	Reported int
	// Redundant counts complete matches suppressed as covering nothing
	// new.
	Redundant int
	// CandidatesTried counts candidate instantiations.
	CandidatesTried int
	// DomainsComputed counts per-trace domain computations.
	DomainsComputed int
	// Backtracks counts candidate instantiations whose subtree found no
	// complete match: the search undid the assignment and moved on.
	Backtracks int
	// Backjumps counts conflict-directed cutoffs — a failed subtree's
	// conflict analysis either tightened the candidate bound, pruned
	// the rest of the trace, or declared the whole level hopeless.
	// Every backjump follows one failed candidate, so Backjumps <=
	// Backtracks always holds.
	Backjumps int
	// BackjumpSkips counts candidates skipped by conflict-directed
	// backjumping.
	BackjumpSkips int
	// HistoryPruned counts events discarded by the duplicate rule.
	HistoryPruned int
	// HistorySize is the current total number of retained history
	// entries across leaves.
	HistorySize int
	// TriggersAborted counts triggers whose search was cut short by a
	// budget: MaxTriggerSteps, TriggerDeadline or MaxTriggerMatches.
	TriggersAborted int
	// HistoryEvicted counts history entries discarded by the
	// MaxHistoryPerTrace retention watermark.
	HistoryEvicted int
	// StoreCompacted counts events dropped from the owned store's
	// per-trace prefixes by retention compaction.
	StoreCompacted int
}

// Matcher is the OCEP online matcher for one compiled pattern. It owns an
// event store fed with the linearized event stream. Not safe for
// concurrent use: feed it from the single delivery goroutine.
type Matcher struct {
	pat   *pattern.Compiled
	store *event.Store
	// prog is the compiled execution form of pat.
	prog *pattern.Program
	// compiled selects the compiled execution: type-indexed event
	// dispatch, flattened constraint tables, reused search state. Always
	// set outside this package's tests; export_test.go clears it to run
	// the interpreted advance/rel/checkLim, the reference the
	// differential and fuzz suites compare the compiled execution with.
	compiled bool
	// free holds the *search values parked between searches (compiled
	// path only; see pool.go).
	free []*search
	hist []*history
	// covered[leaf][trace] marks (leaf, trace) pairs already present in
	// a reported match; the representative subset is complete when every
	// pair that occurs in some match is covered.
	covered [][]bool
	opts    Options
	prune   bool
	// evictable gates MaxHistoryPerTrace retention: like prune, it is
	// forced off for lim-> patterns, whose completion check scans the
	// full class history.
	evictable bool
	// external marks a shared store: Feed validates instead of appends.
	external bool
	// comm counts, per trace, the communication events fed so far. The
	// matcher keeps its own counters (rather than using the store's) so
	// the duplicate rule sees delivery-time counts even when the shared
	// store was populated ahead of the replay.
	comm  []int
	stats Stats
	// extSeen, when non-nil, is the owning Dispatcher's event counter;
	// extBase is its value at binding time. A dispatched matcher only
	// examines the events its trigger index selects, so EventsSeen is
	// derived from the dispatcher's count to stay path-independent.
	extSeen *atomic.Int64
	extBase int64
	// domainHist, when non-nil, records the size of every computed
	// per-trace candidate domain (after the GP/LS interval restriction
	// prunes it). Observe is lock-free, so the histogram may be read
	// while the matcher is fed.
	domainHist *telemetry.Histogram
}

// SetDomainHistogram attaches a histogram that observes the size of
// every computed candidate domain — the direct measure of how much
// search volume the causal-interval restriction leaves. Pass nil to
// detach. Set at wiring time, before feeding begins.
func (m *Matcher) SetDomainHistogram(h *telemetry.Histogram) { m.domainHist = h }

// NewMatcher builds a matcher for the compiled pattern with its own
// event store; events enter only through Feed, which appends them.
func NewMatcher(pat *pattern.Compiled, opts Options) *Matcher {
	return newMatcher(pat, event.NewStore(), false, opts)
}

// NewMatcherOn builds a matcher that shares an externally owned store
// (typically the POET collector's). Feed then expects each event to be
// appended to the store already, saving a duplicate copy of every vector
// timestamp.
func NewMatcherOn(pat *pattern.Compiled, st *event.Store, opts Options) *Matcher {
	return newMatcher(pat, st, true, opts)
}

func newMatcher(pat *pattern.Compiled, st *event.Store, external bool, opts Options) *Matcher {
	m := &Matcher{
		pat:      pat,
		store:    st,
		external: external,
		hist:     make([]*history, pat.K()),
		covered:  make([][]bool, pat.K()),
		opts:     opts,
		prune:    !opts.DisablePruning,
		compiled: true,
	}
	for i := range m.hist {
		m.hist[i] = newHistory()
	}
	m.prog = pattern.NewProgram(pat)
	// lim->'s completion check scans the class history; pruning or
	// evicting entries would make it miss intervening events.
	m.evictable = opts.MaxHistoryPerTrace > 0
	if m.prog.HasLim() {
		m.prune = false
		m.evictable = false
	}
	return m
}

// Program exposes the compiled execution form (immutable; a Dispatcher
// reads its trigger index).
func (m *Matcher) Program() *pattern.Program { return m.prog }

// Store exposes the matcher's event store (read-only use).
func (m *Matcher) Store() *event.Store { return m.store }

// Stats returns a copy of the cumulative counters.
func (m *Matcher) Stats() Stats {
	s := m.stats
	if m.extSeen != nil {
		// Dispatched: the dispatcher counts the stream; the matcher only
		// examined the events its trigger index selected.
		s.EventsSeen = m.stats.EventsSeen + int(m.extSeen.Load()-m.extBase)
	}
	s.HistorySize = 0
	s.HistoryPruned = 0
	s.HistoryEvicted = 0
	for _, h := range m.hist {
		s.HistorySize += h.size()
		s.HistoryPruned += h.pruned
		s.HistoryEvicted += h.evicted
	}
	return s
}

// Pattern returns the compiled pattern the matcher runs.
func (m *Matcher) Pattern() *pattern.Compiled { return m.pat }

// CoveredPair is one (event class, trace) pair of the representative
// subset.
type CoveredPair struct {
	// Leaf indexes Compiled.Leaves.
	Leaf int
	// Trace is the covered trace.
	Trace event.TraceID
}

// Coverage returns the (leaf, trace) pairs covered so far — the
// representative subset's footprint (Section IV-B): for each returned
// pair, some reported match contained an event of that leaf's class on
// that trace. Pairs are ordered by leaf then trace.
func (m *Matcher) Coverage() []CoveredPair {
	var out []CoveredPair
	for leaf, row := range m.covered {
		for tr, ok := range row {
			if ok {
				out = append(out, CoveredPair{Leaf: leaf, Trace: event.TraceID(tr)})
			}
		}
	}
	return out
}

// RegisterTrace forwards to the store so trace names are known before
// events arrive (class process attributes match trace names).
func (m *Matcher) RegisterTrace(name string) event.TraceID {
	return m.store.RegisterTrace(name)
}

// NameTrace records the name of a trace whose ID was assigned by the
// delivering collector. Consumers of a delivered stream (batch
// subscribers, wire clients) must use this rather than RegisterTrace:
// registration order at the consumer can differ from the collector's ID
// assignment, and the IDs carried by the events are the collector's.
func (m *Matcher) NameTrace(t event.TraceID, name string) {
	m.store.NameTrace(t, name)
}

// Feed consumes the next event of the linearized delivery stream and
// returns the matches it completes (nil most of the time). The event's
// Index must be the next position of its trace.
func (m *Matcher) Feed(e *event.Event) ([]Match, error) {
	if m.external {
		if got := m.store.Get(e.ID); got != e {
			return nil, fmt.Errorf("feed: event %s not present in the shared store", e.ID)
		}
	} else {
		if err := m.store.Append(e); err != nil {
			return nil, fmt.Errorf("feed: %w", err)
		}
		// The collector back-patches a send's Partner when its receive is
		// delivered. On a shared store that patch is visible directly; a
		// matcher owning its store (fed event copies from a batch
		// subscription or the wire) re-applies it here so the link (~)
		// relation sees both directions.
		if !e.Partner.IsZero() && (e.Kind == event.KindReceive || e.Kind == event.KindSyncAcquire) {
			if send := m.store.Get(e.Partner.ID()); send != nil {
				send.Partner = event.RefTo(e.ID)
			}
		}
	}
	m.stats.EventsSeen++
	for int(e.ID.Trace) >= len(m.comm) {
		m.comm = append(m.comm, 0)
	}
	if e.Kind.IsComm() {
		m.comm[e.ID.Trace]++
	}
	return m.advance(e, m.comm[e.ID.Trace]), nil
}

// FeedDispatched consumes one event on behalf of a Dispatcher, which has
// already validated it against the shared store and maintains the
// per-trace communication counts (commAt is the trace's count including
// e). EventsSeen is sourced from the dispatcher's event counter (see
// bindDispatcher), so Stats stays path-independent even though the
// matcher examines only the events its trigger index selects.
func (m *Matcher) FeedDispatched(e *event.Event, commAt int) []Match {
	return m.advance(e, commAt)
}

// advance runs the per-event join and trigger phase shared by Feed and
// FeedDispatched.
func (m *Matcher) advance(e *event.Event, commAt int) []Match {
	if m.compiled {
		return m.advanceCompiled(e, commAt)
	}
	traceName := m.store.TraceName(e.ID.Trace)
	joined := false
	for i, leaf := range m.pat.Leaves {
		if leaf.Class.MatchesIgnoringVars(e, traceName) {
			m.hist[i].add(e, commAt, m.prune)
			joined = true
		}
	}
	if !joined {
		m.maybeEvict(e.ID.Trace)
		return nil
	}
	m.stats.EventsMatched++
	var out []Match
	for i, leaf := range m.pat.Leaves {
		if !m.pat.Terminating[i] || !leaf.Class.MatchesIgnoringVars(e, traceName) {
			continue
		}
		out = append(out, m.trigger(i, e)...)
	}
	m.maybeEvict(e.ID.Trace)
	return out
}

// advanceCompiled is advance on the Program's trigger index: one map
// lookup bounds the candidate leaves, the variable-free prefilter runs
// only over that bitmask, and the terminating scan walks the mask of
// leaves the event actually matched. An event whose type no leaf
// accepts costs the map lookup and nothing else. Triggers fire off the
// matched mask, not the post-prune history, mirroring the interpreted
// path (a duplicate-pruned event still triggers).
func (m *Matcher) advanceCompiled(e *event.Event, commAt int) []Match {
	cand := m.prog.CandidateLeaves(e.Type)
	if cand == 0 {
		m.maybeEvict(e.ID.Trace)
		return nil
	}
	traceName := m.store.TraceName(e.ID.Trace)
	var matched pattern.LeafMask
	for rest := cand; rest != 0; rest &= rest - 1 {
		i := bits.TrailingZeros64(uint64(rest))
		if m.prog.LeafMatchesIgnoringVars(i, e.Type, e.Text, traceName) {
			m.hist[i].add(e, commAt, m.prune)
			matched |= pattern.LeafMask(1) << uint(i)
		}
	}
	if matched == 0 {
		m.maybeEvict(e.ID.Trace)
		return nil
	}
	m.stats.EventsMatched++
	var out []Match
	for rest := matched & m.prog.TermMask(); rest != 0; rest &= rest - 1 {
		out = append(out, m.trigger(bits.TrailingZeros64(uint64(rest)), e)...)
	}
	m.maybeEvict(e.ID.Trace)
	return out
}

// bindDispatcher hands the matcher the dispatcher's event counter so
// EventsSeen covers the whole dispatched stream.
func (m *Matcher) bindDispatcher(seen *atomic.Int64) {
	m.extSeen = seen
	m.extBase = seen.Load()
}

// unbindDispatcher freezes the dispatcher-derived EventsSeen into the
// matcher's own counter (so a later solo Feed keeps counting from it).
func (m *Matcher) unbindDispatcher() {
	if m.extSeen == nil {
		return
	}
	m.stats.EventsSeen += int(m.extSeen.Load() - m.extBase)
	m.extSeen = nil
	m.extBase = 0
}

// maybeEvict enforces Options.MaxHistoryPerTrace on the trace that just
// grew. Eviction is coverage-aware at two levels: it only fires at all
// once every (leaf, trace) pair holding at least one entry is covered
// (the representative subset is saturated — no pinned search is still
// hunting for a witness among the old entries), and it then sheds only
// the oldest entries of the over-cap histories, down to a low watermark
// of 3/4 cap so the copy cost is amortized. Until saturation the
// histories retain everything, so a pair is never un-covered and a
// coverable pair is never starved of its witness candidates. A matcher
// that owns its store then compacts the store prefix no retained
// history entry can reach, which keeps every GP/LS interval endpoint
// exact for the candidates that still exist (see docs/ARCHITECTURE.md,
// "Resource governance").
func (m *Matcher) maybeEvict(trace event.TraceID) {
	if !m.evictable {
		return
	}
	capN := m.opts.MaxHistoryPerTrace
	t := int(trace)
	over := false
	for _, h := range m.hist {
		if len(h.entries(t)) > capN {
			over = true
			break
		}
	}
	if over && m.saturated() {
		low := capN - capN/4
		if low < 1 {
			low = 1
		}
		for _, h := range m.hist {
			if len(h.entries(t)) > capN {
				h.evictOldest(t, low)
			}
		}
	}
	if !m.external {
		m.compactStore(trace)
	}
}

// saturated reports whether every (leaf, trace) pair with at least one
// retained history entry is covered. O(k*n), paid only while some
// history is over its cap.
func (m *Matcher) saturated() bool {
	for i, h := range m.hist {
		for t := 0; t < h.numTraces(); t++ {
			if len(h.entries(t)) > 0 && !m.isCovered(i, event.TraceID(t)) {
				return false
			}
		}
	}
	return true
}

// compactStore drops the owned store's prefix of the trace below the
// oldest entry any leaf history still retains there. Dropped events can
// no longer be candidates (they are in no history), and the store's
// least-successor query stays exact for every surviving candidate: LS
// over a compacted trace returns max(true LS, first retained index),
// and the first retained index is by construction <= every retained
// candidate's index. Shared (external) stores are never compacted — the
// collector owns their retention, which HistoryFloor pins.
func (m *Matcher) compactStore(trace event.TraceID) {
	keepFrom := min(m.store.Len(trace)+1, m.HistoryFloor(trace))
	// Compacting copies the retained suffix; only pay that once a
	// meaningful prefix has accumulated.
	const minChunk = 256
	if keepFrom-1-m.store.CompactedBefore(trace) < minChunk {
		return
	}
	m.stats.StoreCompacted += m.store.CompactTrace(trace, keepFrom)
}

// HistoryFloor returns the lowest position on trace t that a leaf
// history retains, or math.MaxInt when none retains one: the store's
// events of t below it are no candidate's, and a store the matcher
// shares may release them.
func (m *Matcher) HistoryFloor(t event.TraceID) int {
	floor := math.MaxInt
	for _, h := range m.hist {
		if first := h.firstIndex(int(t)); first > 0 {
			floor = min(floor, first)
		}
	}
	return floor
}

// FeedBatch advances the matcher over one cut batch of the linearized
// stream, returning the matches completed by any event of the batch in
// delivery order. It is the delivery pipeline's entry point: a batch
// subscription hands the matcher whole batches so per-event handoff
// overhead is paid once per cut. On error the matches completed before
// the failing event are returned alongside it.
func (m *Matcher) FeedBatch(events []*event.Event) ([]Match, error) {
	var out []Match
	for _, e := range events {
		matches, err := m.Feed(e)
		out = append(out, matches...)
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// isCovered reports whether the (leaf, trace) pair is covered.
func (m *Matcher) isCovered(leaf int, trace event.TraceID) bool {
	row := m.covered[leaf]
	return int(trace) < len(row) && row[trace]
}

// cover marks the pair and reports whether it was new.
func (m *Matcher) cover(leaf int, trace event.TraceID) bool {
	for int(trace) >= len(m.covered[leaf]) {
		m.covered[leaf] = append(m.covered[leaf], false)
	}
	if m.covered[leaf][trace] {
		return false
	}
	m.covered[leaf][trace] = true
	return true
}

// search carries the per-trigger state of the backtracking run.
type search struct {
	m *Matcher
	// levelLeaf[li] is the leaf placed at backtracking level li. Level
	// 0 is the trigger; later levels are chosen dynamically (see
	// chooseLeaf), so positions are stable along one search path.
	levelLeaf []int
	// staticOrder, when non-nil, fixes the evaluation order
	// (Options.StaticOrder).
	staticOrder []int
	assigned    []*event.Event
	env         *pattern.Env
	// confl[li] is the conflict buffer of backtracking level li: place(li)
	// truncates it on entry, appends the level's empty-domain causes and
	// hands it out as placeResult.conflicts. Ownership rule: confl[li] is
	// rewritten only when place(li) is re-entered, and every reader of a
	// placeResult — the candidate loop one level up, and the loops above
	// it that a hopeless outcome is passed through — finishes its conflict
	// analysis before it places another candidate, which is the only way
	// back into place(li). So no buffer is read after it is reused.
	confl   [][]conflict
	matches []Match
	// bud is the trigger's resource budget (nil = unlimited). The main
	// search and its pinned sweeps hold the same instance.
	bud *budget
	// pinned search mode (GuaranteeCoverage): pinLeaf must be matched
	// on pinTrace, and the search stops at the first complete match.
	pinLeaf   int // -1 when not pinned
	pinTrace  event.TraceID
	stopFirst bool
}

// rel returns the relation between leaves i and j from i's perspective:
// the Program's flattened table on the compiled path (one multiply-add,
// contiguous memory), the Rel matrix on the interpreted oracle path.
func (s *search) rel(i, j int) pattern.Rel {
	if s.m.compiled {
		return s.m.prog.Rel(i, j)
	}
	return s.m.pat.Rel[i][j]
}

// placeResult reports the outcome of placing one level (and everything
// below it).
type placeResult struct {
	// matched is true when at least one complete match was found.
	matched bool
	// valid is true when the failure is entirely explained by the
	// returned conflicts, each of which holds while its cause level's
	// event is unchanged. Only meaningful when !matched.
	valid bool
	// conflicts are the per-trace empty-domain causes. The slice is a
	// level's search.confl buffer: read it before placing anything else.
	conflicts []conflict
}

// trigger runs the search with e fixed as the match's terminating event
// at leaf index trig.
func (m *Matcher) trigger(trig int, e *event.Event) []Match {
	s := m.newSearch()
	defer m.release(s)
	s.bud = newBudget(m.opts)
	if m.opts.StaticOrder {
		s.staticOrder = m.pat.Orders[trig]
	}
	if !m.pat.Leaves[trig].Class.MatchEvent(e, m.store.TraceName(e.ID.Trace), s.env) {
		return nil
	}
	m.stats.Triggers++
	s.levelLeaf[0] = trig
	s.assigned[trig] = e
	if m.pat.K() == 1 {
		s.complete()
	} else {
		s.place(1)
	}
	if m.opts.GuaranteeCoverage {
		m.pinnedSweep(trig, e, s)
	}
	if s.bud.out() {
		// Budget exhausted (steps, deadline or match cap): the event is
		// already in the histories, so the stream stays consistent; the
		// degradation is surfaced, not silent.
		m.stats.TriggersAborted++
		for i := range s.matches {
			s.matches[i].Truncated = true
		}
	}
	return s.matches
}

// pinnedSweep runs one first-match search per uncovered (leaf, trace)
// pair, pinning the leaf to the trace, so the representative subset is
// exactly the k*n guarantee of Section IV-B.
func (m *Matcher) pinnedSweep(trig int, e *event.Event, base *search) {
	n := m.store.NumTraces()
	for leafIdx := 0; leafIdx < m.pat.K(); leafIdx++ {
		for tr := 0; tr < n; tr++ {
			if base.bud.out() {
				return // trigger budget spent: skip the remaining pairs
			}
			trace := event.TraceID(tr)
			if m.isCovered(leafIdx, trace) || m.hist[leafIdx].lastPos(tr) == 0 {
				continue
			}
			if leafIdx == trig && trace != e.ID.Trace {
				continue // the trigger leaf is fixed to e
			}
			matches, ok := m.pinnedOne(trig, e, base.bud, leafIdx, trace)
			if !ok {
				return
			}
			base.matches = append(base.matches, matches...)
		}
	}
}

// pinnedOne runs one pinned first-match search for the (leafIdx, trace)
// pair, owning a search's lifecycle so its reused state is released per
// pair. ok is false when the trigger event no longer matches its leaf
// under a fresh environment (the sweep stops entirely, as before).
func (m *Matcher) pinnedOne(trig int, e *event.Event, bud *budget, leafIdx int, trace event.TraceID) (matches []Match, ok bool) {
	s := m.newSearch()
	defer m.release(s)
	s.pinLeaf = leafIdx
	s.pinTrace = trace
	s.stopFirst = true
	s.bud = bud
	if m.opts.StaticOrder {
		s.staticOrder = m.pat.Orders[trig]
	}
	if !m.pat.Leaves[trig].Class.MatchEvent(e, m.store.TraceName(e.ID.Trace), s.env) {
		return nil, false
	}
	s.levelLeaf[0] = trig
	s.assigned[trig] = e
	if m.pat.K() == 1 {
		s.complete()
	} else {
		s.place(1)
	}
	return s.matches, true
}

// place instantiates the leaf at position li of the evaluation order
// against every trace, enumerating candidates latest-first within the
// Figure 4 causality interval, and recurses. It implements goForward
// (Algorithm 2) with the goBackward jumps (Algorithm 3, Figure 5) folded
// into the candidate loop as provably safe skips.
// chooseLeaf picks the leaf to instantiate at level li: dynamic
// most-constrained-first ordering. A leaf linked (~) to a placed event
// has a domain of exactly one event; a leaf whose process attribute is
// already resolvable is confined to one trace; otherwise prefer the leaf
// with the most constraints to placed leaves. This dynamic ordering is
// what makes the "isolate the relevant traces" behaviour of Section V-D
// hold for every trigger leaf of a cyclic pattern, not just the
// fortunate ones.
func (s *search) chooseLeaf(li int) int {
	m := s.m
	if s.staticOrder != nil {
		return s.staticOrder[li]
	}
	best, bestScore := -1, -1
	for cand := 0; cand < m.pat.K(); cand++ {
		if s.assigned[cand] != nil {
			continue
		}
		// Constraint connectivity dominates (every constraint to a
		// placed leaf narrows the Figure 4 interval); a link pins the
		// domain to one event and wins outright; a resolvable process
		// hint only breaks ties — an unconstrained leaf is a huge
		// domain even on a single trace.
		score := 0
		for pj := 0; pj < li; pj++ {
			switch s.rel(cand, s.levelLeaf[pj]) {
			case pattern.RelNone:
			case pattern.RelLink:
				score += 100_000
			default:
				score += 10
			}
		}
		if _, ok := s.procHint(m.pat.Leaves[cand]); ok {
			score += 5
		}
		if score > bestScore {
			best, bestScore = cand, score
		}
	}
	return best
}

func (s *search) place(li int) placeResult {
	m := s.m
	leafIdx := s.chooseLeaf(li)
	s.levelLeaf[li] = leafIdx
	leaf := m.pat.Leaves[leafIdx]
	res := placeResult{valid: true}
	s.confl[li] = s.confl[li][:0]
	n := m.store.NumTraces()
	// Trace isolation (Section V-D): when the leaf's process attribute
	// is an exact name or an already-bound variable, only that trace
	// can hold a matching event — skip the rest of the scan. This is
	// what keeps patterns that name their participants nearly flat in
	// the total trace count (Figure 9).
	// A hint-based skip depends on the variable bindings made by the
	// earlier levels, so for the backjump analysis it is a conflict
	// attributed (without a bound) to the deepest earlier level; an
	// exact (literal) process attribute is env-independent and thus
	// structural.
	hintConflict := conflict{level: li - 1, hasBound: false}
	if leaf.Class.Proc.Kind == pattern.AttrExact {
		hintConflict = conflict{level: -1}
	}
	pinned := -1
	if name, ok := s.procHint(leaf); ok {
		tid, known := m.store.TraceByName(name)
		if !known {
			// No such trace: no candidates anywhere under this prefix.
			return s.explained(li, res, hintConflict)
		}
		pinned = int(tid)
	}
	// A leaf linked (~) to a placed event can only match that event's
	// partner: pin the scan to the partner's trace. Valid while the
	// linking level's event is unchanged.
	for pj := 0; pj < li; pj++ {
		placedLeaf := s.levelLeaf[pj]
		if s.rel(leafIdx, placedLeaf) != pattern.RelLink {
			continue
		}
		partner := s.assigned[placedLeaf].Partner.ID()
		linkConflict := conflict{level: pj, hasBound: false}
		if partner.IsZero() {
			return s.explained(li, res, linkConflict)
		}
		if pinned >= 0 && pinned != int(partner.Trace) {
			// Contradicts the process hint: empty everywhere.
			return s.explained(li, res, hintConflict, linkConflict)
		}
		pinned = int(partner.Trace)
		hintConflict = linkConflict
	}
	first, last := 0, n-1
	if pinned >= 0 {
		// One conflict stands in for every skipped trace: they are all
		// empty for the same reason (the binding or link that pinned
		// the scan).
		first, last = pinned, pinned
		if n > 1 {
			s.confl[li] = append(s.confl[li], hintConflict)
		}
	}
	for tr := first; tr <= last; tr++ {
		if s.bud.out() {
			res.valid = false
			return s.explained(li, res)
		}
		trace := event.TraceID(tr)
		if s.pinLeaf == leafIdx && trace != s.pinTrace {
			res.valid = false
			continue
		}
		cands, confl, structEmpty := s.domainOn(li, leafIdx, trace)
		if len(cands) == 0 {
			if structEmpty {
				confl = conflict{level: -1}
			}
			s.confl[li] = append(s.confl[li], confl)
			continue
		}
		traceRes := s.tryCandidates(li, leaf, leafIdx, trace, cands)
		if traceRes.matched {
			res.matched = true
			if s.stopFirst {
				return s.explained(li, res)
			}
			continue // a complete match on this trace: move to the next
		}
		if traceRes.hopeless {
			// Failure below is independent of this level entirely:
			// no assignment here (on any trace) can help.
			return placeResult{valid: true, conflicts: traceRes.conflicts}
		}
		// Candidates were tried and failed; the trace's failure is not
		// summarized by a conflict on an earlier level.
		res.valid = false
	}
	return s.explained(li, res)
}

// explained finishes place(li)'s result: the level's conflict buffer,
// with any last causes appended, becomes res.conflicts.
func (s *search) explained(li int, res placeResult, last ...conflict) placeResult {
	s.confl[li] = append(s.confl[li], last...)
	res.conflicts = s.confl[li]
	return res
}

// traceOutcome is the result of trying one trace's candidates.
type traceOutcome struct {
	matched  bool
	hopeless bool
	// conflicts, when hopeless, explain the failure in terms of levels
	// strictly earlier than the current one.
	conflicts []conflict
}

// tryCandidates enumerates the candidates of one trace latest-first,
// applying backjump bounds as deeper levels fail.
func (s *search) tryCandidates(li int, leaf *pattern.Leaf, leafIdx int, trace event.TraceID, cands []histEntry) traceOutcome {
	m := s.m
	traceName := m.store.TraceName(trace)
	jumpBound := int(^uint(0) >> 1) // max int: no bound yet
	matchedAny := false
	for ci := len(cands) - 1; ci >= 0; ci-- {
		// goForward's step check: one budget unit per candidate-loop
		// iteration, shared with the trigger's pinned sweeps.
		if !s.bud.step() {
			return traceOutcome{}
		}
		cand := cands[ci]
		if int(cand.pos) > jumpBound {
			m.stats.BackjumpSkips++
			continue
		}
		ev := m.store.Get(event.ID{Trace: trace, Index: int(cand.pos)})
		if s.isAssigned(ev) {
			continue // leaves bind distinct events
		}
		if m.opts.DisableCausalDomains && !s.checkCandidate(li, ev) {
			continue
		}
		mark := s.env.Mark()
		if !leaf.Class.MatchEvent(ev, traceName, s.env) {
			continue
		}
		s.assigned[leafIdx] = ev
		m.stats.CandidatesTried++
		var sub placeResult
		if li+1 == m.pat.K() {
			sub = s.complete()
		} else {
			sub = s.place(li + 1)
		}
		s.assigned[leafIdx] = nil
		s.env.Rewind(mark)
		if sub.matched {
			if m.opts.ReportAll {
				// Exhaustive mode: keep enumerating this trace.
				matchedAny = true
				continue
			}
			return traceOutcome{matched: true}
		}
		m.stats.Backtracks++
		if m.opts.DisableBackjumping || !sub.valid {
			continue // chronological backtracking
		}
		// Conflict analysis (Figure 5 / goBackward): partition the
		// failure causes between this level and strictly earlier ones.
		mineMax, mineUnbounded, anyMine := -1, false, false
		for _, c := range sub.conflicts {
			if c.level == li {
				anyMine = true
				if !c.hasBound {
					mineUnbounded = true
				} else if c.bound > mineMax {
					mineMax = c.bound
				}
			}
		}
		switch {
		case !anyMine:
			// Every conflict is caused by an earlier level (or is
			// structural): changing this level cannot help.
			m.stats.Backjumps++
			return traceOutcome{hopeless: true, conflicts: sub.conflicts}
		case mineUnbounded:
			// Some conflict on this level has no provable bound.
			continue
		case mineMax <= 0:
			// This level's conflicts demand pruning its whole trace.
			m.stats.Backjumps++
			return traceOutcome{matched: matchedAny}
		default:
			m.stats.Backjumps++
			jumpBound = mineMax
		}
	}
	return traceOutcome{matched: matchedAny}
}

// procHint resolves the leaf's process attribute to a concrete trace
// name when possible: an exact literal, or a variable already bound in
// the environment.
func (s *search) procHint(leaf *pattern.Leaf) (string, bool) {
	switch leaf.Class.Proc.Kind {
	case pattern.AttrExact:
		return leaf.Class.Proc.Value, true
	case pattern.AttrVar:
		return s.env.Lookup(leaf.Class.Proc.Value)
	default:
		return "", false
	}
}

// isAssigned reports whether ev is already bound to some leaf.
func (s *search) isAssigned(ev *event.Event) bool {
	for _, a := range s.assigned {
		if a == ev {
			return true
		}
	}
	return false
}

// domainOn computes the candidate list for the given level's leaf on one
// trace. It returns the candidates (in trace order; callers enumerate
// from the end), the conflict describing an empty domain, and whether the
// emptiness is structural (no restriction involved).
func (s *search) domainOn(li, leafIdx int, trace event.TraceID) ([]histEntry, conflict, bool) {
	cands, confl, structEmpty := s.domainOnRestrict(li, leafIdx, trace)
	s.m.domainHist.Observe(int64(len(cands)))
	return cands, confl, structEmpty
}

func (s *search) domainOnRestrict(li, leafIdx int, trace event.TraceID) ([]histEntry, conflict, bool) {
	m := s.m
	h := m.hist[leafIdx]
	m.stats.DomainsComputed++
	length := h.lastPos(int(trace))
	if length == 0 {
		return nil, conflict{}, true
	}
	iv := interval{1, m.store.Len(trace)}
	if !m.opts.DisableCausalDomains {
		for pj := 0; pj < li; pj++ {
			placedLeaf := s.levelLeaf[pj]
			rel := s.rel(leafIdx, placedLeaf)
			if rel == pattern.RelNone {
				continue
			}
			placed := s.assigned[placedLeaf]
			iv = restrictDomain(m.store, iv, rel, placed, trace)
			if iv.empty() {
				return nil, conflictBound(m.store, rel, placed, trace, h, pj), false
			}
		}
	}
	cands := h.rangeEntries(int(trace), iv.lo, iv.hi)
	if len(cands) == 0 {
		// The interval is non-empty but holds no class event. Attribute
		// the failure to the innermost restricting level when domains
		// are on; with a full interval this is structural.
		if iv.lo == 1 && iv.hi == m.store.Len(trace) {
			return nil, conflict{}, true
		}
		// Find the last placed level that narrowed the interval and
		// derive its bound; a conservative no-bound conflict keeps the
		// analysis sound when attribution is ambiguous.
		return nil, s.narrowingConflict(li, leafIdx, trace), false
	}
	return cands, conflict{}, false
}

// narrowingConflict attributes an interval that is non-empty in positions
// but empty in class events. The emptiness depends jointly on every
// restricting level, and a conflict is only valid while all levels up to
// its cause are unchanged, so it must be attributed to the deepest
// restricting level, with no bound (changing that level may reopen the
// interval in ways the Figure 5 analysis does not cover).
func (s *search) narrowingConflict(li, leafIdx int, trace event.TraceID) conflict {
	deepest := -1
	for pj := 0; pj < li; pj++ {
		placedLeaf := s.levelLeaf[pj]
		if s.rel(leafIdx, placedLeaf) != pattern.RelNone {
			deepest = pj
		}
	}
	return conflict{level: deepest, hasBound: false}
}

// checkCandidate verifies the causal constraints of a candidate against
// all placed events directly. Used only when DisableCausalDomains is set
// (the ablation path); with domains on, the interval already guarantees
// these.
func (s *search) checkCandidate(li int, cand *event.Event) bool {
	leafIdx := s.levelLeaf[li]
	for pj := 0; pj < li; pj++ {
		placedLeaf := s.levelLeaf[pj]
		rel := s.rel(leafIdx, placedLeaf)
		if rel == pattern.RelNone {
			continue
		}
		placed := s.assigned[placedLeaf]
		if !rel.Holds(cand, placed) {
			return false
		}
	}
	return true
}

// complete validates a full assignment (compound disjuncts and lim->
// completion checks), updates the representative subset, and records the
// match.
func (s *search) complete() placeResult {
	m := s.m
	for _, d := range m.pat.Disjuncts {
		if !d.Holds(s.assigned) {
			return placeResult{valid: false}
		}
	}
	if !s.checkLim() {
		return placeResult{valid: false}
	}
	m.stats.CompleteMatches++
	s.bud.noteMatch() // the cap's last match is reported, then the search stops
	newCoverage := false
	for leafIdx, ev := range s.assigned {
		if m.cover(leafIdx, ev.ID.Trace) {
			newCoverage = true
		}
	}
	if newCoverage || !m.opts.RepresentativeOnly {
		events := make([]*event.Event, len(s.assigned))
		copy(events, s.assigned)
		s.matches = append(s.matches, Match{Events: events, Bindings: s.env.Snapshot()})
		m.stats.Reported++
	} else {
		m.stats.Redundant++
	}
	return placeResult{matched: true}
}

// checkLim validates every lim-> pair: no same-class event causally
// between the matched endpoints. The compiled path reads the Program's
// precomputed pair list instead of scanning the k×k matrix per match.
func (s *search) checkLim() bool {
	m := s.m
	if m.compiled {
		for _, p := range m.prog.LimPairs() {
			if m.hist[p[0]].anyBetween(m.store, s.assigned[p[0]], s.assigned[p[1]]) {
				return false
			}
		}
		return true
	}
	for i := 0; i < m.pat.K(); i++ {
		for j := 0; j < m.pat.K(); j++ {
			if m.pat.Rel[i][j] != pattern.RelLim {
				continue
			}
			if m.hist[i].anyBetween(m.store, s.assigned[i], s.assigned[j]) {
				return false
			}
		}
	}
	return true
}
