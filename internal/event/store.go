package event

import "fmt"

// Store holds the events of a computation grouped by trace, in trace
// order. It answers the greatest-predecessor and least-successor queries
// (Section IV-C) that drive the matcher's domain restriction.
//
// Store is not safe for concurrent use; the monitor appends events from
// the single linearized delivery stream.
type Store struct {
	// traces[t] holds the retained events of trace t in trace order:
	// traces[t][i] is event t#(base[t]+i+1). base[t] is zero until
	// CompactTrace drops a prefix; all indices in the API stay logical
	// (1-based positions within the full trace).
	traces [][]*Event
	// base[t] counts events compacted away from the front of trace t.
	// nil until the first compaction, then sized like traces.
	base  []int
	names []string // optional human-readable trace names
	// fallback[t] is the "t<N>" name TraceName gives a trace nobody
	// named, built once when the trace is created (not on first use: the
	// matcher's parallel workers call TraceName concurrently). It is
	// never entered in byName: a synthesized name is not a registration.
	fallback []string
	byName   map[string]TraceID
	// comm[t] counts the communication events (non-internal kinds)
	// appended to trace t so far. The duplicate-pruning rule of the
	// matcher history (Section V-D) compares these counters to decide
	// whether two same-class events are causally interchangeable.
	comm []int
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{byName: make(map[string]TraceID)}
}

// RegisterTrace assigns the next TraceID to a trace with the given name
// and returns it. Registering the same name twice returns the existing ID.
func (s *Store) RegisterTrace(name string) TraceID {
	if id, ok := s.byName[name]; ok {
		return id
	}
	id := TraceID(len(s.traces))
	s.grow(int(id))
	s.names[id] = name
	s.byName[name] = id
	return id
}

// grow extends the store so that trace t exists, unnamed and empty.
func (s *Store) grow(t int) {
	for t >= len(s.traces) {
		s.fallback = append(s.fallback, fmt.Sprintf("t%d", len(s.traces)))
		s.traces = append(s.traces, nil)
		s.names = append(s.names, "")
		s.comm = append(s.comm, 0)
	}
}

// NameTrace records the name of an externally numbered trace, growing
// the store as needed. Unlike RegisterTrace it never allocates a new ID:
// it is for consumers of a delivered stream (batch subscribers, wire
// clients) whose trace IDs are assigned by the collector and must be
// mirrored exactly.
func (s *Store) NameTrace(t TraceID, name string) {
	s.grow(int(t))
	if s.names[t] == name {
		return
	}
	s.names[t] = name
	s.byName[name] = t
}

// TraceName returns the registered name of t, or "t<N>" if it was never
// named. Neither case allocates for a trace the store holds.
func (s *Store) TraceName(t TraceID) string {
	ti := int(t)
	if ti < 0 || ti >= len(s.names) {
		return fmt.Sprintf("t%d", ti)
	}
	if s.names[ti] != "" {
		return s.names[ti]
	}
	return s.fallback[ti]
}

// TraceByName returns the ID registered for name.
func (s *Store) TraceByName(name string) (TraceID, bool) {
	id, ok := s.byName[name]
	return id, ok
}

// NumTraces returns the number of traces seen so far.
func (s *Store) NumTraces() int { return len(s.traces) }

// Len returns the number of events appended to trace t — a logical
// count that includes any compacted prefix.
func (s *Store) Len(t TraceID) int {
	if int(t) >= len(s.traces) {
		return 0
	}
	return s.baseOf(int(t)) + len(s.traces[t])
}

// baseOf returns the compacted-prefix length of trace t (0 before any
// compaction).
func (s *Store) baseOf(t int) int {
	if t >= len(s.base) {
		return 0
	}
	return s.base[t]
}

// CompactedBefore returns the logical index up to which trace t's
// prefix has been compacted: events with Index <= CompactedBefore are
// gone, Get returns nil for them.
func (s *Store) CompactedBefore(t TraceID) int {
	if int(t) >= len(s.traces) {
		return 0
	}
	return s.baseOf(int(t))
}

// TotalEvents returns the number of events appended across all traces
// (logical: compacted events are still counted; see RetainedEvents).
func (s *Store) TotalEvents() int {
	n := 0
	for t := range s.traces {
		n += s.baseOf(t) + len(s.traces[t])
	}
	return n
}

// RetainedEvents returns the number of events currently held in memory
// across all traces — TotalEvents minus everything compacted away.
func (s *Store) RetainedEvents() int {
	n := 0
	for _, tr := range s.traces {
		n += len(tr)
	}
	return n
}

// CompactTrace drops the events of trace t with logical Index <
// keepFrom and returns how many were dropped. Compaction is the
// matcher/collector retention hook: Len stays logical, Append still
// expects the next logical index, Get returns nil for compacted
// events, and LS degrades gracefully — over a compacted trace it
// returns max(true least successor, first retained index), which is
// exact for every retained event at or above the compaction point.
// Callers must therefore only compact below any index they may still
// need as a candidate. The retained suffix is copied to a fresh slice
// so the dropped prefix becomes collectable.
func (s *Store) CompactTrace(t TraceID, keepFrom int) int {
	ti := int(t)
	if ti < 0 || ti >= len(s.traces) {
		return 0
	}
	for len(s.base) < len(s.traces) {
		s.base = append(s.base, 0)
	}
	drop := keepFrom - 1 - s.base[ti]
	if drop <= 0 {
		return 0
	}
	if drop > len(s.traces[ti]) {
		drop = len(s.traces[ti])
	}
	rest := s.traces[ti][drop:]
	s.traces[ti] = append(make([]*Event, 0, len(rest)), rest...)
	s.base[ti] += drop
	return drop
}

// Append adds e to its trace. The event's Index must be exactly one past
// the current trace length (events arrive in trace order from the
// linearized stream); Append returns an error otherwise.
func (s *Store) Append(e *Event) error {
	t := int(e.ID.Trace)
	if t < 0 {
		return fmt.Errorf("event %s: negative trace", e.ID)
	}
	s.grow(t)
	if want := s.baseOf(t) + len(s.traces[t]) + 1; e.ID.Index != want {
		return fmt.Errorf("event %s arrived out of trace order: want index %d", e.ID, want)
	}
	s.traces[t] = append(s.traces[t], e)
	if e.Kind.IsComm() {
		s.comm[t]++
	}
	return nil
}

// CommCount returns the number of communication events appended to trace
// t so far.
func (s *Store) CommCount(t TraceID) int {
	if int(t) >= len(s.comm) {
		return 0
	}
	return s.comm[t]
}

// Get returns the event with the given ID, or nil if it is out of range
// or was compacted away.
func (s *Store) Get(id ID) *Event {
	t := int(id.Trace)
	if t < 0 || t >= len(s.traces) {
		return nil
	}
	i := id.Index - 1 - s.baseOf(t)
	if i < 0 || i >= len(s.traces[t]) {
		return nil
	}
	return s.traces[t][i]
}

// Events returns the retained events of trace t in trace order; after
// compaction the slice starts at logical index CompactedBefore(t)+1.
// The returned slice is the store's own backing array; callers must not
// modify it.
func (s *Store) Events(t TraceID) []*Event {
	if int(t) >= len(s.traces) {
		return nil
	}
	return s.traces[t]
}

// GP returns the index on trace t of the greatest predecessor of e: the
// most recent event on t that happens before e. It returns 0 when no
// event on t precedes e. For an event of trace t itself, the greatest
// predecessor is simply its within-trace predecessor. O(1).
func (s *Store) GP(e *Event, t TraceID) int {
	if e.ID.Trace == t {
		return e.ID.Index - 1
	}
	// Entry t of e's clock counts exactly the events of trace t that
	// happen before e.
	return e.VC.Get(int(t))
}

// LS returns the index on trace t of the least successor of e: the
// earliest event on t that e happens before. It returns 0 when no stored
// event on t succeeds e (the successor may still arrive later). For an
// event of trace t itself it is the within-trace successor if stored.
// Over a compacted trace the answer is max(true least successor, first
// retained index); see CompactTrace.
//
// Entry trace(e) of the clocks along trace t is monotone non-decreasing,
// so the successors of e are a suffix of the trace, and that suffix
// starts above GP(e, t) because no event both precedes and succeeds e.
// The search works inward from those two anchors and never looks at the
// trace's length:
//
//   - One probe of the newest retained event settles "no successor
//     yet". Online this is the common answer — the matcher asks about
//     events it has just placed, at the head of the linearization — and
//     for the triggering event it is always the answer.
//   - Otherwise it gallops in doubling steps from both anchors at once,
//     back from the tail and forward from GP(e, t), until either side
//     brackets the boundary, and binary-searches that bracket.
//
// The cost is O(log d) clock reads, d being the answer's distance from
// the nearer anchor. Online the answer sits a few events from the tail;
// in a replay over a store that already holds the whole computation it
// sits a few events past the greatest predecessor (the width of e's
// concurrency window on t). Neither distance grows with the trace.
func (s *Store) LS(e *Event, t TraceID) int {
	if e.ID.Trace == t {
		if e.ID.Index+1 <= s.Len(t) {
			return e.ID.Index + 1
		}
		return 0
	}
	tr := s.Events(t)
	et := int(e.ID.Trace)
	need := e.VC.Get(et)
	succeeds := func(i int) bool { return tr[i].VC.Get(et) >= need }

	// Invariant from here on: tr[hi] succeeds e; tr[lo] does not, or
	// lo == -1 and the retained slice starts inside the suffix.
	hi := len(tr) - 1
	if hi < 0 || !succeeds(hi) {
		return 0
	}
	base := s.baseOf(int(t))
	lo := e.VC.Get(int(t)) - base - 1 // slice position of GP(e, t)
	if lo < -1 {
		lo = -1 // compacted away
	}
	for step := 1; ; step <<= 1 {
		p := hi - step
		if p <= lo {
			break
		}
		if !succeeds(p) {
			lo = p
			break
		}
		hi = p
		p = lo + step
		if p >= hi {
			break
		}
		if succeeds(p) {
			hi = p
			break
		}
		lo = p
	}
	for hi-lo > 1 {
		mid := int(uint(lo+hi) >> 1)
		if succeeds(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return base + hi + 1
}
