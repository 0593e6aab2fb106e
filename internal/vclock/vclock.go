// Package vclock implements Fidge/Mattern vector timestamps for the OCEP
// framework.
//
// A vector clock is a vector of event counters, one entry per trace.
// Entry t of an event's timestamp records how many events of trace t
// causally precede (or equal, for the event's own trace) the event.
// With this convention the happens-before relation between two events can
// be decided with at most two integer comparisons, as the paper requires
// (Section III-A).
//
// An event carries a Stamp: a reference to its trace's last join clock
// plus its own count. VC, a dense vector with one 4-byte entry per trace,
// is the storage a join clock is built in, and the form timestamps take
// on the wire and in tests. A join clock stores the dense entries of its
// window alone, from its lowest nonzero entry to its highest: two on
// traces that talk in fixed pairs, as durable-ha's deadlock traffic
// does, wherever the pair sits, and on a ring the span its history has
// reached (docs/ARCHITECTURE.md, "One clock, one engine").
package vclock

import (
	"fmt"
	"strings"
)

// VC is a dense vector timestamp. Index i holds the number of events of
// trace i known to have happened before or at the stamped event. The zero
// value (nil) is a valid timestamp that precedes nothing and is
// concurrent with everything, which is convenient for uninitialized
// placeholders; real events always carry a clock sized to the trace
// count.
//
// The mutating operations follow the append contract: Tick and Merge
// return the updated clock, which may or may not share storage with
// the receiver — the receiver value is considered moved and must not be
// used afterwards except through the return value.
type VC []int32

// New returns a zeroed dense clock for n traces.
func New(n int) VC { return make(VC, n) }

// Clone returns an independent copy of v.
func (v VC) Clone() VC {
	if v == nil {
		return nil
	}
	c := make(VC, len(v))
	copy(c, v)
	return c
}

// Get returns entry t, treating missing entries as zero so that clocks of
// different lengths (e.g. before and after a trace joined) compare sanely.
func (v VC) Get(t int) int {
	if t < 0 || t >= len(v) {
		return 0
	}
	return int(v[t])
}

// Tick increments entry t, growing the clock if necessary, and returns
// the updated clock (append contract: the receiver is moved).
func (v VC) Tick(t int) VC {
	v = v.grow(t + 1)
	v[t]++
	return v
}

// Merge folds the component-wise maximum of v and other into v, growing
// v if necessary, and returns the updated clock. It is the receive-side
// clock update of the Fidge/Mattern algorithm (before the local tick).
//
// Semantics (pinned): the result reuses the receiver's storage when it
// is large enough and reallocates otherwise, so — like append — the
// receiver value is moved: callers must use only the returned clock
// afterwards. The argument is never mutated, and its storage is never
// aliased by the result, so callers may retain other (e.g. another
// event's stamp) safely.
func (v VC) Merge(other VC) VC {
	v = v.grow(len(other))
	for i, x := range other {
		if x > v[i] {
			v[i] = x
		}
	}
	return v
}

func (v VC) grow(n int) VC {
	if len(v) >= n {
		return v
	}
	g := make(VC, n)
	copy(g, v)
	return g
}

// Range calls f for every nonzero entry in increasing trace order,
// stopping early if f returns false.
func (v VC) Range(f func(t int, n int32) bool) {
	for t, n := range v {
		if n == 0 {
			continue
		}
		if !f(t, n) {
			return
		}
	}
}

// Equal reports whether the two clocks are component-wise equal, treating
// missing entries as zero.
func (v VC) Equal(other VC) bool {
	for i := 0; i < max(len(v), len(other)); i++ {
		if v.Get(i) != other.Get(i) {
			return false
		}
	}
	return true
}

// LessEqual reports whether v <= other component-wise (the classical
// "causally precedes or equals" test for full vectors). It is O(n) and is
// used by tests and by code paths that do not know the events' traces;
// event-to-event causality should use Before, which is O(1).
func (v VC) LessEqual(other VC) bool {
	for i := 0; i < max(len(v), len(other)); i++ {
		if v.Get(i) > other.Get(i) {
			return false
		}
	}
	return true
}

// String renders the clock as "[1 0 3]".
func (v VC) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i, x := range v {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d", x)
	}
	b.WriteByte(']')
	return b.String()
}

// Before reports whether the event stamped a happens before the event
// stamped b. Events are identified by (trace, index) where index is
// 1-based position within the trace; with the convention that
// a[trace(a)] == index(a), a -> b holds iff
//
//	a[trace(a)] <= b[trace(a)]   (and a != b),
//
// which costs one bounds-checked load from b's join clock window and
// one branch, whatever the trace count: a's own entry is in the stamp.
func Before(a, b Stamp) bool {
	if a.trace == b.trace {
		return a.n < b.n
	}
	return a.n <= b.entry(int(a.trace))
}

// Concurrent reports whether the two stamped events are concurrent:
// neither happens before the other and they are not the same event.
func Concurrent(a, b Stamp) bool {
	if a.trace == b.trace && a.n == b.n {
		return false // same event
	}
	return !Before(a, b) && !Before(b, a)
}

// Relation is the outcome of comparing two stamped events.
type Relation int

// Possible relations between two events. Values start at 1 so the zero
// value is detectably invalid.
const (
	// RelBefore means the first event happens before the second.
	RelBefore Relation = iota + 1
	// RelAfter means the second event happens before the first.
	RelAfter
	// RelEqual means both stamps denote the same event.
	RelEqual
	// RelConcurrent means the events are causally unrelated.
	RelConcurrent
)

// String returns a short human-readable name for the relation.
func (r Relation) String() string {
	switch r {
	case RelBefore:
		return "before"
	case RelAfter:
		return "after"
	case RelEqual:
		return "equal"
	case RelConcurrent:
		return "concurrent"
	default:
		return fmt.Sprintf("Relation(%d)", int(r))
	}
}

// Compare classifies the relation between the events stamped a and b.
func Compare(a, b Stamp) Relation {
	switch {
	case a.trace == b.trace && a.n == b.n:
		return RelEqual
	case Before(a, b):
		return RelBefore
	case Before(b, a):
		return RelAfter
	}
	return RelConcurrent
}
