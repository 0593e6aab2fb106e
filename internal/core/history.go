// Package core implements the OCEP online causal-event-pattern matcher
// (Section IV of the paper): per-leaf event histories, causality-interval
// domain restriction (Figure 4), the goForward/goBackward backtracking
// search with conflict-directed backjumping (Algorithms 1-3, Figure 5),
// and representative-subset maintenance (Section IV-B).
package core

import "ocep/internal/event"

// histEntry is one matched event in a leaf history: its trace position
// (the trace is the history's row) and tag, the trace's
// communication-event count when it was appended, shifted left once,
// with the low bit set for an internal event. Two same-class internal
// events with equal counts have no send or receive between them and
// therefore the same causal relation to events on other traces
// (Section V-D).
//
// The entry holds no pointer: the searches over a history compare
// positions out of the entry array itself, and the candidate loop reads
// the event from the matcher's store by (trace, pos), so the store is
// the one index that holds event pointers and the entry is 8 bytes.
type histEntry struct {
	pos int32
	tag uint32
}

// history is the History attribute of one pattern-tree leaf: the matched
// primitive events grouped by trace, totally ordered within each trace.
type history struct {
	perTrace [][]histEntry
	// pruned counts events discarded by the duplicate rule.
	pruned int
	// evicted counts entries discarded by the MaxHistoryPerTrace
	// retention watermark.
	evicted int
}

func newHistory() *history { return &history{} }

// add appends ev to the history. commAt is the communication-event count
// of ev's trace including ev itself. When prune is set, an internal event
// whose predecessor in this history is an internal event with no
// communication between them is discarded (the O(1) rule of Section V-D):
// the two are causally interchangeable with respect to other traces.
func (h *history) add(ev *event.Event, commAt int, prune bool) {
	t := int(ev.ID.Trace)
	for t >= len(h.perTrace) {
		h.perTrace = append(h.perTrace, nil)
	}
	tag := uint32(commAt) << 1
	if ev.Kind == event.KindInternal {
		tag |= 1
		if entries := h.perTrace[t]; prune && len(entries) > 0 && entries[len(entries)-1].tag == tag {
			h.pruned++
			return
		}
	}
	h.perTrace[t] = append(h.perTrace[t], histEntry{pos: int32(ev.ID.Index), tag: tag})
}

// entries returns the history of trace t.
func (h *history) entries(t int) []histEntry {
	if t >= len(h.perTrace) {
		return nil
	}
	return h.perTrace[t]
}

// numTraces returns the number of traces the history has seen.
func (h *history) numTraces() int { return len(h.perTrace) }

// size returns the total number of retained entries.
func (h *history) size() int {
	n := 0
	for _, tr := range h.perTrace {
		n += len(tr)
	}
	return n
}

// evictOldest discards the oldest entries of trace t down to keep
// entries and returns the number evicted. The retained suffix is copied
// to a fresh slice so the evicted prefix does not linger in the old
// backing array.
func (h *history) evictOldest(t, keep int) int {
	entries := h.entries(t)
	drop := len(entries) - keep
	if drop <= 0 {
		return 0
	}
	rest := entries[drop:]
	h.perTrace[t] = append(make([]histEntry, 0, len(rest)), rest...)
	h.evicted += drop
	return drop
}

// firstIndex returns the trace position of the oldest retained entry on
// trace t, or 0 when the trace has none.
func (h *history) firstIndex(t int) int {
	entries := h.entries(t)
	if len(entries) == 0 {
		return 0
	}
	return int(entries[0].pos)
}

// lastPos returns the trace position (event index) of the last entry on
// trace t, or 0 if the trace has none.
func (h *history) lastPos(t int) int {
	entries := h.entries(t)
	if len(entries) == 0 {
		return 0
	}
	return int(entries[len(entries)-1].pos)
}

// firstAbove returns the number of leading entries whose trace position
// is at most p: entries[firstAbove:] are exactly the ones above p. It
// probes the last entry first and gallops back from there in doubling
// steps before binary-searching the bracket, so the cost is logarithmic
// in the answer's distance from the tail rather than in the history's
// length (the same shape as event.Store.LS, for the same reason: the
// matcher's interval bounds come from events placed near the head of
// the linearization).
func firstAbove(entries []histEntry, p int) int {
	hi := len(entries)
	lo := hi - 1
	for step := 1; lo >= 0 && int(entries[lo].pos) > p; step <<= 1 {
		hi = lo
		lo -= step
	}
	if lo < 0 {
		lo = -1
	}
	for hi-lo > 1 {
		mid := int(uint(lo+hi) >> 1)
		if int(entries[mid].pos) > p {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// rangeEntries returns the sub-slice of trace t's entries whose trace
// positions fall in [lo, hi]. An empty slice means the interval holds no
// candidate. Both ends are located from the tail (firstAbove); a lower
// bound at or below the oldest entry — the unrestricted lo of 1 — is
// settled by one look at the head instead.
func (h *history) rangeEntries(t, lo, hi int) []histEntry {
	entries := h.entries(t)
	if len(entries) == 0 || lo > hi {
		return nil
	}
	entries = entries[:firstAbove(entries, hi)]
	if len(entries) > 0 && int(entries[0].pos) < lo {
		entries = entries[firstAbove(entries, lo-1):]
	}
	if len(entries) == 0 {
		return nil
	}
	return entries
}

// anyBetween reports whether the history holds an event x (other than a
// and b themselves) with a -> x and x -> b, using the store's GP/LS
// queries per trace. It implements the completion check of the limited
// precedence operator lim->.
func (h *history) anyBetween(st *event.Store, a, b *event.Event) bool {
	for t := 0; t < h.numTraces(); t++ {
		tr := event.TraceID(t)
		lo := st.LS(a, tr)
		if lo == 0 {
			continue
		}
		for _, ent := range h.rangeEntries(t, lo, st.GP(b, tr)) {
			if x := (event.ID{Trace: tr, Index: int(ent.pos)}); x != a.ID && x != b.ID {
				return true
			}
		}
	}
	return false
}
