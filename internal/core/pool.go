package core

import (
	"ocep/internal/event"
	"ocep/internal/pattern"
)

// newSearch returns a search with scrubbed scratch sized for the
// pattern: the level→leaf map, the per-leaf assignment vector, the
// binding environment and one conflict buffer per backtracking level
// (see search.confl for who may read and rewrite those). On the compiled
// path the whole search — header and scratch — comes from the matcher's
// free list, so a trigger that finds no match allocates nothing once the
// list and the buffers are warm. One goroutine feeds a matcher, so the
// list needs no lock, and it holds at most two searches: a trigger's
// main search and, under GuaranteeCoverage, the pinned sweep it runs
// next. The interpreted oracle path never reuses: it allocates fresh
// state per search, as the reference implementation always did.
//
// Pair with release, after the search's matches have been taken:
// Match.Events is a fresh copy, so the matches outlive the search.
func (m *Matcher) newSearch() *search {
	if n := len(m.free); n > 0 {
		s := m.free[n-1]
		m.free = m.free[:n-1]
		return s
	}
	k := m.pat.K()
	return &search{
		m:         m,
		pinLeaf:   -1,
		levelLeaf: make([]int, k),
		assigned:  make([]*event.Event, k),
		env:       pattern.NewEnv(),
		confl:     make([][]conflict, k),
	}
}

// release scrubs s and returns it to the free list (compiled path; a
// no-op on the interpreted one). Scrubbing on release rather than on
// reuse drops the event pointers promptly, so a parked search never pins
// evicted events against the garbage collector, and nothing of one
// search — its assignment, bindings, conflicts, budget or matches — is
// visible to the next. The conflict buffers keep their capacity;
// conflicts hold no pointers.
func (m *Matcher) release(s *search) {
	if !m.compiled {
		return
	}
	clear(s.levelLeaf)
	clear(s.assigned)
	s.env.Reset()
	for i := range s.confl {
		s.confl[i] = s.confl[i][:0]
	}
	*s = search{
		m:         m,
		pinLeaf:   -1,
		levelLeaf: s.levelLeaf,
		assigned:  s.assigned,
		env:       s.env,
		confl:     s.confl,
	}
	m.free = append(m.free, s)
}
