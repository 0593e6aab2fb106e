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
// pool, so a trigger that finds no match allocates nothing once the pool
// and the buffers are warm; every search of a trigger (each parallel
// worker, each pinned sweep) draws its own. The interpreted oracle path
// never pools: it allocates fresh state per search, as the reference
// implementation always did. Safe for concurrent use.
//
// Pair with release, after the search's matches have been taken:
// Match.Events is a fresh copy, so the matches outlive the search.
func (m *Matcher) newSearch() *search {
	if m.compiled {
		if v := m.searches.Get(); v != nil {
			return v.(*search)
		}
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

// release scrubs s and returns it to the pool (compiled path; a no-op on
// the interpreted one). Scrubbing on release rather than on reuse drops
// the event pointers promptly, so a pooled search never pins evicted
// events against the garbage collector, and nothing of one search — its
// assignment, bindings, conflicts, budget or matches — is visible to the
// next. The conflict buffers keep their capacity; conflicts hold no
// pointers.
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
	m.searches.Put(s)
}
