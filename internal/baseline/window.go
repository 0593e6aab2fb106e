package baseline

import (
	"ocep/internal/core"
	"ocep/internal/event"
	"ocep/internal/pattern"
)

// WindowMatcher is the sliding-window alternative discussed in Sections
// I, II and IV-B (Figure 3): it keeps only the last Size events and, on
// each arrival, reports the matches formed entirely inside the window.
// Matches that span beyond the window are missed — the omission problem
// the representative subset avoids.
type WindowMatcher struct {
	pat  *pattern.Compiled
	st   *event.Store
	size int
	win  []*event.Event
}

// NewWindowMatcher builds a window matcher. size is the window capacity
// in events; the paper's Figure 3 uses n^2 for n processes.
func NewWindowMatcher(pat *pattern.Compiled, st *event.Store, size int) *WindowMatcher {
	return &WindowMatcher{pat: pat, st: st, size: size}
}

// Feed slides the window over the next delivered event and returns the
// matches that end at it and fit inside the window.
func (w *WindowMatcher) Feed(e *event.Event) []core.Match {
	w.win = append(w.win, e)
	if len(w.win) > w.size {
		w.win = w.win[len(w.win)-w.size:]
	}
	// Enumerate matches within the window that include e.
	s := &windowSearch{
		w:        w,
		anchor:   e,
		assigned: make([]*event.Event, w.pat.K()),
		env:      pattern.NewEnv(),
	}
	s.enumerate(0, false)
	return s.matches
}

// Window returns the current window contents (oldest first).
func (w *WindowMatcher) Window() []*event.Event { return w.win }

type windowSearch struct {
	w        *WindowMatcher
	anchor   *event.Event
	assigned []*event.Event
	env      *pattern.Env
	matches  []core.Match
}

func (s *windowSearch) enumerate(leaf int, anchored bool) {
	pat := s.w.pat
	if leaf == pat.K() {
		if !anchored {
			return
		}
		// lim-> is not supported by the window baseline: its histories
		// are unbounded.
		for _, d := range pat.Disjuncts {
			if !d.Holds(s.assigned) {
				return
			}
		}
		events := make([]*event.Event, len(s.assigned))
		copy(events, s.assigned)
		s.matches = append(s.matches, core.Match{Events: events, Bindings: s.env.Snapshot()})
		return
	}
	cls := pat.Leaves[leaf].Class
	remaining := pat.K() - leaf
	for _, cand := range s.w.win {
		// Anchor pruning: if the anchor is not yet placed, it must fit
		// in one of the remaining leaves.
		if !anchored && remaining == 1 && cand != s.anchor {
			continue
		}
		if s.contains(cand) {
			continue
		}
		if !s.pairwiseOK(leaf, cand) {
			continue
		}
		mark := s.env.Mark()
		if !cls.MatchEvent(cand, s.w.st.TraceName(cand.ID.Trace), s.env) {
			continue
		}
		s.assigned[leaf] = cand
		s.enumerate(leaf+1, anchored || cand == s.anchor)
		s.assigned[leaf] = nil
		s.env.Rewind(mark)
	}
}

func (s *windowSearch) contains(e *event.Event) bool {
	for _, a := range s.assigned {
		if a == e {
			return true
		}
	}
	return false
}

func (s *windowSearch) pairwiseOK(leaf int, cand *event.Event) bool {
	for j := 0; j < leaf; j++ {
		if s.assigned[j] == nil {
			continue
		}
		if !s.w.pat.Rel[leaf][j].Holds(cand, s.assigned[j]) {
			return false
		}
	}
	return true
}
