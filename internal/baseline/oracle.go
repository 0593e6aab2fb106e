// Package baseline implements the comparison systems of the evaluation:
// a brute-force all-matches enumerator (the test oracle and the "All" row
// of Figure 3), a sliding-window matcher (Section IV-B, Figure 3), a
// chronological backtracker without causality pruning (the "very basic
// implementation" of Section IV-C), a dependency-graph deadlock detector
// in the style of the work OCEP compares against in Section V-C1, and a
// vector-timestamp message-race checker (Section V-C2).
package baseline

import (
	"ocep/internal/core"
	"ocep/internal/event"
	"ocep/internal/pattern"
)

// AllMatches enumerates every complete match of the compiled pattern over
// the finished store, by exhaustive search with no pruning beyond the
// constraints themselves. It is exponential and intended as a test oracle
// and small-scale baseline.
func AllMatches(pat *pattern.Compiled, st *event.Store) []core.Match {
	o := &oracle{pat: pat, st: st, hist: leafHistories(pat, st)}
	o.assigned = make([]*event.Event, pat.K())
	o.env = pattern.NewEnv()
	o.enumerate(0)
	return o.matches
}

// leafHistories collects, per leaf, every stored event whose attributes
// can match the leaf's class under some variable binding.
func leafHistories(pat *pattern.Compiled, st *event.Store) [][]*event.Event {
	hist := make([][]*event.Event, pat.K())
	for t := 0; t < st.NumTraces(); t++ {
		name := st.TraceName(event.TraceID(t))
		for _, e := range st.Events(event.TraceID(t)) {
			for i, leaf := range pat.Leaves {
				if leaf.Class.MatchesIgnoringVars(e, name) {
					hist[i] = append(hist[i], e)
				}
			}
		}
	}
	return hist
}

type oracle struct {
	pat      *pattern.Compiled
	st       *event.Store
	hist     [][]*event.Event
	assigned []*event.Event
	env      *pattern.Env
	matches  []core.Match
}

func (o *oracle) enumerate(leaf int) {
	if leaf == o.pat.K() {
		if o.checkCompound() {
			events := make([]*event.Event, len(o.assigned))
			copy(events, o.assigned)
			o.matches = append(o.matches, core.Match{Events: events, Bindings: o.env.Snapshot()})
		}
		return
	}
	cls := o.pat.Leaves[leaf].Class
	for _, cand := range o.hist[leaf] {
		if o.isAssigned(cand) {
			continue
		}
		if !o.pairwiseOK(leaf, cand) {
			continue
		}
		mark := o.env.Mark()
		if !cls.MatchEvent(cand, o.st.TraceName(cand.ID.Trace), o.env) {
			continue
		}
		o.assigned[leaf] = cand
		o.enumerate(leaf + 1)
		o.assigned[leaf] = nil
		o.env.Rewind(mark)
	}
}

func (o *oracle) isAssigned(e *event.Event) bool {
	for _, a := range o.assigned {
		if a == e {
			return true
		}
	}
	return false
}

// pairwiseOK checks the candidate against every already-assigned leaf.
func (o *oracle) pairwiseOK(leaf int, cand *event.Event) bool {
	for j := 0; j < leaf; j++ {
		placed := o.assigned[j]
		if placed == nil {
			continue
		}
		if !oracleRelHolds(o.pat.Rel[leaf][j], cand, placed) {
			return false
		}
	}
	return true
}

func oracleRelHolds(rel pattern.Rel, a, b *event.Event) bool {
	switch rel {
	case pattern.RelBefore, pattern.RelLim:
		return a.Before(b)
	case pattern.RelAfter, pattern.RelLimAfter:
		return b.Before(a)
	case pattern.RelConcurrent:
		return a.Concurrent(b)
	case pattern.RelLink:
		return a.Partner.ID() == b.ID && b.Partner.ID() == a.ID
	default:
		return true
	}
}

// checkCompound validates the disjunctive compound constraints and the
// lim-> completion condition on a full assignment.
func (o *oracle) checkCompound() bool {
	for _, d := range o.pat.Disjuncts {
		ab := o.existsOrdered(d.A, d.B)
		ba := o.existsOrdered(d.B, d.A)
		switch d.Op {
		case pattern.OpBefore:
			if !ab || ba {
				return false
			}
		case pattern.OpEntangled:
			if !ab || !ba {
				return false
			}
		}
	}
	for i := 0; i < o.pat.K(); i++ {
		for j := 0; j < o.pat.K(); j++ {
			if o.pat.Rel[i][j] != pattern.RelLim {
				continue
			}
			a, b := o.assigned[i], o.assigned[j]
			for _, x := range o.hist[i] {
				if x != a && x != b && a.Before(x) && x.Before(b) {
					return false
				}
			}
		}
	}
	return true
}

// existsOrdered reports whether some event of leaves as happens before
// some event of leaves bs.
func (o *oracle) existsOrdered(as, bs []int) bool {
	for _, ai := range as {
		for _, bi := range bs {
			if o.assigned[ai].Before(o.assigned[bi]) {
				return true
			}
		}
	}
	return false
}

// Coverage is the set of (leaf, trace) pairs present in a set of matches:
// the quantity the representative subset must preserve.
func Coverage(matches []core.Match) map[[2]int]bool {
	cov := make(map[[2]int]bool)
	for _, m := range matches {
		for leaf, e := range m.Events {
			cov[[2]int{leaf, int(e.ID.Trace)}] = true
		}
	}
	return cov
}
