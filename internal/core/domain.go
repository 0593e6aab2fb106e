package core

import (
	"ocep/internal/event"
	"ocep/internal/pattern"
)

// interval is a closed range of trace positions (1-based event indices).
// lo > hi means empty.
type interval struct {
	lo, hi int
}

func (iv interval) empty() bool { return iv.lo > iv.hi }

// conflict describes why a domain became empty with respect to one placed
// level, and what change at that level could resolve it (Figure 5). The
// matcher's candidate enumeration is latest-first, so resolutions are
// always "move the earlier level to an earlier candidate".
type conflict struct {
	// level is the backtracking level whose placed event emptied the
	// domain.
	level int
	// bound is the largest trace position of the placed level's events
	// that could possibly resolve the conflict; candidates at larger
	// positions on the same trace provably reproduce the conflict.
	// bound 0 means no candidate on the placed level's current trace
	// can resolve it (Figure 5b: prune the whole trace).
	bound int
	// hasBound distinguishes "no useful bound, fall back to
	// chronological backtracking" (false) from a real bound.
	hasBound bool
}

// restrictDomain restricts the domain of the current leaf on trace l with
// respect to one placed event, per Figure 4:
//
//	placed -> leaf : [LS(placed, l), +inf)
//	leaf -> placed : (-inf, GP(placed, l)]
//	placed || leaf : (GP(placed, l), LS(placed, l))
//	placed ~ leaf  : exactly the partner event
//
// rel is the relation from the current leaf's perspective (RelAfter means
// the placed event must happen before the leaf's event). It returns the
// narrowed interval; emptiness is detected by the caller, which then asks
// conflictBound for the Figure 5 resolution.
func restrictDomain(st *event.Store, iv interval, rel pattern.Rel, placed *event.Event, l event.TraceID) interval {
	switch rel {
	case pattern.RelAfter, pattern.RelLimAfter:
		ls := st.LS(placed, l)
		if ls == 0 {
			return interval{1, 0} // nothing on l is after placed yet
		}
		if ls > iv.lo {
			iv.lo = ls
		}
	case pattern.RelBefore, pattern.RelLim:
		gp := st.GP(placed, l)
		if gp < iv.hi {
			iv.hi = gp
		}
	case pattern.RelConcurrent:
		gp := st.GP(placed, l)
		if gp+1 > iv.lo {
			iv.lo = gp + 1
		}
		if ls := st.LS(placed, l); ls != 0 && ls-1 < iv.hi {
			iv.hi = ls - 1
		}
	case pattern.RelLink:
		p := placed.Partner.ID()
		if p.IsZero() || p.Trace != l {
			return interval{1, 0}
		}
		if p.Index > iv.lo {
			iv.lo = p.Index
		}
		if p.Index < iv.hi {
			iv.hi = p.Index
		}
	}
	return iv
}

// conflictBound derives the Figure 5 resolution for an empty domain: the
// current leaf has no candidates on trace l because of the placed event
// (on level lvl, at trace placedTrace). leafHist is the current leaf's
// history, used to locate the latest candidate the placed level would
// need to reach.
func conflictBound(st *event.Store, rel pattern.Rel, placed *event.Event, l event.TraceID, leafHist *history, lvl int) conflict {
	placedTrace := placed.ID.Trace
	switch rel {
	case pattern.RelAfter, pattern.RelLimAfter:
		// placed -> leaf failed: LS(placed, l) lies after the latest
		// class event on l (Figure 5a). A resolving candidate for the
		// placed level must happen before that latest class event z:
		// its position must be at most GP(z, placedTrace).
		ents := leafHist.entries(int(l))
		if len(ents) == 0 {
			// No class event on l at all: no candidate on the placed
			// level changes that; the trace is structurally empty.
			return conflict{level: lvl, bound: 0, hasBound: true}
		}
		z := st.Get(event.ID{Trace: l, Index: int(ents[len(ents)-1].pos)})
		return conflict{level: lvl, bound: st.GP(z, placedTrace), hasBound: true}
	case pattern.RelBefore, pattern.RelLim:
		// leaf -> placed failed: GP(placed, l) precedes every class
		// event on l (Figure 5b). Earlier candidates for the placed
		// level only shrink GP further: prune its whole trace.
		return conflict{level: lvl, bound: 0, hasBound: true}
	case pattern.RelConcurrent:
		// placed || leaf failed (Figure 5c): every class event on l is
		// at or before GP(placed, l) or at or after LS(placed, l).
		// Candidates before GP happen before placed; a resolving
		// earlier candidate for the placed level must be concurrent
		// with the latest of them, e': position < LS(e', placedTrace).
		gp := st.GP(placed, l)
		ents := leafHist.rangeEntries(int(l), 1, gp)
		if len(ents) == 0 {
			// All class events on l happen after placed; earlier
			// placed candidates still precede them: dead trace.
			return conflict{level: lvl, bound: 0, hasBound: true}
		}
		ePrime := st.Get(event.ID{Trace: l, Index: int(ents[len(ents)-1].pos)})
		ls := st.LS(ePrime, placedTrace)
		if ls == 0 {
			// Nothing on the placed trace is after e': every earlier
			// candidate is concurrent with or before e'; no skip is
			// provable, fall back to chronological.
			return conflict{level: lvl, hasBound: false}
		}
		return conflict{level: lvl, bound: ls - 1, hasBound: true}
	default:
		// Links and unconstrained relations yield no provable skip.
		return conflict{level: lvl, hasBound: false}
	}
}
