package core

import (
	"fmt"

	"ocep/internal/event"
	"ocep/internal/pattern"
)

// VerifyMatch checks a reported match against the compiled pattern. On
// its own it re-checks the match's length, that its leaves bind distinct
// events, and each leaf's class under a fresh environment, using the
// given trace-naming function. The pairwise constraints and the compound
// disjuncts it checks with pattern.Rel.Holds and pattern.Disjunct.Holds,
// the definitions the matcher uses. lim-> completion (which needs the
// full class history) is not re-checked. It backs the evaluation
// harness's no-false-positives check; the independent reference is the
// brute-force oracle in internal/baseline.
func VerifyMatch(pat *pattern.Compiled, m Match, traceName func(event.TraceID) string) error {
	if len(m.Events) != pat.K() {
		return fmt.Errorf("match has %d events, pattern has %d leaves", len(m.Events), pat.K())
	}
	for i, e := range m.Events {
		if e == nil {
			return fmt.Errorf("leaf %d unassigned", i)
		}
		for j := i + 1; j < len(m.Events); j++ {
			if m.Events[j] == e {
				return fmt.Errorf("leaves %d and %d bind the same event %s", i, j, e.ID)
			}
		}
	}
	env := pattern.NewEnv()
	for i, leaf := range pat.Leaves {
		e := m.Events[i]
		if !leaf.Class.MatchEvent(e, traceName(e.ID.Trace), env) {
			return fmt.Errorf("event %s does not match class of leaf %s", e.ID, leaf)
		}
	}
	for i := 0; i < pat.K(); i++ {
		for j := i + 1; j < pat.K(); j++ {
			rel := pat.Rel[i][j]
			if rel == pattern.RelNone {
				continue
			}
			if !rel.Holds(m.Events[i], m.Events[j]) {
				return fmt.Errorf("constraint %s between %s and %s violated",
					rel, m.Events[i].ID, m.Events[j].ID)
			}
		}
	}
	for _, d := range pat.Disjuncts {
		if !d.Holds(m.Events) {
			return fmt.Errorf("compound %s constraint between leaves %v and %v violated", d.Op, d.A, d.B)
		}
	}
	return nil
}
