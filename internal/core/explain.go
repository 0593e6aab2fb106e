package core

import (
	"fmt"
	"sort"
	"strings"

	"ocep/internal/event"
	"ocep/internal/pattern"
)

// ExplainMatch renders a human-readable account of why a match holds:
// each leaf's binding, every pairwise causal constraint with the
// vector-timestamp evidence, and the compound disjuncts with their
// witnessing pairs. It is the reporting counterpart of VerifyMatch.
func ExplainMatch(pat *pattern.Compiled, m Match, traceName func(event.TraceID) string) string {
	var b strings.Builder
	b.WriteString("match:\n")
	for i, leaf := range pat.Leaves {
		e := m.Events[i]
		if e == nil {
			fmt.Fprintf(&b, "  %s: <unassigned>\n", leaf)
			continue
		}
		fmt.Fprintf(&b, "  %s = %s on %s (type=%q text=%q vc=%s)\n",
			leaf, e.ID, traceName(e.ID.Trace), e.Type, e.Text, e.VC)
	}
	if len(m.Bindings) > 0 {
		b.WriteString("bindings:\n")
		for _, k := range sortedKeys(m.Bindings) {
			fmt.Fprintf(&b, "  $%s = %q\n", k, m.Bindings[k])
		}
	}
	b.WriteString("constraints:\n")
	for i := 0; i < pat.K(); i++ {
		for j := i + 1; j < pat.K(); j++ {
			rel := pat.Rel[i][j]
			if rel == pattern.RelNone {
				continue
			}
			a, c := m.Events[i], m.Events[j]
			if a == nil || c == nil {
				continue
			}
			fmt.Fprintf(&b, "  %s %s %s: %s\n",
				a.ID, relGlyph(rel), c.ID, relEvidence(rel, a, c))
		}
	}
	for _, d := range pat.Disjuncts {
		ai, bi, ok := pattern.Witness(m.Events, d.A, d.B)
		if !ok {
			continue
		}
		switch d.Op {
		case pattern.OpBefore:
			fmt.Fprintf(&b, "  weak precedence witnessed by %s -> %s\n",
				m.Events[ai].ID, m.Events[bi].ID)
		case pattern.OpEntangled:
			if ci, di, ok := pattern.Witness(m.Events, d.B, d.A); ok {
				fmt.Fprintf(&b, "  entanglement witnessed by %s -> %s and %s -> %s\n",
					m.Events[ai].ID, m.Events[bi].ID, m.Events[ci].ID, m.Events[di].ID)
			}
		}
	}
	return b.String()
}

// relGlyph is the operator glyph for a compiled relation.
func relGlyph(r pattern.Rel) string {
	switch r {
	case pattern.RelBefore:
		return "->"
	case pattern.RelAfter:
		return "<-"
	case pattern.RelConcurrent:
		return "||"
	case pattern.RelLink:
		return "~"
	case pattern.RelLim:
		return "lim->"
	case pattern.RelLimAfter:
		return "<-lim"
	default:
		return r.String()
	}
}

// relEvidence states the vector-clock fact establishing the relation.
func relEvidence(r pattern.Rel, a, b *event.Event) string {
	ta, tb := int(a.ID.Trace), int(b.ID.Trace)
	switch r {
	case pattern.RelBefore, pattern.RelLim:
		return fmt.Sprintf("V(%s)[t%d]=%d <= V(%s)[t%d]=%d",
			a.ID, ta, a.VC.Get(ta), b.ID, ta, b.VC.Get(ta))
	case pattern.RelAfter, pattern.RelLimAfter:
		return fmt.Sprintf("V(%s)[t%d]=%d <= V(%s)[t%d]=%d",
			b.ID, tb, b.VC.Get(tb), a.ID, tb, a.VC.Get(tb))
	case pattern.RelConcurrent:
		return fmt.Sprintf("V(%s)[t%d]=%d > V(%s)[t%d]=%d and V(%s)[t%d]=%d > V(%s)[t%d]=%d",
			a.ID, ta, a.VC.Get(ta), b.ID, ta, b.VC.Get(ta),
			b.ID, tb, b.VC.Get(tb), a.ID, tb, a.VC.Get(tb))
	case pattern.RelLink:
		return fmt.Sprintf("partners (%s <-> %s)", a.Partner, b.Partner)
	default:
		return ""
	}
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
