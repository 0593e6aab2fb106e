package core_test

import (
	"fmt"
	"reflect"
	"testing"

	"ocep/internal/bench"
	"ocep/internal/core"
	"ocep/internal/pattern"
)

// This file is the case-study half of the compiled-vs-interpreted
// differential suite: on each of the four paper workloads the compiled
// execution must reproduce the interpreted reference's match sets,
// truncation flags, coverage and counters exactly — including under a
// search budget that never fires, one that fires on every trigger, and
// the GuaranteeCoverage pinned sweeps. The
// random-pattern half is TestRandomPatternsCompiledMatchesInterpreted
// and FuzzCompiledVsInterpreted.

// matchMultiset canonicalizes a match set, truncation flags included, so
// a comparison covers Match.Truncated as well as the events per leaf.
func matchMultiset(ms []core.Match) map[string]int {
	out := make(map[string]int, len(ms))
	for _, m := range ms {
		out[matchKey(m)+fmt.Sprintf("trunc=%v", m.Truncated)]++
	}
	return out
}

// runDiff replays one workload through both executions under the given
// options and fails the test on any observable divergence.
func runDiff(t *testing.T, w *bench.Workload, pat *pattern.Compiled, label string, opts core.Options) core.Stats {
	t.Helper()
	st, evs := w.Collector.Store(), w.Collector.Ordered()
	cm, cMatches := soloFeed(t, core.NewMatcherOn(pat, st, opts), evs)
	im, iMatches := soloFeed(t, core.NewInterpretedMatcherOn(pat, st, opts), evs)
	got, want := matchMultiset(cMatches), matchMultiset(iMatches)
	if len(got) != len(want) {
		t.Fatalf("%s: distinct matches differ: compiled %d, interpreted %d", label, len(got), len(want))
	}
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("%s: match %s reported %d times compiled, %d interpreted", label, k, got[k], n)
		}
	}
	// Every counter is path-independent on the sequential search: the
	// compiled form changes data layout and dispatch, never the search
	// decisions, so full Stats equality is the contract (HistorySize
	// included — the same events joined the same histories).
	cs, is := cm.Stats(), im.Stats()
	if cs != is {
		t.Fatalf("%s: stats diverged:\ncompiled    %+v\ninterpreted %+v", label, cs, is)
	}
	if cc, ic := cm.Coverage(), im.Coverage(); !reflect.DeepEqual(cc, ic) {
		t.Fatalf("%s: coverage diverged:\ncompiled    %v\ninterpreted %v", label, cc, ic)
	}
	return cs
}

// TestCompiledDifferentialCaseStudies runs the differential on all four
// paper case studies in the paper's reporting mode, then under a
// never-firing and an always-firing search budget, then with the
// GuaranteeCoverage pinned sweeps.
func TestCompiledDifferentialCaseStudies(t *testing.T) {
	events := 6_000
	if testing.Short() {
		events = 2_000
	}
	budgets := []struct {
		name string
		mut  func(*core.Options)
	}{
		{"paper", func(*core.Options) {}},
		// A budget high enough that no trigger exhausts it: the budget
		// machinery runs (per-candidate steps are counted) but never
		// fires, and no match may be marked truncated.
		{"budget-never", func(o *core.Options) { o.MaxTriggerSteps = 1 << 30 }},
		// A budget of one step: every trigger that searches at all
		// aborts immediately, so the truncation flags and TriggersAborted
		// accounting are exercised on every trigger.
		{"budget-always", func(o *core.Options) { o.MaxTriggerSteps = 1 }},
		// Pinned sweeps: each draws a search from the free list while the
		// trigger's main search is still out; the interpreted reference
		// allocates every search afresh.
		{"coverage-guaranteed", func(o *core.Options) { o.GuaranteeCoverage = true }},
	}
	for _, c := range bench.Cases {
		w, err := bench.Generate(bench.GenConfig{Case: c, Traces: 4, TargetEvents: events, Seed: 7})
		if err != nil {
			t.Fatalf("%s: generate: %v", c, err)
		}
		pat := compile(t, w.Pattern)
		for _, b := range budgets {
			opts := bench.PaperOptions()
			b.mut(&opts)
			runDiff(t, w, pat, fmt.Sprintf("%s/%s", c, b.name), opts)
		}
	}
}

// TestCompiledDifferentialBudgetFires sanity-checks the always-firing
// budget actually aborts triggers on at least one case study, so the
// budget rows of the differential are not vacuously passing.
func TestCompiledDifferentialBudgetFires(t *testing.T) {
	w, err := bench.Generate(bench.GenConfig{Case: bench.CaseMsgRace, Traces: 4, TargetEvents: 2_000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	opts := bench.PaperOptions()
	opts.MaxTriggerSteps = 1
	if st := runDiff(t, w, compile(t, w.Pattern), "races/budget-always", opts); st.TriggersAborted == 0 {
		t.Fatal("MaxTriggerSteps=1 aborted no triggers: the always-firing differential is vacuous")
	}
}
