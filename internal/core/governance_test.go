package core_test

// Resource-governance tests: search budgets (MaxTriggerSteps,
// TriggerDeadline), one budget over a trigger's main search and its
// GuaranteeCoverage pinned sweeps, and coverage-aware history eviction
// under MaxHistoryPerTrace.

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"ocep/internal/core"
	"ocep/internal/event"
	"ocep/internal/event/eventtest"
	"ocep/internal/pattern"
)

// hardFixture builds a workload whose single trigger forces a large
// exhaustive search with no complete match: perTrace sends of type "a"
// with pairwise-distinct texts on each of 4 traces, all received by
// trace 0, then one internal "b" on trace 0 that happens after every
// send. Against hardPattern (two leaves that must agree on a text
// variable) every (A, D) candidate pair is tried and fails, so the
// search volume is quadratic in the total send count.
func hardFixture(t *testing.T, perTrace int) (*event.Store, []*event.Event) {
	t.Helper()
	var ops []eventtest.Op
	for w := 0; w < perTrace; w++ {
		for tr := 1; tr <= 4; tr++ {
			label := fmt.Sprintf("s%d.%d", tr, w)
			ops = append(ops, eventtest.Op{
				Trace: event.TraceID(tr), Kind: event.KindSend, Type: "a",
				Text: label, Label: label,
			})
			ops = append(ops, eventtest.Op{
				Trace: 0, Kind: event.KindReceive, Type: "r", From: label,
			})
		}
	}
	ops = append(ops, eventtest.Op{Trace: 0, Kind: event.KindInternal, Type: "b"})
	return eventtest.Build(5, ops)
}

// hardPattern binds the leaves through event variables so each class
// occurs exactly once (naming a class twice in the compound would
// create a second leaf and a second trigger).
const hardPattern = `
	A := [*, a, $v];
	D := [*, a, $v];
	T := [*, b, *];
	A $a; D $d; T $t;
	pattern := ($a -> $t) && ($d -> $t);
`

func TestMaxTriggerStepsAborts(t *testing.T) {
	pat := compile(t, hardPattern)
	st, evs := hardFixture(t, 40) // 160 sends: ~160^2 candidate steps unbudgeted
	mFree, free := feedAll(t, pat, st, evs, core.Options{})
	if len(free) != 0 {
		t.Fatalf("fixture must be unmatchable, got %d matches", len(free))
	}
	if got := mFree.Stats().TriggersAborted; got != 0 {
		t.Fatalf("unbudgeted run aborted %d triggers", got)
	}
	mCap, matches := feedAll(t, pat, st, evs, core.Options{MaxTriggerSteps: 500})
	if len(matches) != 0 {
		t.Fatalf("budgeted run invented %d matches", len(matches))
	}
	sc, sf := mCap.Stats(), mFree.Stats()
	if sc.TriggersAborted != 1 {
		t.Fatalf("TriggersAborted = %d, want 1", sc.TriggersAborted)
	}
	if sc.CandidatesTried*4 > sf.CandidatesTried {
		t.Fatalf("budget did not cut the search: %d tried vs %d unbudgeted",
			sc.CandidatesTried, sf.CandidatesTried)
	}
	// The triggering event still joined the histories: the stream stays
	// consistent and later events feed without error.
	if sc.EventsSeen != sf.EventsSeen {
		t.Fatalf("budgeted run consumed %d events, unbudgeted %d", sc.EventsSeen, sf.EventsSeen)
	}
}

func TestTriggerDeadlineAborts(t *testing.T) {
	pat := compile(t, hardPattern)
	st, evs := hardFixture(t, 40)
	start := time.Now()
	m, _ := feedAll(t, pat, st, evs, core.Options{TriggerDeadline: time.Microsecond})
	if got := m.Stats().TriggersAborted; got != 1 {
		t.Fatalf("TriggersAborted = %d, want 1", got)
	}
	// Generous bound: the deadline is polled every 64 steps, so the
	// whole replay must finish far below the unbudgeted search time.
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("deadline did not bound the trigger: replay took %v", elapsed)
	}
}

// TestTriggerBudgetSharedWithPinnedSweeps: a trigger's main search and
// its GuaranteeCoverage pinned sweeps draw on one MaxTriggerSteps
// budget. Given exactly the steps the main search takes, the main
// search completes and the first pinned step exhausts the budget, so
// the trigger aborts having tried no candidate past the main search's.
// A budget per search would let every sweep run to its end.
func TestTriggerBudgetSharedWithPinnedSweeps(t *testing.T) {
	pat := compile(t, hardPattern)
	st, evs := hardFixture(t, 10)
	run := func(opts core.Options) core.Stats {
		m, matches := feedAll(t, pat, st, evs, opts)
		if len(matches) != 0 {
			t.Fatalf("%+v: invented %d matches", opts, len(matches))
		}
		return m.Stats()
	}
	main, all := run(core.Options{}), run(core.Options{GuaranteeCoverage: true})
	if all.CandidatesTried <= main.CandidatesTried {
		t.Fatalf("fixture: the pinned sweeps tried no candidate (%d with, %d without)",
			all.CandidatesTried, main.CandidatesTried)
	}
	// The fewest steps with which the main search runs to its end.
	steps := sort.Search(1<<20, func(n int) bool {
		return run(core.Options{MaxTriggerSteps: n + 1}).TriggersAborted == 0
	}) + 1
	s := run(core.Options{MaxTriggerSteps: steps, GuaranteeCoverage: true})
	if s.TriggersAborted != 1 {
		t.Fatalf("budget of %d steps: TriggersAborted = %d, want 1", steps, s.TriggersAborted)
	}
	if s.CandidatesTried != main.CandidatesTried {
		t.Fatalf("budget of %d steps: %d candidates tried, want the main search's %d",
			steps, s.CandidatesTried, main.CandidatesTried)
	}
}

// manyMatchFixture: one trigger that completes a match with every "a"
// sent from traces 1..4 (all received on trace 0 before the trigger).
func manyMatchFixture(t *testing.T, perTrace int) (*event.Store, []*event.Event) {
	t.Helper()
	var ops []eventtest.Op
	for w := 0; w < perTrace; w++ {
		for tr := 1; tr <= 4; tr++ {
			label := fmt.Sprintf("m%d.%d", tr, w)
			ops = append(ops, eventtest.Op{
				Trace: event.TraceID(tr), Kind: event.KindSend, Type: "a", Label: label,
			})
			ops = append(ops, eventtest.Op{
				Trace: 0, Kind: event.KindReceive, Type: "r", From: label,
			})
		}
	}
	ops = append(ops, eventtest.Op{Trace: 0, Kind: event.KindInternal, Type: "b"})
	return eventtest.Build(5, ops)
}

// TestMaxTriggerMatchesParallelShared: the cap is one count shared by
// everything that searches for the trigger — the top level over all
// traces, whose per-trace scans once ran on parallel workers, and the
// GuaranteeCoverage pinned sweeps — so the reported count equals the
// cap exactly, neither a per-trace nor a per-search multiple of it.
func TestMaxTriggerMatchesParallelShared(t *testing.T) {
	pat := compile(t, `A := [*, a, *]; T := [*, b, *]; pattern := A -> T;`)
	st, evs := manyMatchFixture(t, 10) // 40 complete matches uncapped
	_, uncapped := feedAll(t, pat, st, evs, core.Options{ReportAll: true, DisablePruning: true})
	if len(uncapped) != 40 {
		t.Fatalf("uncapped matches = %d, want 40", len(uncapped))
	}
	for _, pinned := range []bool{false, true} {
		m, capped := feedAll(t, pat, st, evs, core.Options{
			ReportAll: true, DisablePruning: true,
			MaxTriggerMatches: 3, GuaranteeCoverage: pinned,
		})
		if len(capped) != 3 {
			t.Fatalf("pinned=%v: capped matches = %d, want exactly 3", pinned, len(capped))
		}
		for _, c := range capped {
			if !c.Truncated {
				t.Fatalf("pinned=%v: capped match not marked Truncated", pinned)
			}
		}
		if got := m.Stats().TriggersAborted; got != 1 {
			t.Fatalf("pinned=%v: TriggersAborted = %d want 1", pinned, got)
		}
	}
}

// TestHistoryEvictionBounded: under MaxHistoryPerTrace a long stream
// keeps per-(leaf,trace) histories at the cap, counts evictions, and
// still reports matches for fresh triggers.
func TestHistoryEvictionBounded(t *testing.T) {
	pat := compile(t, `A := [*, a, *]; B := [*, b, *]; pattern := A -> B;`)
	var ops []eventtest.Op
	waves := 120
	for w := 0; w < waves; w++ {
		label := fmt.Sprintf("w%d", w)
		ops = append(ops, eventtest.Op{Trace: 0, Kind: event.KindSend, Type: "a", Label: label})
		ops = append(ops, eventtest.Op{Trace: 1, Kind: event.KindReceive, Type: "b", From: label})
	}
	st, evs := eventtest.Build(2, ops)
	m, matches := feedAll(t, pat, st, evs, core.Options{MaxHistoryPerTrace: 16})
	if len(matches) != waves {
		t.Fatalf("matches = %d, want one per wave (%d)", len(matches), waves)
	}
	s := m.Stats()
	if s.HistoryEvicted == 0 {
		t.Fatal("no history entries evicted despite cap 16 over 120 waves")
	}
	// 2 leaves x 2 traces x cap is the hard ceiling on retained entries.
	if s.HistorySize > 2*2*16 {
		t.Fatalf("HistorySize = %d exceeds the cap ceiling %d", s.HistorySize, 2*2*16)
	}
}

// TestEvictionCoverageProperty (the PR's property test): on randomized
// patterns and workloads, a run under a tight history cap must report
// the same Coverage() as the unbounded run. Eviction only sheds entries
// of already-covered pairs, so the representative subset's footprint is
// preserved.
func TestEvictionCoverageProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(987654))
	types := []string{"a", "b", "c"}
	rounds := 80
	if testing.Short() {
		rounds = 20
	}
	evictedRounds := 0
	for round := 0; round < rounds; round++ {
		src := randomPatternSource(rng, types)
		f, err := pattern.Parse(src)
		if err != nil {
			t.Fatalf("generated pattern does not parse: %v\n%s", err, src)
		}
		pat, err := pattern.Compile(f)
		if err != nil {
			continue // contradictory random constraints are legal to reject
		}
		st, evs := eventtest.Random(rng, eventtest.RandomConfig{
			Traces:   2 + rng.Intn(4),
			Events:   40 + rng.Intn(50),
			SendProb: 0.3,
			RecvProb: 0.3,
			Types:    types,
		})
		opts := core.Options{DisablePruning: true, GuaranteeCoverage: true}
		mFree, _ := feedAll(t, pat, st, evs, opts)
		optsCapped := opts
		optsCapped.MaxHistoryPerTrace = 4
		mCap, _ := feedAll(t, pat, st, evs, optsCapped)
		if mCap.Stats().HistoryEvicted > 0 {
			evictedRounds++
		}
		free := coverageKey(mFree.Coverage())
		capped := coverageKey(mCap.Coverage())
		if free != capped {
			t.Fatalf("round %d: coverage diverged under eviction\nunbounded: %s\ncapped:    %s\npattern:\n%s",
				round, free, capped, src)
		}
	}
	if evictedRounds == 0 {
		t.Fatal("the cap never evicted anything: the property was not exercised")
	}
}

func coverageKey(pairs []core.CoveredPair) string {
	out := ""
	for _, p := range pairs {
		out += fmt.Sprintf("(%d,%d)", p.Leaf, p.Trace)
	}
	return out
}
