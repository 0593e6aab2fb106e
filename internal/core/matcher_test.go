package core_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"ocep/internal/baseline"
	"ocep/internal/core"
	"ocep/internal/event"
	"ocep/internal/event/eventtest"
	"ocep/internal/pattern"
	"ocep/internal/vclock"
)

func compile(t *testing.T, src string) *pattern.Compiled {
	t.Helper()
	f, err := pattern.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	c, err := pattern.Compile(f)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return c
}

// feedAll replays a linearization into a fresh matcher and returns it
// with all reported matches.
func feedAll(t *testing.T, pat *pattern.Compiled, st *event.Store, evs []*event.Event, opts core.Options) (*core.Matcher, []core.Match) {
	t.Helper()
	return feedInto(t, core.NewMatcher(pat, opts), st, evs)
}

// feedAllInterpreted is feedAll through the interpreted reference
// execution.
func feedAllInterpreted(t *testing.T, pat *pattern.Compiled, st *event.Store, evs []*event.Event, opts core.Options) (*core.Matcher, []core.Match) {
	t.Helper()
	return feedInto(t, core.NewInterpretedMatcher(pat, opts), st, evs)
}

func feedInto(t *testing.T, m *core.Matcher, st *event.Store, evs []*event.Event) (*core.Matcher, []core.Match) {
	t.Helper()
	for i := 0; i < st.NumTraces(); i++ {
		m.RegisterTrace(st.TraceName(event.TraceID(i)))
	}
	var all []core.Match
	for _, e := range evs {
		copied := *e
		copied.VC = e.VC.Dense().Stamp(e.VC.Trace())
		got, err := m.Feed(&copied)
		if err != nil {
			t.Fatalf("feed %s: %v", e.ID, err)
		}
		all = append(all, got...)
	}
	return m, all
}

func TestSimpleHappensBefore(t *testing.T) {
	pat := compile(t, `
		A := [*, a, *];
		B := [*, b, *];
		pattern := A -> B;
	`)
	// p0 sends (type a), p1 receives (type b): a -> b.
	st, evs := eventtest.Build(2, []eventtest.Op{
		{Trace: 0, Kind: event.KindSend, Type: "a", Label: "s"},
		{Trace: 1, Kind: event.KindReceive, Type: "b", From: "s"},
	})
	_, matches := feedAll(t, pat, st, evs, core.Options{})
	if len(matches) != 1 {
		t.Fatalf("matches = %d want 1", len(matches))
	}
	m := matches[0]
	if m.Events[0].ID != (event.ID{Trace: 0, Index: 1}) || m.Events[1].ID != (event.ID{Trace: 1, Index: 1}) {
		t.Fatalf("match events = %v, %v", m.Events[0].ID, m.Events[1].ID)
	}
}

func TestNoMatchWhenConcurrent(t *testing.T) {
	pat := compile(t, `
		A := [*, a, *];
		B := [*, b, *];
		pattern := A -> B;
	`)
	// Two internal events on different traces: concurrent, no match.
	st, evs := eventtest.Build(2, []eventtest.Op{
		{Trace: 0, Kind: event.KindInternal, Type: "a"},
		{Trace: 1, Kind: event.KindInternal, Type: "b"},
	})
	_, matches := feedAll(t, pat, st, evs, core.Options{})
	if len(matches) != 0 {
		t.Fatalf("matches = %d want 0", len(matches))
	}
}

func TestConcurrentPattern(t *testing.T) {
	pat := compile(t, `
		A := [*, a, *];
		B := [*, b, *];
		pattern := A || B;
	`)
	st, evs := eventtest.Build(2, []eventtest.Op{
		{Trace: 0, Kind: event.KindInternal, Type: "a"},
		{Trace: 1, Kind: event.KindInternal, Type: "b"},
	})
	_, matches := feedAll(t, pat, st, evs, core.Options{})
	if len(matches) == 0 {
		t.Fatalf("concurrent events must match A || B")
	}
	// And with a causal chain there must be no match.
	st2, evs2 := eventtest.Build(2, []eventtest.Op{
		{Trace: 0, Kind: event.KindSend, Type: "a", Label: "s"},
		{Trace: 1, Kind: event.KindReceive, Type: "b", From: "s"},
	})
	_, matches2 := feedAll(t, pat, st2, evs2, core.Options{})
	if len(matches2) != 0 {
		t.Fatalf("ordered events must not match A || B: %d", len(matches2))
	}
}

func TestFigure3Scenario(t *testing.T) {
	// The process-time diagram of Figure 3: three traces; class-a events
	// on P1 (a13 a14 a15), P2 (a21), P3 (a33 a34); one b (b25) on P2.
	// Arrival of b25 yields matches a13b25, a14b25, a15b25, a21b25; the
	// desired representative subset is {a15b25, a21b25}: latest per
	// trace with an a that happens before b25, nothing from P3 (its a's
	// are concurrent with b25).
	//
	// Causality: P1's a15 is a send received by P2 before b25 (so all of
	// P1's earlier events happen before b25); a21 is on P2 itself; P3
	// never communicates.
	ops := []eventtest.Op{
		{Trace: 1, Kind: event.KindInternal, Type: "a"},             // a21
		{Trace: 1, Kind: event.KindInternal, Type: "d"},             // d22
		{Trace: 0, Kind: event.KindInternal, Type: "c"},             // c11
		{Trace: 0, Kind: event.KindInternal, Type: "d"},             // d12
		{Trace: 0, Kind: event.KindInternal, Type: "a"},             // a13
		{Trace: 0, Kind: event.KindInternal, Type: "a"},             // a14
		{Trace: 0, Kind: event.KindSend, Type: "a", Label: "a15"},   // a15
		{Trace: 2, Kind: event.KindInternal, Type: "d"},             // d31
		{Trace: 2, Kind: event.KindInternal, Type: "e"},             // e32
		{Trace: 2, Kind: event.KindInternal, Type: "a"},             // a33
		{Trace: 2, Kind: event.KindInternal, Type: "a"},             // a34
		{Trace: 1, Kind: event.KindReceive, Type: "e", From: "a15"}, // e23
		{Trace: 1, Kind: event.KindInternal, Type: "b"},             // b25
	}
	st, evs := eventtest.Build(3, ops)
	pat := compile(t, `
		A := [*, a, *];
		B := [*, b, *];
		pattern := A -> B;
	`)
	// Oracle: all matches (the "All" row of Figure 3).
	all := baseline.AllMatches(pat, st)
	if len(all) != 4 {
		t.Fatalf("oracle matches = %d want 4 (a13,a14,a15,a21 x b25)", len(all))
	}
	// OCEP with duplicate pruning off (a13/a14/a15 are comm-free
	// duplicates and would collapse): representative subset per trace.
	_, matches := feedAll(t, pat, st, evs, core.Options{DisablePruning: true})
	if len(matches) != 2 {
		for _, m := range matches {
			t.Logf("match: %v %v", m.Events[0].ID, m.Events[1].ID)
		}
		t.Fatalf("reported matches = %d want 2 (one per trace with an a before b)", len(matches))
	}
	// First reported match must use the latest a on P1: a15 (index 5).
	got := map[string]bool{}
	for _, m := range matches {
		got[m.Events[0].ID.String()] = true
	}
	if !got["t0#5"] || !got["t1#1"] {
		t.Fatalf("representative subset = %v, want a15 (t0#5) and a21 (t1#1)", got)
	}
}

func TestVariableBindingAcrossLeaves(t *testing.T) {
	// Send := [$1, send, $2]; Recv := [$2, recv, $1]: the text fields
	// encode the peer process, so only matching pairs bind.
	pat := compile(t, `
		Send := [$1, send, $2];
		Recv := [$2, recv, $1];
		pattern := Send -> Recv;
	`)
	st, evs := eventtest.Build(3, []eventtest.Op{
		{Trace: 0, Kind: event.KindSend, Type: "send", Text: "p1", Label: "s01"},
		{Trace: 1, Kind: event.KindReceive, Type: "recv", Text: "p0", From: "s01"},
		{Trace: 2, Kind: event.KindInternal, Type: "recv", Text: "p0"},
	})
	_, matches := feedAll(t, pat, st, evs, core.Options{})
	if len(matches) != 1 {
		t.Fatalf("matches = %d want 1", len(matches))
	}
	b := matches[0].Bindings
	if b["1"] != "p0" || b["2"] != "p1" {
		t.Fatalf("bindings = %v", b)
	}
}

func TestEventVariableSharedLeaf(t *testing.T) {
	// ($x -> B) && ($x -> C): the same a must precede both.
	pat := compile(t, `
		A := [*, a, *];
		B := [*, b, *];
		C := [*, c, *];
		A $x;
		pattern := ($x -> B) && ($x -> C);
	`)
	st, evs := eventtest.Build(3, []eventtest.Op{
		{Trace: 0, Kind: event.KindSend, Type: "a", Label: "s1"},
		{Trace: 1, Kind: event.KindReceive, Type: "b", From: "s1", Label: "r1"},
		{Trace: 1, Kind: event.KindSend, Type: "fwd", Label: "s2"},
		{Trace: 2, Kind: event.KindReceive, Type: "c", From: "s2"},
	})
	_, matches := feedAll(t, pat, st, evs, core.Options{})
	if len(matches) != 1 {
		t.Fatalf("matches = %d want 1", len(matches))
	}
	if matches[0].Events[0].Type != "a" {
		t.Fatalf("leaf 0 should be the shared $x event, got %s", matches[0].Events[0])
	}
}

func TestLinkOperator(t *testing.T) {
	pat := compile(t, `
		S := [*, send, *];
		R := [*, recv, *];
		pattern := S ~ R;
	`)
	st, evs := eventtest.Build(3, []eventtest.Op{
		{Trace: 0, Kind: event.KindSend, Type: "send", Label: "s1"},
		{Trace: 2, Kind: event.KindSend, Type: "send", Label: "s2"},
		{Trace: 1, Kind: event.KindReceive, Type: "recv", From: "s1"},
		{Trace: 1, Kind: event.KindReceive, Type: "recv", From: "s2"},
	})
	_, matches := feedAll(t, pat, st, evs, core.Options{ReportAll: true})
	if len(matches) != 2 {
		t.Fatalf("matches = %d want 2 (each send with its own receive)", len(matches))
	}
	for _, m := range matches {
		s, r := m.Events[0], m.Events[1]
		if s.Partner.ID() != r.ID || r.Partner.ID() != s.ID {
			t.Fatalf("linked match not partners: %s / %s", s, r)
		}
	}
}

func TestLimOperator(t *testing.T) {
	// a lim-> b: no other class-a event causally between.
	pat := compile(t, `
		A := [*, a, *];
		B := [*, b, *];
		pattern := A lim-> B;
	`)
	// Chain: a1 -> a2 -> b. Only a2 lim-precedes b.
	st, evs := eventtest.Build(2, []eventtest.Op{
		{Trace: 0, Kind: event.KindInternal, Type: "a"},
		{Trace: 0, Kind: event.KindSend, Type: "a", Label: "s"},
		{Trace: 1, Kind: event.KindReceive, Type: "b", From: "s"},
	})
	_, matches := feedAll(t, pat, st, evs, core.Options{ReportAll: true})
	if len(matches) != 1 {
		t.Fatalf("matches = %d want 1", len(matches))
	}
	if matches[0].Events[0].ID != (event.ID{Trace: 0, Index: 2}) {
		t.Fatalf("lim match uses %s, want the immediate predecessor t0#2", matches[0].Events[0].ID)
	}
}

func TestWeakPrecedenceCompound(t *testing.T) {
	// (A || B) -> (C || D): some constituent of the left precedes some
	// constituent of the right, and the compounds do not cross.
	pat := compile(t, `
		A := [*, a, *]; B := [*, b, *]; C := [*, c, *]; D := [*, d, *];
		pattern := (A || B) -> (C || D);
	`)
	// a || b, c || d, a -> c (via message), nothing else ordered.
	st, evs := eventtest.Build(4, []eventtest.Op{
		{Trace: 0, Kind: event.KindSend, Type: "a", Label: "s"},
		{Trace: 1, Kind: event.KindInternal, Type: "b"},
		{Trace: 2, Kind: event.KindReceive, Type: "c", From: "s"},
		{Trace: 3, Kind: event.KindInternal, Type: "d"},
	})
	_, matches := feedAll(t, pat, st, evs, core.Options{ReportAll: true})
	if len(matches) == 0 {
		t.Fatalf("expected a weak-precedence match")
	}
}

func TestEntanglementOperator(t *testing.T) {
	// Two message exchanges that cross:
	//   trace0: a (send m1), b (recv m2)
	//   trace1: c (send m2), d (recv m1)
	// M1 = {a, b} with a -> b; M2 = {c, d} with c -> d; a -> d and
	// c -> b, so M1 and M2 cross: (A -> B) <-> (C -> D) matches.
	pat := compile(t, `
		A := [*, a, *]; B := [*, b, *]; C := [*, c, *]; D := [*, d, *];
		pattern := (A -> B) <-> (C -> D);
	`)
	st, evs := eventtest.Build(2, []eventtest.Op{
		{Trace: 0, Kind: event.KindSend, Type: "a", Label: "m1"},
		{Trace: 1, Kind: event.KindSend, Type: "c", Label: "m2"},
		{Trace: 1, Kind: event.KindReceive, Type: "d", From: "m1"},
		{Trace: 0, Kind: event.KindReceive, Type: "b", From: "m2"},
	})
	_, matches := feedAll(t, pat, st, evs, core.Options{ReportAll: true})
	if len(matches) != 1 {
		t.Fatalf("matches = %d want 1", len(matches))
	}
	// Against the oracle too.
	if got := len(baseline.AllMatches(pat, st)); got != 1 {
		t.Fatalf("oracle matches = %d want 1", got)
	}

	// A non-crossing arrangement (both exchanges one-directional) must
	// not match: a -> b, c -> d, a -> d but nothing from M2 into M1.
	st2, evs2 := eventtest.Build(3, []eventtest.Op{
		{Trace: 0, Kind: event.KindSend, Type: "a", Label: "x1"},
		{Trace: 1, Kind: event.KindReceive, Type: "b", From: "x1"},
		{Trace: 1, Kind: event.KindSend, Type: "c", Label: "x2"},
		{Trace: 2, Kind: event.KindReceive, Type: "d", From: "x2"},
	})
	_, matches2 := feedAll(t, pat, st2, evs2, core.Options{ReportAll: true})
	if len(matches2) != 0 {
		t.Fatalf("non-crossing compounds matched <->: %d", len(matches2))
	}
}

func TestSingleLeafPattern(t *testing.T) {
	pat := compile(t, `
		A := [*, alarm, *];
		pattern := A;
	`)
	st, evs := eventtest.Build(2, []eventtest.Op{
		{Trace: 0, Kind: event.KindInternal, Type: "noise"},
		{Trace: 1, Kind: event.KindInternal, Type: "alarm"},
	})
	_, matches := feedAll(t, pat, st, evs, core.Options{})
	if len(matches) != 1 {
		t.Fatalf("matches = %d want 1", len(matches))
	}
}

func TestDistinctEventsPerLeaf(t *testing.T) {
	// A || A must not match a single event with itself.
	pat := compile(t, `
		A := [*, a, *];
		pattern := A || A;
	`)
	st, evs := eventtest.Build(2, []eventtest.Op{
		{Trace: 0, Kind: event.KindInternal, Type: "a"},
	})
	_, matches := feedAll(t, pat, st, evs, core.Options{ReportAll: true})
	if len(matches) != 0 {
		t.Fatalf("an event matched concurrent with itself")
	}
	// Two genuinely concurrent a's do match.
	st2, evs2 := eventtest.Build(2, []eventtest.Op{
		{Trace: 0, Kind: event.KindInternal, Type: "a"},
		{Trace: 1, Kind: event.KindInternal, Type: "a"},
	})
	_, matches2 := feedAll(t, pat, st2, evs2, core.Options{ReportAll: true})
	if len(matches2) == 0 {
		t.Fatalf("two concurrent a's must match A || A")
	}
}

func TestFeedOutOfOrderRejected(t *testing.T) {
	pat := compile(t, `
		A := [*, a, *];
		pattern := A;
	`)
	m := core.NewMatcher(pat, core.Options{})
	m.RegisterTrace("p0")
	bad := &event.Event{ID: event.ID{Trace: 0, Index: 5}, Kind: event.KindInternal, Type: "a"}
	if _, err := m.Feed(bad); err == nil {
		t.Fatalf("out-of-order feed must error")
	}
}

func TestStatsAccounting(t *testing.T) {
	pat := compile(t, `
		A := [*, a, *];
		B := [*, b, *];
		pattern := A -> B;
	`)
	st, evs := eventtest.Build(2, []eventtest.Op{
		{Trace: 0, Kind: event.KindSend, Type: "a", Label: "s"},
		{Trace: 0, Kind: event.KindInternal, Type: "x"}, // joins nothing
		{Trace: 1, Kind: event.KindReceive, Type: "b", From: "s"},
	})
	m, _ := feedAll(t, pat, st, evs, core.Options{})
	stats := m.Stats()
	if stats.EventsSeen != 3 {
		t.Errorf("EventsSeen = %d want 3", stats.EventsSeen)
	}
	if stats.EventsMatched != 2 {
		t.Errorf("EventsMatched = %d want 2", stats.EventsMatched)
	}
	if stats.Triggers != 1 {
		t.Errorf("Triggers = %d want 1 (only b terminates)", stats.Triggers)
	}
	if stats.CompleteMatches != 1 || stats.Reported != 1 {
		t.Errorf("CompleteMatches/Reported = %d/%d want 1/1", stats.CompleteMatches, stats.Reported)
	}
	if stats.HistorySize == 0 {
		t.Errorf("HistorySize must be positive")
	}
}

// randomPatterns are the pattern sources used by the randomized
// oracle-comparison tests.
var randomPatterns = []string{
	`A := [*, a, *]; B := [*, b, *]; pattern := A -> B;`,
	`A := [*, a, *]; B := [*, b, *]; pattern := A || B;`,
	`A := [*, a, *]; B := [*, b, *]; C := [*, c, *];
	 A $x; B $y; C $z;
	 pattern := ($x -> $y) && ($y -> $z);`,
	`A := [*, a, *]; B := [*, b, *]; C := [*, c, *];
	 pattern := (A -> B) && (A -> C);`,
	`A := [*, a, *]; B := [*, b, *]; C := [*, c, *];
	 A $x;
	 pattern := ($x -> B) && ($x || C);`,
	`A := [*, a, *]; B := [*, b, *]; pattern := A => B;`,
	`A := [*, a, *]; B := [*, b, *]; C := [*, c, *];
	 pattern := (A || B) -> C;`,
}

// TestMatcherSoundnessRandom: every match OCEP reports must satisfy all
// constraints (checked against the oracle's full match list).
func TestMatcherSoundnessRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for pi, src := range randomPatterns {
		pat := compile(t, src)
		for round := 0; round < 6; round++ {
			st, evs := eventtest.Random(rng, eventtest.RandomConfig{
				Traces:   2 + rng.Intn(4),
				Events:   40 + rng.Intn(40),
				SendProb: 0.3,
				RecvProb: 0.3,
				Types:    []string{"a", "b", "c", "x"},
			})
			oracleMatches := baseline.AllMatches(pat, st)
			oracleSet := make(map[string]bool, len(oracleMatches))
			for _, m := range oracleMatches {
				oracleSet[matchKey(m)] = true
			}
			_, got := feedAll(t, pat, st, evs, core.Options{DisablePruning: true, ReportAll: true})
			for _, m := range got {
				if !oracleSet[matchKey(m)] {
					t.Fatalf("pattern %d round %d: reported match %s not valid per oracle", pi, round, matchKey(m))
				}
			}
		}
	}
}

func matchKey(m core.Match) string {
	s := ""
	for _, e := range m.Events {
		s += fmt.Sprintf("%s;", e.ID)
	}
	return s
}

// TestMatcherCoverageRandom: with GuaranteeCoverage, the (leaf, trace)
// pairs covered by reported matches equal the oracle's coverage.
func TestMatcherCoverageRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for pi, src := range randomPatterns {
		pat := compile(t, src)
		for round := 0; round < 6; round++ {
			st, evs := eventtest.Random(rng, eventtest.RandomConfig{
				Traces:   2 + rng.Intn(4),
				Events:   40 + rng.Intn(30),
				SendProb: 0.3,
				RecvProb: 0.3,
				Types:    []string{"a", "b", "c", "x"},
			})
			want := baseline.Coverage(baseline.AllMatches(pat, st))
			_, got := feedAll(t, pat, st, evs, core.Options{
				DisablePruning:    true,
				GuaranteeCoverage: true,
			})
			gotCov := baseline.Coverage(got)
			for pair := range want {
				if !gotCov[pair] {
					t.Fatalf("pattern %d round %d: pair leaf=%d trace=%d in oracle coverage but not covered by OCEP",
						pi, round, pair[0], pair[1])
				}
			}
			for pair := range gotCov {
				if !want[pair] {
					t.Fatalf("pattern %d round %d: OCEP covered leaf=%d trace=%d not present in any oracle match",
						pi, round, pair[0], pair[1])
				}
			}
		}
	}
}

// TestMatcherFirstMatchCompleteness: for every event, OCEP reports at
// least one match exactly when a match ends at that event.
func TestMatcherFirstMatchCompleteness(t *testing.T) {
	rng := rand.New(rand.NewSource(4321))
	for pi, src := range randomPatterns {
		pat := compile(t, src)
		for round := 0; round < 4; round++ {
			st, evs := eventtest.Random(rng, eventtest.RandomConfig{
				Traces:   3,
				Events:   50,
				SendProb: 0.3,
				RecvProb: 0.3,
				Types:    []string{"a", "b", "c"},
			})
			oracleMatches := baseline.AllMatches(pat, st)
			// Delivery position of each event.
			pos := make(map[event.ID]int, len(evs))
			for i, e := range evs {
				pos[e.ID] = i
			}
			// endsAt[i]: a match's last-delivered event is evs[i].
			endsAt := make([]bool, len(evs))
			for _, m := range oracleMatches {
				last := -1
				for _, e := range m.Events {
					if p := pos[e.ID]; p > last {
						last = p
					}
				}
				endsAt[last] = true
			}
			m := core.NewMatcher(pat, core.Options{DisablePruning: true, ReportAll: true})
			for i := 0; i < st.NumTraces(); i++ {
				m.RegisterTrace(st.TraceName(event.TraceID(i)))
			}
			for i, e := range evs {
				copied := *e
				got, err := m.Feed(&copied)
				if err != nil {
					t.Fatal(err)
				}
				if endsAt[i] && len(got) == 0 {
					t.Fatalf("pattern %d round %d: a match ends at %s but OCEP reported nothing", pi, round, e.ID)
				}
				if !endsAt[i] && len(got) > 0 {
					t.Fatalf("pattern %d round %d: OCEP reported a match at %s but no match ends there", pi, round, e.ID)
				}
			}
		}
	}
}

// TestAblationModesAgree: disabling causal domains or backjumping must
// not change reported matches.
func TestAblationModesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(5150))
	for pi, src := range randomPatterns {
		pat := compile(t, src)
		st, evs := eventtest.Random(rng, eventtest.RandomConfig{
			Traces:   4,
			Events:   60,
			SendProb: 0.3,
			RecvProb: 0.3,
			Types:    []string{"a", "b", "c"},
		})
		var keys [][]string
		for _, opts := range []core.Options{
			{DisablePruning: true, ReportAll: true},
			{DisablePruning: true, ReportAll: true, DisableBackjumping: true},
			{DisablePruning: true, ReportAll: true, DisableCausalDomains: true},
			{DisablePruning: true, ReportAll: true, DisableBackjumping: true, DisableCausalDomains: true},
			{DisablePruning: true, ReportAll: true, StaticOrder: true},
			{DisablePruning: true, ReportAll: true, StaticOrder: true, DisableBackjumping: true},
		} {
			_, got := feedAll(t, pat, st, evs, opts)
			ks := make([]string, len(got))
			for i, m := range got {
				ks[i] = matchKey(m)
			}
			// Variants may enumerate in different orders (e.g. static
			// vs dynamic leaf ordering); the reported SET must agree.
			sort.Strings(ks)
			keys = append(keys, ks)
		}
		for v := 1; v < len(keys); v++ {
			if len(keys[v]) != len(keys[0]) {
				t.Fatalf("pattern %d: variant %d reported %d matches, baseline %d", pi, v, len(keys[v]), len(keys[0]))
			}
			for i := range keys[v] {
				if keys[v][i] != keys[0][i] {
					t.Fatalf("pattern %d: variant %d match %d = %s, baseline %s", pi, v, i, keys[v][i], keys[0][i])
				}
			}
		}
	}
}

// TestDuplicatePruningKeepsCrossTraceCoverage: with pruning on, coverage
// restricted to cross-trace matches is preserved.
func TestDuplicatePruningKeepsCrossTraceCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(31337))
	pat := compile(t, `A := [*, a, *]; B := [*, b, *]; pattern := A -> B;`)
	for round := 0; round < 10; round++ {
		st, evs := eventtest.Random(rng, eventtest.RandomConfig{
			Traces:   3,
			Events:   60,
			SendProb: 0.25,
			RecvProb: 0.25,
			Types:    []string{"a", "b"},
		})
		// Oracle coverage over cross-trace matches only.
		want := make(map[[2]int]bool)
		for _, m := range baseline.AllMatches(pat, st) {
			if m.Events[0].ID.Trace == m.Events[1].ID.Trace {
				continue
			}
			for leaf, e := range m.Events {
				want[[2]int{leaf, int(e.ID.Trace)}] = true
			}
		}
		_, got := feedAll(t, pat, st, evs, core.Options{GuaranteeCoverage: true})
		gotCov := baseline.Coverage(got)
		for pair := range want {
			if !gotCov[pair] {
				t.Fatalf("round %d: cross-trace pair %v lost under duplicate pruning", round, pair)
			}
		}
	}
}

// TestPruningBoundsHistory: with pruning on, runs of comm-free internal
// events collapse to one entry.
func TestPruningBoundsHistory(t *testing.T) {
	pat := compile(t, `A := [*, a, *]; B := [*, b, *]; pattern := A -> B;`)
	m := core.NewMatcher(pat, core.Options{})
	m.RegisterTrace("p0")
	for i := 1; i <= 100; i++ {
		e := &event.Event{
			ID:   event.ID{Trace: 0, Index: i},
			Kind: event.KindInternal,
			Type: "a",
			VC:   vclock.VC{int32(i)}.Stamp(0),
		}
		if _, err := m.Feed(e); err != nil {
			t.Fatal(err)
		}
	}
	stats := m.Stats()
	if stats.HistorySize != 1 {
		t.Fatalf("HistorySize = %d want 1 (run collapsed)", stats.HistorySize)
	}
	if stats.HistoryPruned != 99 {
		t.Fatalf("HistoryPruned = %d want 99", stats.HistoryPruned)
	}
}
