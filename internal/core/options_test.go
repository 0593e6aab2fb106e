package core_test

import (
	"math/rand"
	"testing"

	"ocep/internal/core"
	"ocep/internal/event"
	"ocep/internal/event/eventtest"
	"ocep/internal/vclock"
)

// manyMatchesFixture: ten a's on one trace, then one b on another, all
// ordered: ten complete matches end at b.
func manyMatchesFixture(t *testing.T) (st *event.Store, evs []*event.Event) {
	t.Helper()
	var ops []eventtest.Op
	for i := 0; i < 10; i++ {
		label := ""
		if i == 9 {
			label = "s"
		}
		kind := event.KindSend
		ops = append(ops, eventtest.Op{Trace: 0, Kind: kind, Type: "a", Label: label})
	}
	ops = append(ops, eventtest.Op{Trace: 1, Kind: event.KindReceive, Type: "b", From: "s"})
	return eventtest.Build(2, ops)
}

func TestMaxTriggerMatches(t *testing.T) {
	pat := compile(t, `A := [*, a, *]; B := [*, b, *]; pattern := A -> B;`)
	st, evs := manyMatchesFixture(t)
	// Exhaustive mode without a cap reports all ten.
	_, all := feedAll(t, pat, st, evs, core.Options{ReportAll: true, DisablePruning: true})
	if len(all) != 10 {
		t.Fatalf("uncapped exhaustive matches = %d want 10", len(all))
	}
	// The cap aborts the trigger's search after three, and says so.
	m, capped := feedAll(t, pat, st, evs, core.Options{
		ReportAll: true, DisablePruning: true, MaxTriggerMatches: 3,
	})
	if len(capped) != 3 {
		t.Fatalf("capped matches = %d want 3", len(capped))
	}
	for i, c := range capped {
		if !c.Truncated {
			t.Fatalf("capped match %d not marked Truncated", i)
		}
	}
	if got := m.Stats().TriggersAborted; got != 1 {
		t.Fatalf("TriggersAborted = %d want 1", got)
	}
}

// TestBackjumpingFires pins that the Figure 5 machinery actually skips
// candidates on chain patterns over communication-heavy histories (the
// case-study workloads rarely exercise it; this guards against the
// mechanism silently becoming dead code).
func TestBackjumpingFires(t *testing.T) {
	pat := compile(t, `
		A := [*, a, *]; B := [*, b, *]; C := [*, c, *];
		A $a; B $b; C $c;
		pattern := ($a -> $b) && ($b -> $c);
	`)
	rng := rand.New(rand.NewSource(5))
	total := 0
	for round := 0; round < 20; round++ {
		st, evs := eventtest.Random(rng, eventtest.RandomConfig{
			Traces: 5, Events: 300, SendProb: 0.25, RecvProb: 0.25,
			Types: []string{"a", "b", "c", "d"},
		})
		m, _ := feedAll(t, pat, st, evs, core.Options{RepresentativeOnly: true})
		total += m.Stats().BackjumpSkips
	}
	if total == 0 {
		t.Fatalf("backjumping never skipped a candidate across 20 random runs")
	}
}

func TestCoverageReport(t *testing.T) {
	pat := compile(t, `A := [*, a, *]; B := [*, b, *]; pattern := A -> B;`)
	st, evs := eventtest.Build(3, []eventtest.Op{
		{Trace: 0, Kind: event.KindSend, Type: "a", Label: "s"},
		{Trace: 1, Kind: event.KindReceive, Type: "b", From: "s"},
		{Trace: 2, Kind: event.KindInternal, Type: "a"}, // concurrent: no match
	})
	m, _ := feedAll(t, pat, st, evs, core.Options{})
	cov := m.Coverage()
	if len(cov) != 2 {
		t.Fatalf("coverage = %v want two pairs", cov)
	}
	want := map[core.CoveredPair]bool{
		{Leaf: 0, Trace: 0}: true,
		{Leaf: 1, Trace: 1}: true,
	}
	for _, p := range cov {
		if !want[p] {
			t.Errorf("unexpected covered pair %+v", p)
		}
	}
}

func TestLimDisablesPruning(t *testing.T) {
	// lim->'s completion check scans the class history, so the matcher
	// must keep duplicates even when pruning is on by default.
	pat := compile(t, `A := [*, a, *]; B := [*, b, *]; pattern := A lim-> B;`)
	m := core.NewMatcher(pat, core.Options{})
	m.RegisterTrace("p0")
	for i := 1; i <= 5; i++ {
		e := &event.Event{
			ID:   event.ID{Trace: 0, Index: i},
			Kind: event.KindInternal,
			Type: "a",
			VC:   vclockAt(i),
		}
		if _, err := m.Feed(e); err != nil {
			t.Fatal(err)
		}
	}
	s := m.Stats()
	if s.HistoryPruned != 0 {
		t.Fatalf("pruning must be disabled for lim patterns, pruned %d", s.HistoryPruned)
	}
	if s.HistorySize != 5 {
		t.Fatalf("history = %d want 5", s.HistorySize)
	}
}

func vclockAt(i int) vclock.Stamp {
	return vclock.VC{int32(i)}.Stamp(0)
}

func TestLinkPinningSkipsForeignTraces(t *testing.T) {
	// A linked leaf's scan must not visit traces other than the
	// partner's: compare domain computations against a 5-trace world.
	pat := compile(t, `
		S := [*, send, *];
		R := [*, recv, *];
		pattern := S ~ R;
	`)
	var ops []eventtest.Op
	// Three noise traces plus a send/recv pair.
	for tr := 2; tr < 5; tr++ {
		ops = append(ops, eventtest.Op{Trace: event.TraceID(tr), Kind: event.KindInternal, Type: "noise"})
	}
	ops = append(ops,
		eventtest.Op{Trace: 0, Kind: event.KindSend, Type: "send", Label: "m"},
		eventtest.Op{Trace: 1, Kind: event.KindReceive, Type: "recv", From: "m"},
	)
	st, evs := eventtest.Build(5, ops)
	m, matches := feedAll(t, pat, st, evs, core.Options{})
	if len(matches) != 1 {
		t.Fatalf("matches = %d want 1", len(matches))
	}
	// Trigger on the recv: S is link-pinned to trace 0. Trigger on the
	// send: R's partner is unknown yet (fails fast). Either way the
	// domain scans stay in single digits instead of 2 levels x 5 traces
	// x triggers.
	if got := m.Stats().DomainsComputed; got > 6 {
		t.Fatalf("link pinning not effective: %d domains computed", got)
	}
}

func TestProcHintSkipsForeignTraces(t *testing.T) {
	pat := compile(t, `
		A := [p0, a, *];
		B := [p1, b, *];
		pattern := A -> B;
	`)
	var ops []eventtest.Op
	for tr := 2; tr < 6; tr++ {
		ops = append(ops, eventtest.Op{Trace: event.TraceID(tr), Kind: event.KindInternal, Type: "a"})
	}
	ops = append(ops,
		eventtest.Op{Trace: 0, Kind: event.KindSend, Type: "a", Label: "m"},
		eventtest.Op{Trace: 1, Kind: event.KindReceive, Type: "b", From: "m"},
	)
	st, evs := eventtest.Build(6, ops)
	m, matches := feedAll(t, pat, st, evs, core.Options{})
	if len(matches) != 1 {
		t.Fatalf("matches = %d want 1", len(matches))
	}
	// Only the b on p1 triggers; A's scan visits only p0.
	if got := m.Stats().DomainsComputed; got > 2 {
		t.Fatalf("proc-hint pinning not effective: %d domains computed", got)
	}
}
