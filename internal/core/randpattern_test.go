package core_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"ocep/internal/baseline"
	"ocep/internal/core"
	"ocep/internal/event"
	"ocep/internal/event/eventtest"
	"ocep/internal/pattern"
)

// randomPatternSource generates a random compilable pattern over the
// type pool: k leaves bound to event variables, random attribute
// wildcards/variables, random pairwise constraints oriented low-to-high
// index (so precedence closure stays acyclic), occasionally a lim->
// edge, and occasionally an extra linked send/receive pair constrained
// against the first leaf.
func randomPatternSource(rng *rand.Rand, types []string) string {
	k := 2 + rng.Intn(3)
	var b strings.Builder
	for i := 0; i < k; i++ {
		typ := types[rng.Intn(len(types))]
		proc := "*"
		if rng.Float64() < 0.3 {
			proc = fmt.Sprintf("$P%d", rng.Intn(2))
		}
		text := "*"
		if rng.Float64() < 0.3 {
			text = fmt.Sprintf("$T%d", rng.Intn(2))
		}
		fmt.Fprintf(&b, "C%d := [%s, %s, %s];\n", i, proc, typ, text)
		fmt.Fprintf(&b, "C%d $e%d;\n", i, i)
	}
	var conj []string
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			switch rng.Intn(8) {
			case 0, 1:
				conj = append(conj, fmt.Sprintf("($e%d -> $e%d)", i, j))
			case 2, 3:
				conj = append(conj, fmt.Sprintf("($e%d || $e%d)", i, j))
			case 4:
				conj = append(conj, fmt.Sprintf("($e%d lim-> $e%d)", i, j))
			}
			// Other rolls leave the pair unconstrained.
		}
	}
	if rng.Float64() < 0.4 {
		// A linked pair: the eventtest generator pairs sends with
		// receives of the same type, so wildcard-typed link classes
		// find partners.
		fmt.Fprintf(&b, "LS := [*, *, *];\nLR := [*, *, *];\nLS $ls;\nLR $lr;\n")
		conj = append(conj, "($ls ~ $lr)")
		if rng.Float64() < 0.5 {
			conj = append(conj, "($e0 -> $lr)")
		}
	}
	if len(conj) == 0 {
		conj = append(conj, fmt.Sprintf("($e0 -> $e%d)", k-1))
	}
	fmt.Fprintf(&b, "pattern := %s;\n", strings.Join(conj, " && "))
	return b.String()
}

// TestRandomPatternsAgainstOracle fuzzes the matcher over generated
// patterns AND generated workloads, checking the three core guarantees
// against the brute-force oracle: soundness of every reported match,
// first-match completeness per event, and exact coverage under
// GuaranteeCoverage.
func TestRandomPatternsAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(271828))
	types := []string{"a", "b", "c"}
	rounds := 60
	if testing.Short() {
		rounds = 15
	}
	for round := 0; round < rounds; round++ {
		src := randomPatternSource(rng, types)
		f, err := pattern.Parse(src)
		if err != nil {
			t.Fatalf("generated pattern does not parse: %v\n%s", err, src)
		}
		pat, err := pattern.Compile(f)
		if err != nil {
			// Contradictory random constraint sets are legal to reject.
			continue
		}
		st, evs := eventtest.Random(rng, eventtest.RandomConfig{
			Traces:   2 + rng.Intn(4),
			Events:   30 + rng.Intn(30),
			SendProb: 0.3,
			RecvProb: 0.3,
			Types:    types,
		})
		oracleMatches := baseline.AllMatches(pat, st)
		oracleSet := make(map[string]bool, len(oracleMatches))
		for _, m := range oracleMatches {
			oracleSet[matchKey(m)] = true
		}
		pos := make(map[event.ID]int, len(evs))
		for i, e := range evs {
			pos[e.ID] = i
		}
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

		m := core.NewMatcher(pat, core.Options{
			DisablePruning:    true,
			GuaranteeCoverage: true,
		})
		for i := 0; i < st.NumTraces(); i++ {
			m.RegisterTrace(st.TraceName(event.TraceID(i)))
		}
		var reported []core.Match
		for i, e := range evs {
			copied := *e
			got, err := m.Feed(&copied)
			if err != nil {
				t.Fatalf("round %d: feed: %v", round, err)
			}
			if endsAt[i] && len(got) == 0 {
				t.Fatalf("round %d: match ends at %s but nothing reported\npattern:\n%s", round, e.ID, src)
			}
			if !endsAt[i] && len(got) > 0 {
				t.Fatalf("round %d: spurious report at %s\npattern:\n%s", round, e.ID, src)
			}
			reported = append(reported, got...)
		}
		for _, mm := range reported {
			if !oracleSet[matchKey(mm)] {
				t.Fatalf("round %d: invalid match %s\npattern:\n%s", round, matchKey(mm), src)
			}
			if err := core.VerifyMatch(pat, mm, st.TraceName); err != nil {
				t.Fatalf("round %d: verification failed: %v", round, err)
			}
		}
		wantCov := baseline.Coverage(oracleMatches)
		gotCov := baseline.Coverage(reported)
		for pair := range wantCov {
			if !gotCov[pair] {
				t.Fatalf("round %d: pair %v uncovered\npattern:\n%s", round, pair, src)
			}
		}
		for pair := range gotCov {
			if !wantCov[pair] {
				t.Fatalf("round %d: phantom pair %v\npattern:\n%s", round, pair, src)
			}
		}
	}
}

// TestRandomPatternsCompiledMatchesInterpreted is the property-based
// half of the compiled-vs-interpreted differential suite: over seeded
// random (pattern, workload) pairs, the compiled execution form (the
// only one production code can reach) must agree with the interpreted
// reference (core.NewInterpretedMatcher, test-only) on the reported
// match multiset, the coverage set, and the Stats
// counters.
//
// Counter contract: every counter is path-independent — the compiled
// form changes the dispatch layer (type-indexed join, flattened relation
// tables, reused search state) but never a search decision, so candidate
// enumeration order, backtrack and backjump points are bit-identical and
// full Stats equality holds. The directional invariant (compiled
// candidates never exceed interpreted candidates) is asserted explicitly
// first, so if the equality contract is ever deliberately relaxed the
// direction check must survive.
func TestRandomPatternsCompiledMatchesInterpreted(t *testing.T) {
	rng := rand.New(rand.NewSource(161803))
	types := []string{"a", "b", "c"}
	rounds := 60
	if testing.Short() {
		rounds = 15
	}
	compared := 0
	for round := 0; round < rounds; round++ {
		src := randomPatternSource(rng, types)
		f, err := pattern.Parse(src)
		if err != nil {
			t.Fatalf("generated pattern does not parse: %v\n%s", err, src)
		}
		pat, err := pattern.Compile(f)
		if err != nil {
			continue // contradictory random constraint sets are legal to reject
		}
		st, evs := eventtest.Random(rng, eventtest.RandomConfig{
			Traces:   2 + rng.Intn(4),
			Events:   30 + rng.Intn(30),
			SendProb: 0.3,
			RecvProb: 0.3,
			Types:    types,
		})
		// Sweep the option surface the two paths share: the paper mode,
		// exhaustive reporting, guaranteed coverage, and a tight budget
		// (exercising truncation flags and abort accounting).
		for _, opts := range []core.Options{
			{RepresentativeOnly: true},
			{ReportAll: true, DisablePruning: true},
			{GuaranteeCoverage: true},
			{RepresentativeOnly: true, MaxTriggerSteps: 3},
		} {
			cm, cMatches := feedAll(t, pat, st, evs, opts)
			im, iMatches := feedAllInterpreted(t, pat, st, evs, opts)
			if !cm.Compiled() || im.Compiled() {
				t.Fatalf("the differential must compare the two executions: compiled=%v/%v", cm.Compiled(), im.Compiled())
			}
			compared++
			ck, ik := matchMultiset(cMatches), matchMultiset(iMatches)
			if len(ck) != len(ik) {
				t.Fatalf("round %d %+v: distinct matches differ (compiled %d, interpreted %d)\npattern:\n%s",
					round, opts, len(ck), len(ik), src)
			}
			for k, n := range ik {
				if ck[k] != n {
					t.Fatalf("round %d %+v: match %s reported %d times compiled, %d interpreted\npattern:\n%s",
						round, opts, k, ck[k], n, src)
				}
			}
			cs, is := cm.Stats(), im.Stats()
			if cs.CandidatesTried > is.CandidatesTried {
				t.Fatalf("round %d %+v: compiled tried %d candidates, interpreted %d — the index may only prune\npattern:\n%s",
					round, opts, cs.CandidatesTried, is.CandidatesTried, src)
			}
			if cs != is {
				t.Fatalf("round %d %+v: stats diverged\ncompiled    %+v\ninterpreted %+v\npattern:\n%s",
					round, opts, cs, is, src)
			}
			cCov := baseline.Coverage(cMatches)
			iCov := baseline.Coverage(iMatches)
			if len(cCov) != len(iCov) {
				t.Fatalf("round %d %+v: coverage sizes differ\npattern:\n%s", round, opts, src)
			}
			for pair := range iCov {
				if !cCov[pair] {
					t.Fatalf("round %d %+v: pair %v covered interpreted but not compiled\npattern:\n%s",
						round, opts, pair, src)
				}
			}
		}
	}
	if compared == 0 {
		t.Fatal("every generated pattern was rejected: the differential is vacuous")
	}
}
