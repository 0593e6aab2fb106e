package workload_test

import (
	"strings"
	"testing"

	"ocep/internal/core"
	"ocep/internal/event"
	"ocep/internal/pattern"
	"ocep/internal/poet"
	"ocep/internal/workload"
)

// runMatcher replays a collector's delivery order through a matcher for
// the pattern source and returns the matcher plus all reported matches.
func runMatcher(t *testing.T, c *poet.Collector, src string, opts core.Options) (*core.Matcher, []core.Match) {
	t.Helper()
	f, err := pattern.Parse(src)
	if err != nil {
		t.Fatalf("parse pattern: %v", err)
	}
	pat, err := pattern.Compile(f)
	if err != nil {
		t.Fatalf("compile pattern: %v", err)
	}
	m := core.NewMatcherOn(pat, c.Store(), opts)
	var all []core.Match
	for _, e := range c.Ordered() {
		got, err := m.Feed(e)
		if err != nil {
			t.Fatalf("feed %s: %v", e.ID, err)
		}
		all = append(all, got...)
	}
	return m, all
}

// containsMarker reports whether any match includes the marker's event.
func containsMarker(st *event.Store, matches []core.Match, mk workload.Marker) bool {
	tid, ok := st.TraceByName(mk.Trace)
	if !ok {
		return false
	}
	want := event.ID{Trace: tid, Index: mk.Seq}
	for _, m := range matches {
		for _, e := range m.Events {
			if e.ID == want {
				return true
			}
		}
	}
	return false
}

func TestDeadlockDetection(t *testing.T) {
	c := poet.NewCollector()
	res, err := workload.GenDeadlock(workload.DeadlockConfig{
		Ranks: 6, CycleLen: 2, Rounds: 200, BugProb: 0.05, Seed: 1, Sink: c,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !c.Drained() {
		t.Fatalf("collector not drained")
	}
	if len(res.Markers) == 0 {
		t.Fatalf("no buggy rounds seeded; adjust probability or rounds")
	}
	_, matches := runMatcher(t, c, workload.DeadlockPattern(2), core.Options{ReportAll: true})
	if len(matches) == 0 {
		t.Fatalf("no deadlock matches found for %d seeded cycles", len(res.Markers))
	}
	// Completeness: every seeded cycle appears in at least one match.
	for _, mk := range res.Markers {
		if !containsMarker(c.Store(), matches, mk) {
			t.Errorf("seeded violation not detected: %s", mk)
		}
	}
	// Soundness / no false positives: every matched pair of sends is
	// truly concurrent and forms a cycle via its text attributes.
	st := c.Store()
	for _, m := range matches {
		s1, s2 := m.Events[0], m.Events[1]
		if !s1.Concurrent(s2) {
			t.Fatalf("matched sends not concurrent: %s / %s", s1, s2)
		}
		if s1.Text != st.TraceName(s2.ID.Trace) || s2.Text != st.TraceName(s1.ID.Trace) {
			t.Fatalf("matched sends do not form a cycle: %s / %s", s1, s2)
		}
	}
}

func TestDeadlockNoBugNoMatches(t *testing.T) {
	c := poet.NewCollector()
	res, err := workload.GenDeadlock(workload.DeadlockConfig{
		Ranks: 6, CycleLen: 3, Rounds: 100, BugProb: 0, Seed: 2, Sink: c,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Markers) != 0 {
		t.Fatalf("markers seeded with zero probability")
	}
	_, matches := runMatcher(t, c, workload.DeadlockPattern(3), core.Options{ReportAll: true})
	if len(matches) != 0 {
		t.Fatalf("false positives: %d matches in a safe run", len(matches))
	}
}

func TestDeadlockCycleLenThree(t *testing.T) {
	c := poet.NewCollector()
	res, err := workload.GenDeadlock(workload.DeadlockConfig{
		Ranks: 6, CycleLen: 3, Rounds: 150, BugProb: 0.04, Seed: 3, Sink: c,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Markers) == 0 {
		t.Skip("no buggy rounds seeded at this probability/seed")
	}
	_, matches := runMatcher(t, c, workload.DeadlockPattern(3), core.Options{ReportAll: true})
	for _, mk := range res.Markers {
		if !containsMarker(c.Store(), matches, mk) {
			t.Errorf("seeded 3-cycle not detected: %s", mk)
		}
	}
	for _, m := range matches {
		for i := 0; i < 3; i++ {
			for j := i + 1; j < 3; j++ {
				if !m.Events[i].Concurrent(m.Events[j]) {
					t.Fatalf("3-cycle sends not pairwise concurrent")
				}
			}
		}
	}
}

func TestDeadlockConfigValidation(t *testing.T) {
	if _, err := workload.GenDeadlock(workload.DeadlockConfig{Ranks: 5, CycleLen: 2}); err == nil {
		t.Errorf("ranks not multiple of cycle must fail")
	}
	if _, err := workload.GenDeadlock(workload.DeadlockConfig{Ranks: 4, CycleLen: 1}); err == nil {
		t.Errorf("cycle < 2 must fail")
	}
}

func TestMsgRaceDetection(t *testing.T) {
	c := poet.NewCollector()
	res, err := workload.GenMsgRace(workload.MsgRaceConfig{Ranks: 5, Waves: 10, Sink: c})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Markers) != 4*10 {
		t.Fatalf("markers = %d want 40", len(res.Markers))
	}
	// Representative mode with guaranteed coverage: every sender trace
	// must appear in reported matches (every sender races).
	m, matches := runMatcher(t, c, workload.MsgRacePattern(), core.Options{GuaranteeCoverage: true})
	if len(matches) == 0 {
		t.Fatalf("no race matches found")
	}
	st := c.Store()
	coveredTraces := map[string]bool{}
	for _, match := range matches {
		for _, e := range match.Events {
			coveredTraces[st.TraceName(e.ID.Trace)] = true
		}
	}
	for i := 1; i < 5; i++ {
		name := "p" + string(rune('0'+i))
		if !coveredTraces[name] {
			t.Errorf("sender %s not represented in any reported match", name)
		}
	}
	if stats := m.Stats(); stats.CompleteMatches == 0 {
		t.Errorf("stats did not record complete matches")
	}
	// Soundness: every match is two link pairs with concurrent sends
	// received by the same process.
	for _, match := range matches {
		s1, r1, s2, r2 := match.Events[0], match.Events[1], match.Events[2], match.Events[3]
		if s1.Partner.ID() != r1.ID || s2.Partner.ID() != r2.ID {
			t.Fatalf("link pairs wrong")
		}
		if !s1.Concurrent(s2) {
			t.Fatalf("matched sends not concurrent")
		}
		if r1.ID.Trace != r2.ID.Trace {
			t.Fatalf("receives not on the same process")
		}
	}
}

func TestMsgRaceSerializedNoMatches(t *testing.T) {
	c := poet.NewCollector()
	res, err := workload.GenMsgRace(workload.MsgRaceConfig{Ranks: 4, Waves: 8, Serialize: true, Sink: c})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Markers) != 0 {
		t.Fatalf("serialized run must seed no markers")
	}
	_, matches := runMatcher(t, c, workload.MsgRacePattern(), core.Options{ReportAll: true})
	if len(matches) != 0 {
		t.Fatalf("false positives: %d race matches in a serialized run", len(matches))
	}
}

func TestAtomicityDetection(t *testing.T) {
	c := poet.NewCollector()
	res, err := workload.GenAtomicity(workload.AtomicityConfig{
		Threads: 4, Iterations: 100, BugProb: 0.03, Seed: 4, Sink: c,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !c.Drained() {
		t.Fatalf("collector not drained")
	}
	if len(res.Markers) == 0 {
		t.Fatalf("no skips seeded")
	}
	_, matches := runMatcher(t, c, workload.AtomicityPattern(),
		core.Options{ReportAll: true, DisablePruning: true})
	if len(matches) == 0 {
		t.Fatalf("no atomicity violations found for %d seeded skips", len(res.Markers))
	}
	detected := 0
	for _, mk := range res.Markers {
		if containsMarker(c.Store(), matches, mk) {
			detected++
		}
	}
	if detected == 0 {
		t.Fatalf("none of %d seeded skips detected", len(res.Markers))
	}
	// Soundness: matched entries are concurrent and on different traces.
	for _, m := range matches {
		e1, e2 := m.Events[0], m.Events[1]
		if !e1.Concurrent(e2) {
			t.Fatalf("matched entries not concurrent")
		}
		if e1.ID.Trace == e2.ID.Trace {
			t.Fatalf("concurrent entries cannot share a trace")
		}
	}
}

func TestAtomicityNoBugNoMatches(t *testing.T) {
	c := poet.NewCollector()
	_, err := workload.GenAtomicity(workload.AtomicityConfig{
		Threads: 4, Iterations: 80, BugProb: 0, Seed: 5, Sink: c,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, matches := runMatcher(t, c, workload.AtomicityPattern(), core.Options{ReportAll: true})
	if len(matches) != 0 {
		t.Fatalf("false positives: %d matches in a correct run", len(matches))
	}
}

func TestReplicationOrderingBug(t *testing.T) {
	c := poet.NewCollector()
	res, err := workload.GenReplication(workload.ReplicationConfig{
		Followers: 10, UpdatesPerSession: 5, BugProb: 0.4, Seed: 6, Sink: c,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Markers) == 0 {
		t.Fatalf("no buggy sessions seeded")
	}
	_, matches := runMatcher(t, c, workload.OrderingPattern(), core.Options{ReportAll: true})
	if len(matches) == 0 {
		t.Fatalf("no ordering violations found for %d buggy sessions", len(res.Markers))
	}
	for _, mk := range res.Markers {
		if !containsMarker(c.Store(), matches, mk) {
			t.Errorf("buggy session not detected: %s", mk)
		}
	}
	// Soundness: Synch -> Snapshot -> Update -> Forward, with the
	// follower bindings agreeing.
	st := c.Store()
	for _, m := range matches {
		var synch, snap, upd, fwd *event.Event
		for i, leafEv := range m.Events {
			switch i {
			case 0:
				synch = leafEv
			case 1:
				snap = leafEv
			case 2:
				upd = leafEv
			case 3:
				fwd = leafEv
			}
		}
		// Identify leaves by class from bindings instead of index order:
		// leaf order follows the pattern source: Synch, $Diff, $Write,
		// Forward.
		if !synch.Before(snap) || !snap.Before(upd) || !upd.Before(fwd) {
			t.Fatalf("matched chain not causally ordered")
		}
		if m.Bindings["1"] != st.TraceName(synch.ID.Trace) {
			t.Fatalf("$1 binding %q does not name the follower", m.Bindings["1"])
		}
		if fwd.Text != m.Bindings["1"] {
			t.Fatalf("forward text %q does not match follower %q", fwd.Text, m.Bindings["1"])
		}
	}
}

func TestReplicationNoBugNoMatches(t *testing.T) {
	c := poet.NewCollector()
	res, err := workload.GenReplication(workload.ReplicationConfig{
		Followers: 8, UpdatesPerSession: 4, BugProb: 0, Seed: 7, Sink: c,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Markers) != 0 {
		t.Fatalf("markers without bugs")
	}
	_, matches := runMatcher(t, c, workload.OrderingPattern(), core.Options{ReportAll: true})
	if len(matches) != 0 {
		t.Fatalf("false positives: %d ordering matches in a correct run", len(matches))
	}
}

func TestPatternSourcesCompile(t *testing.T) {
	sources := map[string]string{
		"deadlock-2": workload.DeadlockPattern(2),
		"deadlock-3": workload.DeadlockPattern(3),
		"deadlock-5": workload.DeadlockPattern(5),
		"race":       workload.MsgRacePattern(),
		"atomicity":  workload.AtomicityPattern(),
		"ordering":   workload.OrderingPattern(),
	}
	for name, src := range sources {
		t.Run(name, func(t *testing.T) {
			f, err := pattern.Parse(src)
			if err != nil {
				t.Fatalf("parse: %v\n%s", err, src)
			}
			if _, err := pattern.Compile(f); err != nil {
				t.Fatalf("compile: %v\n%s", err, src)
			}
		})
	}
	if !strings.Contains(workload.DeadlockPattern(2), "S1") {
		t.Errorf("deadlock pattern misses class S1")
	}
}

func TestResultEventsCounted(t *testing.T) {
	c := poet.NewCollector()
	res, err := workload.GenMsgRace(workload.MsgRaceConfig{Ranks: 3, Waves: 5, Sink: c})
	if err != nil {
		t.Fatal(err)
	}
	if res.Events != c.Delivered() {
		t.Fatalf("reported %d events, collector delivered %d", res.Events, c.Delivered())
	}
}
