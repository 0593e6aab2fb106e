package ocep_test

import (
	"math/rand"
	"slices"
	"testing"

	"ocep"
	"ocep/internal/event/eventtest"
	"ocep/internal/workload"
)

// optionRun is what one monitor made of a delivered stream.
type optionRun struct {
	matches, cov []string
	stats        ocep.MatcherStats
	// perTrigger is the most matches one (event, terminating leaf) search
	// reported; domains sums the sizes of the candidate domains searched.
	perTrigger int
	domains    int64
}

// feedOptions feeds a delivered stream, its traces named in ID order, to
// a fresh monitor built with opts.
func feedOptions(t *testing.T, pat string, names []string, evs []*ocep.Event, opts ...ocep.Option) optionRun {
	t.Helper()
	reg := ocep.NewRegistry()
	mon, err := ocep.NewMonitor(pat, append(opts, ocep.WithMetrics(reg))...)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		mon.RegisterTrace(name)
	}
	var r optionRun
	var all []ocep.Match
	for _, e := range evs {
		ms, err := mon.Feed(e)
		if err != nil {
			t.Fatal(err)
		}
		perLeaf := make(map[int]int)
		for _, m := range ms {
			for leaf, le := range m.Events {
				if le.ID == e.ID {
					perLeaf[leaf]++
					r.perTrigger = max(r.perTrigger, perLeaf[leaf])
				}
			}
		}
		all = append(all, ms...)
	}
	name := func(id ocep.TraceID) string { return names[id] }
	r.matches, r.cov, r.stats = matchSignatures(all, name), coverageSignatures(mon.Coverage(), name), mon.Stats()
	r.domains = reg.FindHistogram("ocep_monitor_domain_size").Sum()
	return r
}

// caseStream collects a case study and returns its delivered stream.
func caseStream(t *testing.T, generate func(*captureSink) error) ([]string, []*ocep.Event) {
	t.Helper()
	sink := &captureSink{}
	if err := generate(sink); err != nil {
		t.Fatal(err)
	}
	c := ocep.NewCollector()
	for _, e := range sink.events {
		if err := c.Report(e); err != nil {
			t.Fatal(err)
		}
	}
	names := make([]string, c.Store().NumTraces())
	for i := range names {
		names[i] = c.Store().TraceName(ocep.TraceID(i))
	}
	return names, c.Ordered()
}

// TestMonitorOptionsTakeEffect: each matcher option of ocep.go does what
// its doc says. An ablation (pruning, backjumping, causal domains, the
// evaluation order, parallel traces) reports the same matches and
// coverage while the work it saves shows in Stats or in the domain-size
// histogram; WithMaxTriggerMatches(n) caps each trigger's search at n
// matches; WithHistoryCap evicts and keeps coverage. The case studies
// never backjump (internal/core's TestBackjumpingFires says why), so the
// backjumping row uses that test's chain pattern over a random
// communication-heavy stream.
func TestMonitorOptionsTakeEffect(t *testing.T) {
	msgNames, msgEvs := caseStream(t, func(sink *captureSink) error {
		_, err := workload.GenMsgRace(workload.MsgRaceConfig{Ranks: 4, Waves: 20, Sink: sink})
		return err
	})
	dlNames, dlEvs := caseStream(t, func(sink *captureSink) error {
		_, err := workload.GenDeadlock(workload.DeadlockConfig{Ranks: 6, CycleLen: 3, Rounds: 30, BugProb: 0.3, Seed: 3, Sink: sink})
		return err
	})
	ordNames, ordEvs := caseStream(t, func(sink *captureSink) error {
		_, err := workload.GenReplication(workload.ReplicationConfig{Followers: 6, UpdatesPerSession: 8, BugProb: 0.5, Seed: 7, Sink: sink})
		return err
	})
	st, chainEvs := eventtest.Random(rand.New(rand.NewSource(5)), eventtest.RandomConfig{
		Traces: 5, Events: 300, SendProb: 0.25, RecvProb: 0.25, Types: []string{"a", "b", "c", "d"},
	})
	chainNames := make([]string, st.NumTraces())
	for i := range chainNames {
		chainNames[i] = st.TraceName(ocep.TraceID(i))
	}
	const chain = `A := [*, a, *]; B := [*, b, *]; C := [*, c, *]; A $a; B $b; C $c; pattern := ($a -> $b) && ($b -> $c);`
	all := ocep.WithReportAll()

	ablations := []struct {
		name      string
		pat       string
		names     []string
		evs       []*ocep.Event
		base      []ocep.Option
		option    ocep.Option
		saved     func(r optionRun) int64 // what the option gives up; it must rise, or fall to zero
		fallsToNo bool
	}{
		{"WithoutDuplicatePruning", workload.OrderingPattern(), ordNames, ordEvs, nil, ocep.WithoutDuplicatePruning(),
			func(r optionRun) int64 { return int64(r.stats.HistoryPruned) }, true},
		{"WithoutBackjumping", chain, chainNames, chainEvs, []ocep.Option{all}, ocep.WithoutBackjumping(),
			func(r optionRun) int64 { return int64(r.stats.BackjumpSkips) }, true},
		{"WithoutCausalDomains", workload.DeadlockPattern(3), dlNames, dlEvs, nil, ocep.WithoutCausalDomains(),
			func(r optionRun) int64 { return r.domains }, false},
		{"WithStaticOrder", workload.DeadlockPattern(3), dlNames, dlEvs, nil, ocep.WithStaticOrder(),
			func(r optionRun) int64 { return int64(r.stats.DomainsComputed) }, false},
	}
	for _, a := range ablations {
		t.Run(a.name, func(t *testing.T) {
			base := feedOptions(t, a.pat, a.names, a.evs, a.base...)
			with := feedOptions(t, a.pat, a.names, a.evs, append(slices.Clone(a.base), a.option)...)
			if len(base.matches) == 0 || !slices.Equal(with.matches, base.matches) || !slices.Equal(with.cov, base.cov) {
				t.Fatalf("%d matches covering %d pairs, want the %d covering %d without it", len(with.matches), len(with.cov), len(base.matches), len(base.cov))
			}
			b, w := a.saved(base), a.saved(with)
			t.Logf("without the option %d, with it %d", b, w)
			if a.fallsToNo && (b == 0 || w != 0) || !a.fallsToNo && w <= b {
				t.Fatalf("the work the option trades moved from %d to %d", b, w)
			}
		})
	}

	t.Run("WithMaxTriggerMatches", func(t *testing.T) {
		pat := workload.MsgRacePattern()
		base := feedOptions(t, pat, msgNames, msgEvs, all)
		for _, n := range []int{1, 2} {
			capped := feedOptions(t, pat, msgNames, msgEvs, all, ocep.WithMaxTriggerMatches(n))
			if base.perTrigger <= n || capped.perTrigger > n || capped.stats.TriggersAborted == 0 {
				t.Fatalf("cap %d: a trigger reported up to %d matches (%d uncapped), %d triggers aborted", n, capped.perTrigger, base.perTrigger, capped.stats.TriggersAborted)
			}
		}
	})

	t.Run("WithHistoryCap", func(t *testing.T) {
		pat := workload.DeadlockPattern(3)
		base := feedOptions(t, pat, dlNames, dlEvs)
		capped := feedOptions(t, pat, dlNames, dlEvs, ocep.WithHistoryCap(4))
		if capped.stats.HistoryEvicted == 0 || capped.stats.HistorySize >= base.stats.HistorySize || !slices.Equal(capped.cov, base.cov) {
			t.Fatalf("cap 4: evicted %d, history %d (uncapped %d), coverage %v, want %v",
				capped.stats.HistoryEvicted, capped.stats.HistorySize, base.stats.HistorySize, capped.cov, base.cov)
		}
	})
}
