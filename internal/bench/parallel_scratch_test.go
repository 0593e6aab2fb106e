package bench

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"ocep/internal/core"
)

// matchMultiset canonicalizes a match set, leaf assignment and
// truncation flag included.
func matchMultiset(ms []core.Match) map[string]int {
	out := make(map[string]int, len(ms))
	for _, m := range ms {
		var b strings.Builder
		for _, e := range m.Events {
			fmt.Fprintf(&b, "%s;", e.ID)
		}
		fmt.Fprintf(&b, "trunc=%v", m.Truncated)
		out[b.String()]++
	}
	return out
}

// TestParallelAndPinnedSearchesOwnTheirScratch runs the four case
// studies with the GuaranteeCoverage pinned sweeps on, and with several
// matchers replaying one workload in parallel over its shared store.
// Each pinned sweep draws a search from the matcher's free list while
// the trigger's main search is still out, and each matcher keeps its
// own free list; a search buffer shared between the two, or between
// matchers, shows as a lost match, a diverging coverage or counter — or,
// under -race, as a reported race.
func TestParallelAndPinnedSearchesOwnTheirScratch(t *testing.T) {
	events := 6_000
	if testing.Short() {
		events = 2_000
	}
	for _, c := range Cases {
		w, err := Generate(GenConfig{Case: c, Traces: 6, TargetEvents: events, Seed: 11})
		if err != nil {
			t.Fatalf("%s: generate: %v", c, err)
		}
		run := func(opts core.Options) (*Replay, error) {
			return w.Run(ReplayConfig{Options: opts, KeepMatches: true, NoTiming: true})
		}

		// Pinned sweeps: with pruning off no search decision depends on
		// coverage, so the sweeps may only add matches and covered pairs
		// to what the main searches report.
		base := core.Options{DisablePruning: true}
		plain, err := run(base)
		if err != nil {
			t.Fatalf("%s: replay: %v", c, err)
		}
		pinOpts := base
		pinOpts.GuaranteeCoverage = true
		pin, err := run(pinOpts)
		if err != nil {
			t.Fatalf("%s: pinned replay: %v", c, err)
		}
		got := matchMultiset(pin.Matches)
		for k, n := range matchMultiset(plain.Matches) {
			if got[k] < n {
				t.Fatalf("%s/pinned: match %s reported %d times, %d without the sweeps", c, k, got[k], n)
			}
		}
		covered := make(map[core.CoveredPair]bool, len(pin.Coverage))
		for _, p := range pin.Coverage {
			covered[p] = true
		}
		for _, p := range plain.Coverage {
			if !covered[p] {
				t.Fatalf("%s/pinned: pair %+v covered only without the sweeps", c, p)
			}
		}
		if pin.Stats.Triggers != plain.Stats.Triggers {
			t.Fatalf("%s/pinned: %d triggers, %d without the sweeps", c, pin.Stats.Triggers, plain.Stats.Triggers)
		}

		// Parallel matchers: every replay must repeat the pinned run
		// exactly, counters included.
		const workers = 3
		reps := make([]*Replay, workers)
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for i := range reps {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				reps[i], errs[i] = run(pinOpts)
			}(i)
		}
		wg.Wait()
		for i, r := range reps {
			if errs[i] != nil {
				t.Fatalf("%s/parallel %d: replay: %v", c, i, errs[i])
			}
			label := fmt.Sprintf("%s/parallel %d", c, i)
			if g := matchMultiset(r.Matches); !reflect.DeepEqual(g, got) {
				t.Fatalf("%s: match sets differ: %d distinct vs %d sequential", label, len(g), len(got))
			}
			if !reflect.DeepEqual(r.Coverage, pin.Coverage) {
				t.Fatalf("%s: coverage differs:\n got %v\nwant %v", label, r.Coverage, pin.Coverage)
			}
			if r.Stats != pin.Stats {
				t.Fatalf("%s: stats diverged:\n got %+v\nwant %+v", label, r.Stats, pin.Stats)
			}
		}
	}
}
