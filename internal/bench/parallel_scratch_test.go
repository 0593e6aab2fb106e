package bench

import (
	"fmt"
	"reflect"
	"strings"
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
// studies with the top level split over parallel workers, and with the
// GuaranteeCoverage pinned sweeps on, and requires the sequential run's
// results. Every worker and every pinned sweep draws its own pooled
// search (header, assignment, environment, per-level conflict buffers);
// a buffer shared or read after reuse shows as a diverging match set,
// coverage or backjump counter — or, under -race, as a reported race.
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
		run := func(opts core.Options) *Replay {
			t.Helper()
			r, err := w.Run(ReplayConfig{Options: opts, KeepMatches: true, NoTiming: true})
			if err != nil {
				t.Fatalf("%s: replay %+v: %v", c, opts, err)
			}
			return r
		}
		same := func(label string, got, want *Replay) {
			t.Helper()
			if g, w := matchMultiset(got.Matches), matchMultiset(want.Matches); !reflect.DeepEqual(g, w) {
				t.Fatalf("%s: match sets differ: %d distinct vs %d sequential", label, len(g), len(w))
			}
			if !reflect.DeepEqual(got.Coverage, want.Coverage) {
				t.Fatalf("%s: coverage differs:\n got %v\nwant %v", label, got.Coverage, want.Coverage)
			}
		}

		// Pinned sweeps: GuaranteeCoverage searches sequentially whatever
		// ParallelTraces says, so every counter must repeat.
		seq := run(core.Options{GuaranteeCoverage: true})
		pin := run(core.Options{GuaranteeCoverage: true, ParallelTraces: 4})
		same(fmt.Sprintf("%s/pinned", c), pin, seq)
		if pin.Stats != seq.Stats {
			t.Fatalf("%s/pinned: stats diverged:\n got %+v\nwant %+v", c, pin.Stats, seq.Stats)
		}

		// Parallel top level: a level-1 dead end that stops the sequential
		// scan stops only the worker that meets it, so the search-volume
		// counters may exceed the sequential ones; what was found may not
		// differ.
		seq = run(core.Options{})
		par := run(core.Options{ParallelTraces: 4})
		same(fmt.Sprintf("%s/parallel", c), par, seq)
		g, s := par.Stats, seq.Stats
		if g.Triggers != s.Triggers || g.CompleteMatches != s.CompleteMatches || g.Reported != s.Reported ||
			g.Redundant != s.Redundant || g.EventsMatched != s.EventsMatched || g.HistorySize != s.HistorySize {
			t.Fatalf("%s/parallel: stats diverged:\n got %+v\nwant %+v", c, g, s)
		}
	}
}
