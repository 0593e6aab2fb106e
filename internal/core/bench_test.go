package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"ocep/internal/core"
	"ocep/internal/event"
	"ocep/internal/event/eventtest"
	"ocep/internal/pattern"
)

// benchStream builds a reusable random computation for matcher
// micro-benchmarks.
func benchStream(b *testing.B, traces, events int) (*event.Store, []*event.Event) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	return eventtest.Random(rng, eventtest.RandomConfig{
		Traces: traces, Events: events,
		SendProb: 0.3, RecvProb: 0.3,
		Types: []string{"a", "b", "noise"},
	})
}

// BenchmarkFeedNonMatching measures the fast path: events that join no
// leaf history.
func BenchmarkFeedNonMatching(b *testing.B) {
	f := mustParseCompile(b, `A := [*, nothing, *]; B := [*, never, *]; pattern := A -> B;`)
	st, evs := benchStream(b, 8, 20_000)
	m := core.NewMatcherOn(f, st, core.Options{})
	pos := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pos == len(evs) {
			b.StopTimer()
			m = core.NewMatcherOn(f, st, core.Options{})
			pos = 0
			b.StartTimer()
		}
		if _, err := m.Feed(evs[pos]); err != nil {
			b.Fatal(err)
		}
		pos++
	}
}

// BenchmarkFeedTriggering measures the full path on a pattern whose
// classes match the stream.
func BenchmarkFeedTriggering(b *testing.B) {
	f := mustParseCompile(b, `A := [*, a, *]; B := [*, b, *]; pattern := A -> B;`)
	st, evs := benchStream(b, 8, 20_000)
	m := core.NewMatcherOn(f, st, core.Options{RepresentativeOnly: true})
	pos := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pos == len(evs) {
			b.StopTimer()
			m = core.NewMatcherOn(f, st, core.Options{RepresentativeOnly: true})
			pos = 0
			b.StartTimer()
		}
		if _, err := m.Feed(evs[pos]); err != nil {
			b.Fatal(err)
		}
		pos++
	}
}

// lockstepRounds scripts the shape of the ledger's embed-atomicity
// workload: threads traces run a semaphore-guarded method in lockstep
// rounds against one semaphore trace, 8 events per execution of which
// one — "enter" — triggers a search. Every execution takes the
// semaphore, so all enters are totally ordered and `E1 || E2` never
// matches: each trigger scans every trace and reports nothing.
func lockstepRounds(threads, rounds int) []*event.Event {
	sem := event.TraceID(threads)
	ops := make([]eventtest.Op, 0, 8*threads*rounds)
	for r := 0; r < rounds; r++ {
		for th := 0; th < threads; th++ {
			t := event.TraceID(th)
			grant, done := fmt.Sprintf("g%d.%d", r, th), fmt.Sprintf("d%d.%d", r, th)
			ops = append(ops,
				eventtest.Op{Trace: t, Kind: event.KindInternal, Type: "compute"},
				eventtest.Op{Trace: sem, Kind: event.KindSyncRelease, Type: "grant_out", Label: grant},
				eventtest.Op{Trace: t, Kind: event.KindSyncAcquire, Type: "P", From: grant},
				eventtest.Op{Trace: t, Kind: event.KindInternal, Type: "enter", Text: "critical"},
				eventtest.Op{Trace: t, Kind: event.KindInternal, Type: "work", Text: "critical"},
				eventtest.Op{Trace: t, Kind: event.KindInternal, Type: "exit", Text: "critical"},
				eventtest.Op{Trace: t, Kind: event.KindSyncRelease, Type: "V", Label: done},
				eventtest.Op{Trace: sem, Kind: event.KindSyncAcquire, Type: "grant_in", From: done},
			)
		}
	}
	_, evs := eventtest.Build(threads+1, ops)
	return evs
}

// lockstepPattern is the atomicity case study's pattern over
// lockstepRounds' event types.
const lockstepPattern = `E1 := [$1, enter, $m]; E2 := [$2, enter, $m]; pattern := E1 || E2;`

// lockstepMatcher returns a matcher that owns its store, with the
// traces named as eventtest.Build names them, fed the given prefix: the
// store holds exactly the events delivered so far, as it does online.
func lockstepMatcher(tb testing.TB, pat *pattern.Compiled, traces int, prefix []*event.Event) *core.Matcher {
	tb.Helper()
	m := core.NewMatcher(pat, core.Options{})
	for i := 0; i < traces; i++ {
		m.RegisterTrace(fmt.Sprintf("p%d", i))
	}
	if _, err := m.FeedBatch(prefix); err != nil {
		tb.Fatal(err)
	}
	return m
}

// BenchmarkTriggerWide is the benchmark shaped like the workload the
// ledger says matching dominates: 21 traces, `E1 || E2`, one trigger per
// 8 events, no match. One op is one fed event; the timed window is the
// 40 k events that follow a history of 10 k and of 300 k events (the
// matcher is rebuilt, untimed, each time the window is used up).
//
// The property it exists to show: ns/op at 300 k within 1.25x of ns/op
// at 10 k, and 0 allocs/op at both. A trigger's cost is set by the
// pattern and the trace count (Figure 4's intervals), not by how long
// the computation has run — the paper's bounded-state claim.
func BenchmarkTriggerWide(b *testing.B) {
	const (
		threads = 20
		window  = 40_000
	)
	pat := mustParseCompile(b, lockstepPattern)
	var evs []*event.Event // built once, at the size the longest history needs
	for _, history := range []int{10_000, 300_000} {
		b.Run(fmt.Sprintf("history=%dk", history/1000), func(b *testing.B) {
			if evs == nil {
				evs = lockstepRounds(threads, (300_000+window)/(8*threads)+1)
			}
			m := lockstepMatcher(b, pat, threads+1, evs[:history])
			pos := history
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if pos == history+window {
					b.StopTimer()
					m = lockstepMatcher(b, pat, threads+1, evs[:history])
					pos = history
					b.StartTimer()
				}
				if _, err := m.Feed(evs[pos]); err != nil {
					b.Fatal(err)
				}
				pos++
			}
		})
	}
}

func mustParseCompile(b testing.TB, src string) *pattern.Compiled {
	b.Helper()
	f, err := pattern.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	pat, err := pattern.Compile(f)
	if err != nil {
		b.Fatal(err)
	}
	return pat
}
