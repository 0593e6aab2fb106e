package core_test

import "testing"

// TestTriggerNoMatchAllocatesNothing is the allocation regression guard
// of the search kernel: with named traces, feeding a triggering event
// whose search completes no match performs zero heap allocations — the
// search, its scratch and its per-level conflict buffers all come from
// the matcher's free list. It holds under -race too: the list, unlike a
// sync.Pool, never drops what is put back. One run feeds one execution
// of the lockstep workload (8 events, one triggering event searched over
// 21 traces), so a single allocation per trigger would report at least
// 1; what the average tolerates is the amortized growth of the retained
// state (the store and the histories double a few dozen times over the
// run).
func TestTriggerNoMatchAllocatesNothing(t *testing.T) {
	const (
		threads = 20
		warm    = 32 * 8 * threads // fill the free list, size the buffers
		runs    = 2000
	)
	evs := lockstepRounds(threads, (warm+8*(runs+1))/(8*threads)+1)
	m := lockstepMatcher(t, mustParseCompile(t, lockstepPattern), threads+1, evs[:warm])
	pos := warm
	avg := testing.AllocsPerRun(runs, func() {
		matches, err := m.FeedBatch(evs[pos : pos+8])
		if err != nil || len(matches) != 0 {
			t.Fatalf("feed at %d: %d matches, err %v (the workload must complete no match)", pos, len(matches), err)
		}
		pos += 8
	})
	// Both leaves accept an enter and both terminate the pattern, so
	// each execution starts two searches.
	if st := m.Stats(); st.Triggers != 2*st.EventsSeen/8 || st.CompleteMatches != 0 {
		t.Fatalf("every enter must trigger twice and none may match: %+v", st)
	}
	if avg != 0 {
		t.Fatalf("a trigger that finds no match allocates: %v allocs per 8-event execution, want 0", avg)
	}
}
