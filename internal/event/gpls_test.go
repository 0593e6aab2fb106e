package event_test

import (
	"math/rand"
	"testing"

	"ocep/internal/event"
	"ocep/internal/event/eventtest"
)

// bruteGP returns the index of the last event on trace t that happens
// before e, scanning linearly.
func bruteGP(st *event.Store, e *event.Event, t event.TraceID) int {
	best := 0
	for _, x := range st.Events(t) {
		if x.Before(e) {
			best = x.ID.Index
		}
	}
	return best
}

// bruteLS returns the index of the first event on trace t that e happens
// before, scanning linearly.
func bruteLS(st *event.Store, e *event.Event, t event.TraceID) int {
	for _, x := range st.Events(t) {
		if e.Before(x) {
			return x.ID.Index
		}
	}
	return 0
}

func TestGPLSAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for round := 0; round < 10; round++ {
		st, evs := eventtest.Random(rng, eventtest.RandomConfig{
			Traces:   2 + rng.Intn(5),
			Events:   150,
			SendProb: 0.3,
			RecvProb: 0.3,
		})
		for _, e := range evs {
			for tr := 0; tr < st.NumTraces(); tr++ {
				tid := event.TraceID(tr)
				if got, want := st.GP(e, tid), bruteGP(st, e, tid); got != want {
					t.Fatalf("round %d: GP(%s, t%d) = %d, want %d", round, e.ID, tr, got, want)
				}
				if got, want := st.LS(e, tid), bruteLS(st, e, tid); got != want {
					t.Fatalf("round %d: LS(%s, t%d) = %d, want %d", round, e.ID, tr, got, want)
				}
			}
		}
	}
}

// TestGPLSSameTrace checks the within-trace fast paths.
func TestGPLSSameTrace(t *testing.T) {
	st, evs := eventtest.Build(1, []eventtest.Op{
		{Trace: 0, Kind: event.KindInternal, Type: "x"},
		{Trace: 0, Kind: event.KindInternal, Type: "x"},
		{Trace: 0, Kind: event.KindInternal, Type: "x"},
	})
	mid := evs[1]
	if got := st.GP(mid, 0); got != 1 {
		t.Fatalf("GP same trace = %d want 1", got)
	}
	if got := st.LS(mid, 0); got != 3 {
		t.Fatalf("LS same trace = %d want 3", got)
	}
	last := evs[2]
	if got := st.LS(last, 0); got != 0 {
		t.Fatalf("LS of last event = %d want 0 (none stored yet)", got)
	}
	first := evs[0]
	if got := st.GP(first, 0); got != 0 {
		t.Fatalf("GP of first event = %d want 0", got)
	}
}

// TestGPLSInterval checks the Fig 4 interval semantics on a hand-built
// diagram matching Figure 3 of the paper: three traces where trace 0
// sends to trace 1.
func TestGPLSInterval(t *testing.T) {
	// p0: a1 (send) a2 a3 ; p1: b1 (recv of a1) b2 ; p2: c1
	st, evs := eventtest.Build(3, []eventtest.Op{
		{Trace: 0, Kind: event.KindSend, Type: "A", Label: "s"},
		{Trace: 1, Kind: event.KindReceive, Type: "B", From: "s"},
		{Trace: 0, Kind: event.KindInternal, Type: "A"},
		{Trace: 1, Kind: event.KindInternal, Type: "B"},
		{Trace: 2, Kind: event.KindInternal, Type: "C"},
	})
	send, recv := evs[0], evs[1]
	// GP(recv, trace 0) is the send.
	if got := st.GP(recv, 0); got != send.ID.Index {
		t.Fatalf("GP(recv, p0) = %d want %d", got, send.ID.Index)
	}
	// LS(send, trace 1) is the receive.
	if got := st.LS(send, 1); got != recv.ID.Index {
		t.Fatalf("LS(send, p1) = %d want %d", got, recv.ID.Index)
	}
	// Trace 2 never communicates: GP/LS against it are empty.
	if got := st.GP(recv, 2); got != 0 {
		t.Fatalf("GP(recv, p2) = %d want 0", got)
	}
	if got := st.LS(send, 2); got != 0 {
		t.Fatalf("LS(send, p2) = %d want 0", got)
	}
}

// TestLSOnlineShape asks the question the way an online matcher does:
// the store grows one event at a time along a linearization, and after
// each append LS is queried for the event just stored (no successor can
// exist yet: one probe of each trace's tail) and for a random older one
// (its successor, if any, is near the tail).
func TestLSOnlineShape(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	full, evs := eventtest.Random(rng, eventtest.RandomConfig{
		Traces: 5, Events: 400, SendProb: 0.3, RecvProb: 0.3,
	})
	st := event.NewStore()
	for i, e := range evs {
		if err := st.Append(e); err != nil {
			t.Fatal(err)
		}
		old := evs[rng.Intn(i+1)]
		for tr := 0; tr < full.NumTraces(); tr++ {
			tid := event.TraceID(tr)
			if tid != e.ID.Trace {
				if got := st.LS(e, tid); got != 0 {
					t.Fatalf("after %d appends: LS(newest %s, t%d) = %d, want 0", i+1, e.ID, tr, got)
				}
			}
			if got, want := st.LS(old, tid), bruteLS(st, old, tid); got != want {
				t.Fatalf("after %d appends: LS(%s, t%d) = %d, want %d", i+1, old.ID, tr, got, want)
			}
		}
	}
}

// TestLSUnderCompaction pins the contract CompactTrace documents: over a
// compacted trace LS returns max(true least successor, first retained
// index), and 0 when nothing retained succeeds the event — for the
// oldest and the newest events, and down to a fully compacted trace.
func TestLSUnderCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(4321))
	for round := 0; round < 12; round++ {
		st, evs := eventtest.Random(rng, eventtest.RandomConfig{
			Traces:   2 + rng.Intn(5),
			Events:   120,
			SendProb: 0.3,
			RecvProb: 0.3,
		})
		n := st.NumTraces()
		trueLS := make(map[*event.Event][]int, len(evs))
		for _, e := range evs {
			row := make([]int, n)
			for tr := range row {
				row[tr] = bruteLS(st, e, event.TraceID(tr))
			}
			trueLS[e] = row
		}
		// Compact in two waves so the second cut lands on an already
		// compacted trace; it also drops trace 0 entirely.
		for wave := 0; wave < 2; wave++ {
			for tr := 0; tr < n; tr++ {
				tid := event.TraceID(tr)
				st.CompactTrace(tid, 1+rng.Intn(st.Len(tid)+1))
			}
			if wave == 1 {
				st.CompactTrace(0, st.Len(0)+1)
			}
			for _, e := range evs {
				for tr := 0; tr < n; tr++ {
					tid := event.TraceID(tr)
					if tid == e.ID.Trace {
						continue // positional fast path: TestGPLSSameTrace
					}
					want := trueLS[e][tr]
					first := st.CompactedBefore(tid) + 1
					switch {
					case len(st.Events(tid)) == 0:
						want = 0
					case want != 0 && want < first:
						want = first
					}
					got := st.LS(e, tid)
					if got != want {
						t.Fatalf("round %d wave %d: LS(%s, t%d) = %d, want %d (true LS %d, first retained %d)",
							round, wave, e.ID, tr, got, want, trueLS[e][tr], first)
					}
					if retained := bruteLS(st, e, tid); got != retained {
						t.Fatalf("round %d wave %d: LS(%s, t%d) = %d, but the first retained successor is %d",
							round, wave, e.ID, tr, got, retained)
					}
				}
			}
		}
	}
}
