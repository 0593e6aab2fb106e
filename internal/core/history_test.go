package core

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"ocep/internal/event"
	"ocep/internal/event/eventtest"
	"ocep/internal/pattern"
	"ocep/internal/vclock"
)

func ev(trace event.TraceID, index int, kind event.Kind) *event.Event {
	vc := vclock.New(int(trace) + 1)
	vc[trace] = int32(index)
	return &event.Event{
		ID:   event.ID{Trace: trace, Index: index},
		Kind: kind,
		Type: "x",
		VC:   vc.Stamp(int(trace)),
	}
}

func TestHistoryAddAndEntries(t *testing.T) {
	h := newHistory()
	h.add(ev(0, 1, event.KindInternal), 0, false)
	h.add(ev(0, 2, event.KindInternal), 0, false)
	h.add(ev(2, 1, event.KindInternal), 0, false)
	if h.size() != 3 {
		t.Fatalf("size = %d want 3", h.size())
	}
	if got := len(h.entries(0)); got != 2 {
		t.Fatalf("trace0 entries = %d want 2", got)
	}
	if h.entries(5) != nil {
		t.Fatalf("unknown trace must have nil entries")
	}
	if h.numTraces() != 3 {
		t.Fatalf("numTraces = %d want 3", h.numTraces())
	}
	if h.lastPos(0) != 2 || h.lastPos(1) != 0 {
		t.Fatalf("lastPos wrong: %d %d", h.lastPos(0), h.lastPos(1))
	}
}

func TestHistoryPruneRule(t *testing.T) {
	h := newHistory()
	// Internal, no comm between -> second pruned.
	h.add(ev(0, 1, event.KindInternal), 0, true)
	h.add(ev(0, 2, event.KindInternal), 0, true)
	if h.size() != 1 || h.pruned != 1 {
		t.Fatalf("size/pruned = %d/%d want 1/1", h.size(), h.pruned)
	}
	// A send bumps the comm count: the next internal is kept.
	h.add(ev(0, 4, event.KindInternal), 1, true)
	if h.size() != 2 {
		t.Fatalf("internal after comm must be kept: size = %d", h.size())
	}
	// Comm events themselves are never pruned.
	h.add(ev(0, 5, event.KindSend), 2, true)
	h.add(ev(0, 6, event.KindSend), 3, true)
	if h.size() != 4 {
		t.Fatalf("comm events must never be pruned: size = %d", h.size())
	}
	// Internal following a comm entry is kept even with equal counts.
	h.add(ev(0, 7, event.KindInternal), 3, true)
	if h.size() != 5 {
		t.Fatalf("internal after send entry must be kept: size = %d", h.size())
	}
	// And one more comm-free internal is pruned again.
	h.add(ev(0, 8, event.KindInternal), 3, true)
	if h.size() != 5 || h.pruned != 2 {
		t.Fatalf("size/pruned = %d/%d want 5/2", h.size(), h.pruned)
	}
}

func TestHistoryRangeEntries(t *testing.T) {
	h := newHistory()
	for _, idx := range []int{2, 5, 9, 14} {
		h.add(ev(0, idx, event.KindSend), idx, false)
	}
	tests := []struct {
		lo, hi int
		want   int
	}{
		{1, 20, 4},
		{2, 2, 1},
		{3, 4, 0},
		{5, 9, 2},
		{15, 20, 0},
		{9, 5, 0}, // inverted = empty
		{0, 1, 0},
	}
	for _, tc := range tests {
		if got := len(h.rangeEntries(0, tc.lo, tc.hi)); got != tc.want {
			t.Errorf("rangeEntries(%d,%d) = %d want %d", tc.lo, tc.hi, got, tc.want)
		}
	}
	if got := len(h.rangeEntries(3, 1, 10)); got != 0 {
		t.Errorf("rangeEntries on empty trace = %d want 0", got)
	}
}

// TestHistoryRangeEntriesBruteForce checks the tail-anchored search
// against a linear scan: random gapped histories (including after an
// eviction), every interval shape — empty, below, above, inside a gap,
// hugging either end.
func TestHistoryRangeEntriesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 200; round++ {
		h := newHistory()
		pos, n := 0, rng.Intn(40)
		for i := 0; i < n; i++ {
			pos += 1 + rng.Intn(4)
			h.add(ev(0, pos, event.KindSend), i, false)
		}
		if n > 0 && round%3 == 0 {
			h.evictOldest(0, 1+rng.Intn(n))
		}
		entries := h.entries(0)
		for q := 0; q < 60; q++ {
			lo, hi := rng.Intn(pos+4)-1, rng.Intn(pos+4)-1
			var want []histEntry
			for _, ent := range entries {
				if p := int(ent.pos); p >= lo && p <= hi {
					want = append(want, ent)
				}
			}
			got := h.rangeEntries(0, lo, hi)
			if len(got) != len(want) {
				t.Fatalf("round %d: rangeEntries(%d,%d) has %d entries, want %d", round, lo, hi, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("round %d: rangeEntries(%d,%d)[%d] = %+v, want %+v", round, lo, hi, i, got[i], want[i])
				}
			}
		}
	}
}

// TestHistEntrySize: an entry is a position and a tag, 8 bytes with no
// pointer — the history is the matcher's retained state, and the
// ledger's retained_bytes_per_event is bounded on it.
func TestHistEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(histEntry{}); got != 8 {
		t.Fatalf("unsafe.Sizeof(histEntry{}) = %d, want 8", got)
	}
}

// TestEventSize: the stored event is 72 bytes — a one-byte Kind and a
// seven-byte packed Partner share its last word — so a field added to
// Event shows here before it shows in retained_bytes_per_event (the
// event package's TestEventLayout pins the layout and the chunk sizes).
func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(event.Event{}); got > 72 {
		t.Fatalf("unsafe.Sizeof(event.Event{}) = %d, want <= 72", got)
	}
}

// TestHistoryResolvesThroughStore: an entry holds no event, only its
// position, so the matcher's store must hold every event a history
// names, after each event, while MaxHistoryPerTrace evicts entries and
// the owned store is compacted below them.
func TestHistoryResolvesThroughStore(t *testing.T) {
	f, err := pattern.Parse(`A := [*, a, *]; B := [*, b, *]; pattern := A -> B;`)
	if err != nil {
		t.Fatal(err)
	}
	pat, err := pattern.Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	var ops []eventtest.Op
	for w := 0; w < 1200; w++ {
		label := fmt.Sprintf("w%d", w)
		ops = append(ops,
			eventtest.Op{Trace: 0, Kind: event.KindSend, Type: "a", Label: label},
			eventtest.Op{Trace: 0, Kind: event.KindInternal, Type: "x"},
			eventtest.Op{Trace: 1, Kind: event.KindReceive, Type: "b", From: label})
	}
	st, evs := eventtest.Build(2, ops)
	m := NewMatcher(pat, Options{MaxHistoryPerTrace: 16})
	for i := 0; i < st.NumTraces(); i++ {
		m.RegisterTrace(st.TraceName(event.TraceID(i)))
	}
	matches := 0
	for _, e := range evs {
		copied := *e
		got, err := m.Feed(&copied)
		if err != nil {
			t.Fatal(err)
		}
		matches += len(got)
		for leaf, h := range m.hist {
			for tr := 0; tr < h.numTraces(); tr++ {
				for _, ent := range h.entries(tr) {
					id := event.ID{Trace: event.TraceID(tr), Index: int(ent.pos)}
					if e := m.store.Get(id); e == nil || e.ID != id {
						t.Fatalf("after %s, leaf %d's entry %s resolves to %v (store compacted below %d)",
							copied.ID, leaf, id, e, m.store.CompactedBefore(id.Trace))
					}
				}
			}
		}
	}
	if s := m.Stats(); s.HistoryEvicted == 0 || s.StoreCompacted == 0 {
		t.Fatalf("evicted %d entries and compacted %d events, want both", s.HistoryEvicted, s.StoreCompacted)
	}
	if matches != 1200 {
		t.Fatalf("%d matches, want one a wave, 1200", matches)
	}
}

func TestHistoryAnyBetween(t *testing.T) {
	// Build a -> x -> b across traces via messages; x same class as a.
	st, evs := eventtest.Build(3, []eventtest.Op{
		{Trace: 0, Kind: event.KindSend, Type: "a", Label: "s1"},   // a
		{Trace: 1, Kind: event.KindReceive, Type: "a", From: "s1"}, // x (class a)
		{Trace: 1, Kind: event.KindSend, Type: "m", Label: "s2"},
		{Trace: 2, Kind: event.KindReceive, Type: "b", From: "s2"}, // b
	})
	h := newHistory()
	for _, e := range evs {
		if e.Type == "a" {
			h.add(e, st.CommCount(e.ID.Trace), false)
		}
	}
	a, b := evs[0], evs[3]
	if !h.anyBetween(st, a, b) {
		t.Fatalf("x lies causally between a and b")
	}
	// Between x and b there is nothing.
	x := evs[1]
	if h.anyBetween(st, x, b) {
		t.Fatalf("nothing lies between x and b")
	}
}

func TestIntervalEmpty(t *testing.T) {
	if (interval{1, 2}).empty() || !(interval{3, 2}).empty() {
		t.Fatalf("interval emptiness wrong")
	}
}
