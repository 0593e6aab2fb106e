package event_test

import (
	"testing"

	"ocep/internal/event"
	"ocep/internal/vclock"
)

func compactFixture(t *testing.T, n int) *event.Store {
	t.Helper()
	st := event.NewStore()
	st.RegisterTrace("p0")
	vc := vclock.New(1)
	for i := 1; i <= n; i++ {
		vc = vc.Tick(0)
		if err := st.Append(&event.Event{
			ID:   event.ID{Trace: 0, Index: i},
			Kind: event.KindInternal,
			VC:   vc.Stamp(0),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// TestCompactTrace: logical indexing survives prefix compaction — Len
// stays logical, Append expects the next logical index, Get returns nil
// for compacted events and the right event for retained ones.
func TestCompactTrace(t *testing.T) {
	st := compactFixture(t, 10)
	if got := st.CompactTrace(0, 5); got != 4 {
		t.Fatalf("CompactTrace dropped %d, want 4", got)
	}
	if got := st.Len(0); got != 10 {
		t.Fatalf("Len after compaction = %d, want logical 10", got)
	}
	if got := st.RetainedEvents(); got != 6 {
		t.Fatalf("RetainedEvents = %d, want 6", got)
	}
	if got := st.TotalEvents(); got != 10 {
		t.Fatalf("TotalEvents = %d, want logical 10", got)
	}
	if got := st.CompactedBefore(0); got != 4 {
		t.Fatalf("CompactedBefore = %d, want 4", got)
	}
	if e := st.Get(event.ID{Trace: 0, Index: 4}); e != nil {
		t.Fatalf("compacted event still reachable: %v", e.ID)
	}
	for i := 5; i <= 10; i++ {
		e := st.Get(event.ID{Trace: 0, Index: i})
		if e == nil || e.ID.Index != i {
			t.Fatalf("retained event %d: got %v", i, e)
		}
	}
	// Append still expects the next logical index.
	vc := vclock.New(1)
	for i := 0; i < 11; i++ {
		vc = vc.Tick(0)
	}
	if err := st.Append(&event.Event{ID: event.ID{Trace: 0, Index: 11}, Kind: event.KindInternal, VC: vc.Stamp(0)}); err != nil {
		t.Fatalf("append after compaction: %v", err)
	}
	if err := st.Append(&event.Event{ID: event.ID{Trace: 0, Index: 11}, Kind: event.KindInternal, VC: vc.Stamp(0)}); err == nil {
		t.Fatal("duplicate logical index accepted after compaction")
	}
	// Compacting below the current base or beyond the end is clamped.
	if got := st.CompactTrace(0, 3); got != 0 {
		t.Fatalf("re-compacting below base dropped %d, want 0", got)
	}
	if got := st.CompactTrace(0, 100); got != 7 {
		t.Fatalf("compact-all dropped %d, want 7", got)
	}
	if got := st.Len(0); got != 11 {
		t.Fatalf("Len after compact-all = %d, want 11", got)
	}
}

// TestLSAfterCompaction: over a compacted trace LS returns
// max(true LS, first retained index) — exact for every retained
// candidate at or above the compaction point.
func TestLSAfterCompaction(t *testing.T) {
	st := event.NewStore()
	st.RegisterTrace("p0")
	st.RegisterTrace("p1")
	c0, c1 := vclock.New(2), vclock.New(2)
	// p0#1 is a send; p1#1 receives it, then p1 runs internal events —
	// every p1 event succeeds p0#1.
	c0 = c0.Tick(0)
	send := &event.Event{ID: event.ID{Trace: 0, Index: 1}, Kind: event.KindSend, VC: c0.Stamp(0)}
	if err := st.Append(send); err != nil {
		t.Fatal(err)
	}
	c1 = c1.Merge(c0).Tick(1)
	if err := st.Append(&event.Event{ID: event.ID{Trace: 1, Index: 1}, Kind: event.KindReceive, VC: c1.Stamp(1)}); err != nil {
		t.Fatal(err)
	}
	for i := 2; i <= 6; i++ {
		c1 = c1.Tick(1)
		if err := st.Append(&event.Event{ID: event.ID{Trace: 1, Index: i}, Kind: event.KindInternal, VC: c1.Stamp(1)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := st.LS(send, 1); got != 1 {
		t.Fatalf("LS before compaction = %d, want 1", got)
	}
	st.CompactTrace(1, 4)
	// The true least successor (p1#1) is compacted; the first retained
	// successor is p1#4.
	if got := st.LS(send, 1); got != 4 {
		t.Fatalf("LS after compaction = %d, want first retained 4", got)
	}
}
