package event

import (
	"testing"

	"ocep/internal/vclock"
)

func TestRegisterTrace(t *testing.T) {
	s := NewStore()
	a := s.RegisterTrace("alpha")
	b := s.RegisterTrace("beta")
	if a == b {
		t.Fatalf("distinct names must get distinct IDs")
	}
	if again := s.RegisterTrace("alpha"); again != a {
		t.Fatalf("re-registering must return the same ID: got %d want %d", again, a)
	}
	if got, want := s.TraceName(a), "alpha"; got != want {
		t.Fatalf("TraceName = %q want %q", got, want)
	}
	if got, want := s.TraceName(TraceID(9)), "t9"; got != want {
		t.Fatalf("unnamed TraceName = %q want %q", got, want)
	}
	if id, ok := s.TraceByName("beta"); !ok || id != b {
		t.Fatalf("TraceByName(beta) = %d,%v", id, ok)
	}
	if _, ok := s.TraceByName("nope"); ok {
		t.Fatalf("unknown name must not resolve")
	}
	if s.NumTraces() != 2 {
		t.Fatalf("NumTraces = %d want 2", s.NumTraces())
	}
}

// TestTraceNameFallback: an unnamed trace answers "t<N>" without
// allocating and without the synthesized name becoming a registration;
// a later NameTrace replaces it.
func TestTraceNameFallback(t *testing.T) {
	s := NewStore()
	if err := s.Append(&Event{ID: ID{2, 1}, Kind: KindInternal, VC: vclock.VC{0, 0, 1}.Stamp(2)}); err != nil {
		t.Fatal(err)
	}
	if got := s.TraceName(2); got != "t2" {
		t.Fatalf("unnamed TraceName = %q want t2", got)
	}
	if avg := testing.AllocsPerRun(100, func() { _ = s.TraceName(2) }); avg != 0 {
		t.Fatalf("TraceName of an unnamed trace allocates %v times per call", avg)
	}
	if _, ok := s.TraceByName("t2"); ok {
		t.Fatal("the synthesized name must not resolve through TraceByName")
	}
	if id := s.RegisterTrace("t2"); id != 3 {
		t.Fatalf("RegisterTrace(t2) = %d: the synthesized name must not shadow a registration (want new ID 3)", id)
	}
	s.NameTrace(2, "worker")
	if got := s.TraceName(2); got != "worker" {
		t.Fatalf("TraceName after NameTrace = %q want worker", got)
	}
	if id, ok := s.TraceByName("worker"); !ok || id != 2 {
		t.Fatalf("TraceByName(worker) = %d,%v want 2,true", id, ok)
	}
}

func TestAppendOrdering(t *testing.T) {
	s := NewStore()
	e1 := &Event{ID: ID{0, 1}, Kind: KindInternal, VC: vclock.VC{1}.Stamp(0)}
	if err := s.Append(e1); err != nil {
		t.Fatalf("append: %v", err)
	}
	// Wrong index must fail.
	if err := s.Append(&Event{ID: ID{0, 3}, Kind: KindInternal}); err == nil {
		t.Fatalf("out-of-order append must fail")
	}
	// Negative trace must fail.
	if err := s.Append(&Event{ID: ID{-1, 1}}); err == nil {
		t.Fatalf("negative trace must fail")
	}
	// Appending to an unseen high trace grows the store.
	if err := s.Append(&Event{ID: ID{4, 1}, Kind: KindSend, VC: vclock.VC{0, 0, 0, 0, 1}.Stamp(4)}); err != nil {
		t.Fatalf("append to new trace: %v", err)
	}
	if s.NumTraces() != 5 {
		t.Fatalf("NumTraces = %d want 5", s.NumTraces())
	}
	if s.TotalEvents() != 2 {
		t.Fatalf("TotalEvents = %d want 2", s.TotalEvents())
	}
}

func TestGetAndLen(t *testing.T) {
	s := NewStore()
	e := &Event{ID: ID{0, 1}, Kind: KindInternal, VC: vclock.VC{1}.Stamp(0)}
	if err := s.Append(e); err != nil {
		t.Fatal(err)
	}
	if got := s.Get(ID{0, 1}); got != e {
		t.Fatalf("Get returned %v", got)
	}
	for _, id := range []ID{{0, 0}, {0, 2}, {1, 1}, {-1, 1}} {
		if s.Get(id) != nil {
			t.Fatalf("Get(%v) must be nil", id)
		}
	}
	if s.Len(0) != 1 || s.Len(3) != 0 {
		t.Fatalf("Len wrong")
	}
	if s.Events(7) != nil {
		t.Fatalf("Events of unknown trace must be nil")
	}
}

func TestCommCount(t *testing.T) {
	s := NewStore()
	s.RegisterTrace("p0")
	evs := []*Event{
		{ID: ID{0, 1}, Kind: KindInternal, VC: vclock.VC{1}.Stamp(0)},
		{ID: ID{0, 2}, Kind: KindSend, VC: vclock.VC{2}.Stamp(0)},
		{ID: ID{0, 3}, Kind: KindInternal, VC: vclock.VC{3}.Stamp(0)},
		{ID: ID{0, 4}, Kind: KindSyncRelease, VC: vclock.VC{4}.Stamp(0)},
	}
	wants := []int{0, 1, 1, 2}
	for i, e := range evs {
		if err := s.Append(e); err != nil {
			t.Fatal(err)
		}
		if got := s.CommCount(0); got != wants[i] {
			t.Fatalf("after %d appends CommCount = %d want %d", i+1, got, wants[i])
		}
	}
	if s.CommCount(5) != 0 {
		t.Fatalf("CommCount of unknown trace must be 0")
	}
}
