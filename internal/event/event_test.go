package event

import (
	"math"
	"strings"
	"testing"
	"unsafe"

	"ocep/internal/fifo"
	"ocep/internal/vclock"
)

func TestIDZeroAndString(t *testing.T) {
	var id ID
	if !id.IsZero() {
		t.Fatalf("zero ID must report IsZero")
	}
	id = ID{Trace: 2, Index: 17}
	if id.IsZero() {
		t.Fatalf("real ID must not report IsZero")
	}
	if got, want := id.String(), "t2#17"; got != want {
		t.Fatalf("got %q want %q", got, want)
	}
}

// TestRefRoundTrip: a Ref holds every ID an event can name, the zero
// Ref is the zero ID, and an ID a Ref cannot hold is refused, never
// truncated.
func TestRefRoundTrip(t *testing.T) {
	for _, id := range []ID{{}, {0, 1}, {5, 17}, {MaxTraces - 1, math.MaxInt32}, {1 << 16, math.MaxUint32}} {
		r := RefTo(id)
		if r.ID() != id || r.IsZero() != id.IsZero() || r.String() != id.String() {
			t.Errorf("RefTo(%v) reads back %v (zero %v, %q)", id, r.ID(), r.IsZero(), r)
		}
	}
	if (Ref{}).ID() != (ID{}) {
		t.Errorf("the zero Ref reads %v", Ref{}.ID())
	}
	for _, id := range []ID{{MaxTraces, 1}, {-1, 1}, {0, math.MaxUint32 + 1}, {0, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("RefTo(%v) did not panic", id)
				}
			}()
			RefTo(id)
		}()
	}
}

// TestEventLayout pins an event at 72 bytes, Kind and Partner sharing
// its last word, and checks that both chunked homes of events fill
// their size class beside the 8-byte header of a pointerful object: a
// slab chunk the 8 KiB class, a delivery-log chunk the 32 KiB one.
func TestEventLayout(t *testing.T) {
	var e Event
	if size := unsafe.Sizeof(e); size != 72 {
		t.Errorf("an Event is %d bytes, want 72", size)
	}
	if unsafe.Sizeof(Ref{}) != 7 || unsafe.Alignof(Ref{}) != 1 || unsafe.Offsetof(e.Kind) != 64 || unsafe.Offsetof(e.Partner) != 65 {
		t.Errorf("Kind at %d and a %d-byte Partner (alignment %d) at %d, want one word at 64",
			unsafe.Offsetof(e.Kind), unsafe.Sizeof(Ref{}), unsafe.Alignof(Ref{}), unsafe.Offsetof(e.Partner))
	}
	const header = 8
	size := int(unsafe.Sizeof(e))
	for _, c := range []struct {
		what     string
		n, class int
	}{
		{"slab", eventChunkLen, 8 << 10},
		{"log", fifo.ChunkCap[Event](), fifo.ChunkBytes},
	} {
		if used := c.n*size + header; used > c.class || used+size <= c.class {
			t.Errorf("a %s chunk of %d events is %d B with its header: it does not fill the %d B class", c.what, c.n, used, c.class)
		}
	}
}

func TestKindString(t *testing.T) {
	tests := []struct {
		k    Kind
		want string
		comm bool
	}{
		{KindInternal, "internal", false},
		{KindSend, "send", true},
		{KindReceive, "receive", true},
		{KindSyncAcquire, "acquire", true},
		{KindSyncRelease, "release", true},
		{Kind(0), "Kind(0)", false},
	}
	for _, tc := range tests {
		if got := tc.k.String(); got != tc.want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(tc.k), got, tc.want)
		}
		if got := tc.k.IsComm(); got != tc.comm {
			t.Errorf("Kind(%d).IsComm() = %v, want %v", int(tc.k), got, tc.comm)
		}
	}
}

func TestEventRelations(t *testing.T) {
	// a on trace 0 sends to b on trace 1; c on trace 2 is concurrent.
	a := &Event{ID: ID{0, 1}, Kind: KindSend, VC: vclock.VC{1, 0, 0}.Stamp(0)}
	b := &Event{ID: ID{1, 1}, Kind: KindReceive, VC: vclock.VC{1, 1, 0}.Stamp(1), Partner: RefTo(a.ID)}
	c := &Event{ID: ID{2, 1}, Kind: KindInternal, VC: vclock.VC{0, 0, 1}.Stamp(2)}

	if !a.Before(b) || b.Before(a) {
		t.Fatalf("want a -> b only")
	}
	if !a.Concurrent(c) || !c.Concurrent(a) {
		t.Fatalf("want a || c")
	}
	if got := a.Relation(b); got != vclock.RelBefore {
		t.Fatalf("relation a,b = %v", got)
	}
	if got := b.Relation(a); got != vclock.RelAfter {
		t.Fatalf("relation b,a = %v", got)
	}
	if got := a.Relation(a); got != vclock.RelEqual {
		t.Fatalf("relation a,a = %v", got)
	}
	if got := c.Relation(b); got != vclock.RelConcurrent {
		t.Fatalf("relation c,b = %v", got)
	}
}

func TestEventString(t *testing.T) {
	e := &Event{ID: ID{1, 3}, Kind: KindSend, Type: "mpi_send", Text: "to 2", VC: vclock.VC{0, 3}.Stamp(1)}
	s := e.String()
	for _, want := range []string{"t1#3", "send", `"mpi_send"`, `"to 2"`, "[0 3]"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}
