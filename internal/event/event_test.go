package event

import (
	"strings"
	"testing"

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
	b := &Event{ID: ID{1, 1}, Kind: KindReceive, VC: vclock.VC{1, 1, 0}.Stamp(1), Partner: a.ID}
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
