package vclock

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTickMergeBasics(t *testing.T) {
	v := New(3).Tick(0)
	if got, want := v.String(), "[1 0 0]"; got != want {
		t.Fatalf("after tick: got %s want %s", got, want)
	}
	w := New(3).Tick(1).Tick(1)
	v = v.Merge(w)
	if got, want := v.String(), "[1 2 0]"; got != want {
		t.Fatalf("after merge: got %s want %s", got, want)
	}
}

func TestTickGrows(t *testing.T) {
	v := (VC)(nil).Tick(4)
	if len(v) != 5 || v[4] != 1 {
		t.Fatalf("tick did not grow: %v", v)
	}
}

func TestCloneIndependent(t *testing.T) {
	t.Run("dense", func(t *testing.T) {
		v := VC(nil).Tick(0)
		c := v.Clone().Tick(1)
		if v.Get(1) != 0 || c.Get(1) != 1 {
			t.Fatalf("clone aliased original: %v / %v", v, c)
		}
	})
	if (VC)(nil).Clone() != nil {
		t.Fatalf("nil clone should stay nil")
	}
}

// TestNilZeroValues pins the zero-value contract: a nil clock reads as
// all-zero, compares equal to every other empty clock, and is LessEqual
// everything.
func TestNilZeroValues(t *testing.T) {
	zeros := []VC{nil, {}, New(3)}
	for i, a := range zeros {
		if a.Get(0) != 0 || a.Get(42) != 0 || a.Get(-1) != 0 {
			t.Fatalf("zero clock %d must read zero everywhere", i)
		}
		for j, b := range zeros {
			if !a.Equal(b) {
				t.Fatalf("zero clocks %d and %d must be equal (%s vs %s)", i, j, a, b)
			}
			if !a.LessEqual(b) {
				t.Fatalf("zero clock %d must be <= zero clock %d", i, j)
			}
		}
		one := New(2).Tick(1)
		if !a.LessEqual(one) || one.LessEqual(a) {
			t.Fatalf("zero clock %d must be strictly below a ticked clock", i)
		}
		// A zero stamp has entry 0 everywhere, so under the
		// va[ta] == index convention it trivially precedes any real
		// event and nothing precedes it.
		real := New(2).Tick(1)
		if Before(a.Stamp(0), a.Stamp(0)) || !Before(a.Stamp(0), real.Stamp(1)) || Before(real.Stamp(1), a.Stamp(0)) {
			t.Fatalf("zero clock %d: Before on nil broke", i)
		}
	}
}

func TestGetOutOfRange(t *testing.T) {
	v := New(2)
	if v.Get(-1) != 0 || v.Get(7) != 0 {
		t.Fatalf("out-of-range Get must be zero")
	}
}

func TestEqualDifferentLengths(t *testing.T) {
	a := VC{1, 0}
	b := VC{1, 0, 0, 0}
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatalf("clocks padded with zeros must compare equal")
	}
	c := VC{1, 0, 1}
	if a.Equal(c) {
		t.Fatalf("distinct clocks compared equal")
	}
}

func TestLessEqual(t *testing.T) {
	tests := []struct {
		name string
		a, b VC
		want bool
	}{
		{"equal", VC{1, 2}, VC{1, 2}, true},
		{"less", VC{1, 1}, VC{1, 2}, true},
		{"greater", VC{2, 2}, VC{1, 2}, false},
		{"incomparable", VC{2, 0}, VC{0, 2}, false},
		{"shorter", VC{1}, VC{1, 5}, true},
		{"longer zero tail", VC{1, 0}, VC{1}, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.a.LessEqual(tc.b); got != tc.want {
				t.Fatalf("LessEqual(%v, %v) = %v, want %v", tc.a, tc.b, got, tc.want)
			}
		})
	}
}

// TestMergeAliasing pins the documented Merge contract (the append
// semantics): the returned clock is the merged value, the argument is
// never mutated, and mutating the result afterwards never changes the
// argument — across every length combination that picks a different
// in-place/copy path.
func TestMergeAliasing(t *testing.T) {
	lengths := [][2]int{{0, 0}, {0, 3}, {3, 0}, {2, 5}, {5, 2}, {4, 4}}
	t.Run("dense", func(t *testing.T) {
		for _, ln := range lengths {
			var recv, arg VC
			for i := 0; i < ln[0]; i++ {
				recv = recv.Tick(i)
			}
			for i := 0; i < ln[1]; i++ {
				arg = arg.Tick(i).Tick(i)
			}
			argSnap := arg.Clone()
			got := recv.Merge(arg)
			if !arg.Equal(argSnap) {
				t.Fatalf("len %v: Merge mutated its argument: %s != %s", ln, arg, argSnap)
			}
			// Mutate the result heavily; the argument must not move.
			for i := 0; i < 8; i++ {
				got = got.Tick(i)
			}
			if !arg.Equal(argSnap) {
				t.Fatalf("len %v: result aliases the argument: %s != %s", ln, arg, argSnap)
			}
			// And the merged value must dominate both inputs.
			if !argSnap.LessEqual(got) {
				t.Fatalf("len %v: merge lost argument entries", ln)
			}
		}
	})
}

// TestMergeSelf checks merging a clock with itself (and with an aliasing
// prefix) is a no-op on the values.
func TestMergeSelf(t *testing.T) {
	v := New(4).Tick(0).Tick(2).Tick(2)
	want := v.Clone()
	if got := v.Merge(v); !got.Equal(want) {
		t.Fatalf("self-merge changed values: %s != %s", got, want)
	}
	d := v.Clone()
	if got := d.Merge(d[:2]); !got.Equal(want) {
		t.Fatalf("prefix self-merge changed values: %s != %s", got, want)
	}
}

// stampedEvent is an event produced by the reference simulation in
// newHistory, carrying its ground-truth causal ancestry for oracle checks.
type stampedEvent struct {
	trace, index int // 1-based index within trace
	vc           VC
	st           Stamp           // built by Tick and Join, as the collector does
	ancestors    map[[2]int]bool // set of (trace,index) that happen before
}

// newHistory simulates nTraces communicating processes for steps steps and
// returns events with both vector clocks and ground-truth ancestor sets.
func newHistory(rng *rand.Rand, nTraces, steps int) []stampedEvent {
	clocks := make([]VC, nTraces)
	stamps := make([]Stamp, nTraces)
	anc := make([]map[[2]int]bool, nTraces) // ancestors known to each trace
	counts := make([]int, nTraces)
	for i := range clocks {
		anc[i] = map[[2]int]bool{}
	}
	var events []stampedEvent
	var lastSend *stampedEvent
	for s := 0; s < steps; s++ {
		tr := rng.Intn(nTraces)
		kind := rng.Intn(3) // 0: internal, 1: send, 2: receive of lastSend
		if kind == 2 && (lastSend == nil || lastSend.trace == tr) {
			kind = 0
		}
		if kind == 2 {
			clocks[tr] = clocks[tr].Merge(lastSend.vc)
			stamps[tr] = stamps[tr].Join(lastSend.st, tr, nil)
			for k := range lastSend.ancestors {
				anc[tr][k] = true
			}
			anc[tr][[2]int{lastSend.trace, lastSend.index}] = true
		}
		clocks[tr] = clocks[tr].Tick(tr)
		if kind != 2 {
			stamps[tr] = stamps[tr].Tick(tr)
		}
		counts[tr]++
		ev := stampedEvent{
			trace:     tr,
			index:     counts[tr],
			vc:        clocks[tr].Clone(),
			st:        stamps[tr],
			ancestors: make(map[[2]int]bool, len(anc[tr])),
		}
		for k := range anc[tr] {
			ev.ancestors[k] = true
		}
		anc[tr][[2]int{tr, ev.index}] = true
		events = append(events, ev)
		if kind == 1 {
			evCopy := ev
			lastSend = &evCopy
		}
	}
	return events
}

// TestBeforeMatchesGroundTruth checks the O(1) Before test against the
// simulation's ground-truth ancestor sets.
func TestBeforeMatchesGroundTruth(t *testing.T) {
	t.Run("dense", func(t *testing.T) {
		rng := rand.New(rand.NewSource(42))
		for round := 0; round < 20; round++ {
			events := newHistory(rng, 2+rng.Intn(5), 60)
			for i, a := range events {
				for j, b := range events {
					if i == j {
						continue
					}
					want := b.ancestors[[2]int{a.trace, a.index}]
					got := Before(a.st, b.st)
					if got != want {
						t.Fatalf("round %d: Before(%v@%d, %v@%d) = %v, want %v",
							round, a.st, a.trace, b.st, b.trace, got, want)
					}
				}
			}
		}
	})
}

// TestIndexConvention pins the va[ta] == index(a) invariant Before
// relies on: after a trace's i-th event, entry ta of its stamp is i.
func TestIndexConvention(t *testing.T) {
	t.Run("dense", func(t *testing.T) {
		rng := rand.New(rand.NewSource(17))
		events := newHistory(rng, 4, 120)
		for _, e := range events {
			if got := e.vc.Get(e.trace); got != e.index || e.st.Get(e.trace) != e.index {
				t.Fatalf("stamp entry %d (%d shared) for trace %d, want index %d (vc=%s)",
					got, e.st.Get(e.trace), e.trace, e.index, e.vc)
			}
			if !e.st.Equal(e.vc.Stamp(e.trace)) || e.st.String() != e.vc.String() {
				t.Fatalf("shared stamp %s, dense clock %s", e.st, e.vc)
			}
		}
	})
}

// TestPartialOrderLaws checks irreflexivity, antisymmetry and transitivity
// of Before, and symmetry of Concurrent, over simulated histories.
func TestPartialOrderLaws(t *testing.T) {
	t.Run("dense", func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		events := newHistory(rng, 4, 80)
		for _, a := range events {
			if Before(a.st, a.st) {
				t.Fatalf("Before must be irreflexive: %v", a)
			}
			if Concurrent(a.st, a.st) {
				t.Fatalf("an event is not concurrent with itself: %v", a)
			}
		}
		for _, a := range events {
			for _, b := range events {
				ab := Before(a.st, b.st)
				ba := Before(b.st, a.st)
				if ab && ba {
					t.Fatalf("antisymmetry violated: %v <-> %v", a, b)
				}
				if got, want := Concurrent(a.st, b.st),
					Concurrent(b.st, a.st); got != want {
					t.Fatalf("concurrency must be symmetric")
				}
				for _, c := range events {
					if ab && Before(b.st, c.st) {
						if !Before(a.st, c.st) {
							t.Fatalf("transitivity violated: %v -> %v -> %v", a, b, c)
						}
					}
				}
			}
		}
	})
}

// TestCompareConsistent checks Compare agrees with Before/Concurrent,
// including the same-trace equal/before/after cases.
func TestCompareConsistent(t *testing.T) {
	t.Run("dense", func(t *testing.T) {
		rng := rand.New(rand.NewSource(99))
		events := newHistory(rng, 3, 60)
		for _, a := range events {
			for _, b := range events {
				r := Compare(a.st, b.st)
				switch {
				case a.trace == b.trace && a.index == b.index:
					if r != RelEqual {
						t.Fatalf("want equal, got %v", r)
					}
				case Before(a.st, b.st):
					if r != RelBefore {
						t.Fatalf("want before, got %v", r)
					}
				case Before(b.st, a.st):
					if r != RelAfter {
						t.Fatalf("want after, got %v", r)
					}
				default:
					if r != RelConcurrent {
						t.Fatalf("want concurrent, got %v", r)
					}
				}
			}
		}
	})
}

// TestSameTraceCompare pins the same-trace fast path explicitly: two
// stamps on one trace order purely by that trace's entry.
func TestSameTraceCompare(t *testing.T) {
	mk := func(ticks int) VC {
		var c VC
		for i := 0; i < ticks; i++ {
			c = c.Tick(1)
		}
		return c
	}
	t.Run("dense", func(t *testing.T) {
		a := mk(2).Stamp(1)
		b := mk(5).Stamp(1)
		if Compare(a, b) != RelBefore || Compare(b, a) != RelAfter {
			t.Fatalf("same-trace before/after broken")
		}
		if Compare(a, a.Dense().Stamp(1)) != RelEqual {
			t.Fatalf("same-trace equal broken")
		}
		if !Before(a, b) || Before(b, a) || Before(a, a) {
			t.Fatalf("same-trace Before broken")
		}
	})
}

func TestRelationString(t *testing.T) {
	tests := []struct {
		r    Relation
		want string
	}{
		{RelBefore, "before"},
		{RelAfter, "after"},
		{RelEqual, "equal"},
		{RelConcurrent, "concurrent"},
		{Relation(0), "Relation(0)"},
	}
	for _, tc := range tests {
		if got := tc.r.String(); got != tc.want {
			t.Errorf("Relation(%d).String() = %q, want %q", int(tc.r), got, tc.want)
		}
	}
}

// TestMergeProperties uses testing/quick to check algebraic laws of Merge
// — commutativity, idempotence, domination of both inputs.
func TestMergeProperties(t *testing.T) {
	norm := func(xs []uint8) VC {
		v := New(len(xs))
		for i, x := range xs {
			v[i] = int32(x)
		}
		return v
	}
	t.Run("dense-dense", func(t *testing.T) {
		commutative := func(xs, ys []uint8) bool {
			a, b := norm(xs), norm(ys)
			return a.Clone().Merge(b).Equal(b.Clone().Merge(a))
		}
		if err := quick.Check(commutative, nil); err != nil {
			t.Errorf("merge not commutative: %v", err)
		}
		idempotent := func(xs []uint8) bool {
			a := norm(xs)
			return a.Clone().Merge(a).Equal(a)
		}
		if err := quick.Check(idempotent, nil); err != nil {
			t.Errorf("merge not idempotent: %v", err)
		}
		dominates := func(xs, ys []uint8) bool {
			a, b := norm(xs), norm(ys)
			m := a.Clone().Merge(b)
			return a.LessEqual(m) && b.LessEqual(m)
		}
		if err := quick.Check(dominates, nil); err != nil {
			t.Errorf("merge does not dominate inputs: %v", err)
		}
	})
}

func TestStringFormat(t *testing.T) {
	if got, want := (VC{1, 2, 3}).String(), "[1 2 3]"; got != want {
		t.Fatalf("got %q want %q", got, want)
	}
	if got, want := (VC{}).String(), "[]"; got != want {
		t.Fatalf("got %q want %q", got, want)
	}
}

// BenchmarkBefore compares stamps whose join clocks start at trace 0
// (dense) and stamps of a pair whose windows start above it (window).
func BenchmarkBefore(b *testing.B) {
	for _, bc := range []struct {
		name   string
		va, vb Stamp
	}{
		{"dense", VC{5, 3, 8, 1, 9, 2, 7, 4}.Stamp(2), VC{6, 3, 9, 1, 9, 2, 8, 4}.Stamp(5)},
		{"window", VC{0, 0, 0, 0, 0, 0, 7, 4}.Stamp(6), VC{0, 0, 0, 0, 0, 0, 8, 5}.Stamp(7)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Before(bc.va, bc.vb)
			}
		})
	}
}

func BenchmarkMerge(b *testing.B) {
	va := New(64)
	vb := New(64)
	for i := range vb {
		vb[i] = int32(i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		va.Merge(vb)
	}
}
