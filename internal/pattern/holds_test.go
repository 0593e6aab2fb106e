package pattern

import (
	"math/rand"
	"testing"

	"ocep/internal/event"
	"ocep/internal/event/eventtest"
)

// holdsOn evaluates a compiled pattern on one event per variable, the
// way the matcher accepts a full assignment: every ordered leaf pair by
// Rel.Holds, then every compound disjunct by Disjunct.Holds.
func holdsOn(c *Compiled, bind map[string]*event.Event) bool {
	assigned := make([]*event.Event, c.K())
	for i, l := range c.Leaves {
		assigned[i] = bind[l.Var]
	}
	for i := range assigned {
		for j := range assigned {
			if i != j && !c.Rel[i][j].Holds(assigned[i], assigned[j]) {
				return false
			}
		}
	}
	for _, d := range c.Disjuncts {
		if !d.Holds(assigned) {
			return false
		}
	}
	return true
}

// someBefore is the paper's "some event of x happens before some event
// of y".
func someBefore(x, y []*event.Event) bool {
	for _, a := range x {
		for _, b := range y {
			if a.Before(b) {
				return true
			}
		}
	}
	return false
}

// operandOps are the compound operators between two-leaf operands A =
// {$a0, $a1} and B = {$b0, $b1}; "<-" is "->" with the operands swapped.
var operandOps = []struct{ name, expr string }{
	{"->", "($a0 && $a1) -> ($b0 && $b1)"},
	{"<-", "($b0 && $b1) -> ($a0 && $a1)"},
	{"<->", "($a0 && $a1) <-> ($b0 && $b1)"},
	{"||", "($a0 && $a1) || ($b0 && $b1)"},
	{"=>", "($a0 && $a1) => ($b0 && $b1)"},
}

// operandSample is one draw of disjoint operands A and B: what each
// compiled operator says (got) and what Section III-B says (want).
type operandSample struct {
	A, B      []*event.Event
	crosses   bool
	got, want map[string]bool
}

// operandSamples compiles X op Y for every operator in operandOps and
// evaluates the compiled forms on random distinct events. The oracle is
// Section III-B spelled out: A crosses B iff they are disjoint with
// ordered pairs both ways, and (1) A <-> B iff A crosses or overlaps B;
// (2) A -> B iff some a -> b and not A <-> B; || needs every cross pair
// concurrent, => every cross pair ordered.
func operandSamples(t *testing.T) []operandSample {
	t.Helper()
	const decl = "E := [*, *, *];\nE $a0;\nE $a1;\nE $b0;\nE $b1;\n"
	compiled := make(map[string]*Compiled, len(operandOps))
	for _, op := range operandOps {
		compiled[op.name] = mustCompile(t, decl+"pattern := "+op.expr+";")
	}
	var out []operandSample
	rng := rand.New(rand.NewSource(606))
	for round := 0; round < 200; round++ {
		_, evs := eventtest.Random(rng, eventtest.RandomConfig{
			Traces: 2 + rng.Intn(3), Events: 12 + rng.Intn(20),
			SendProb: 0.35, RecvProb: 0.35,
		})
		for sample := 0; sample < 10; sample++ {
			p := rng.Perm(len(evs))
			A := []*event.Event{evs[p[0]], evs[p[1]]}
			B := []*event.Event{evs[p[2]], evs[p[3]]}
			bind := map[string]*event.Event{"a0": A[0], "a1": A[1], "b0": B[0], "b1": B[1]}

			crosses := someBefore(A, B) && someBefore(B, A) // A, B are disjoint
			entangled := crosses                            // (1), as A, B never overlap
			concurrent, strong := true, true
			for _, a := range A {
				for _, b := range B {
					concurrent = concurrent && a.Concurrent(b)
					strong = strong && a.Before(b)
				}
			}
			s := operandSample{A: A, B: B, crosses: crosses,
				got: make(map[string]bool, len(operandOps)),
				want: map[string]bool{
					"->":  someBefore(A, B) && !entangled, // (2)
					"<-":  someBefore(B, A) && !entangled,
					"<->": entangled,
					"||":  concurrent,
					"=>":  strong,
				}}
			for _, op := range operandOps {
				s.got[op.name] = holdsOn(compiled[op.name], bind)
			}
			out = append(out, s)
		}
	}
	return out
}

// checkAgrees fails t where a compiled operator in names disagrees with
// its Section III-B equation, or never holds on any sample.
func checkAgrees(t *testing.T, samples []operandSample, names ...string) {
	t.Helper()
	for _, name := range names {
		held := 0
		for i, s := range samples {
			if s.got[name] != s.want[name] {
				t.Fatalf("sample %d: %s holds = %v, Section III-B says %v (A=%v B=%v)",
					i, name, s.got[name], s.want[name], s.A, s.B)
			}
			if s.got[name] {
				held++
			}
		}
		if held == 0 {
			t.Errorf("%s never held: the check is vacuous for it", name)
		}
	}
}

// TestClassificationProperty checks every compiled operator against its
// equation and that exactly one of ->, <-, <-> and || holds between two
// disjoint operands (the classification property of Section III-B).
func TestClassificationProperty(t *testing.T) {
	samples := operandSamples(t)
	checkAgrees(t, samples, "->", "<-", "<->", "||", "=>")
	for i, s := range samples {
		n := 0
		for _, op := range []string{"->", "<-", "<->", "||"} {
			if s.got[op] {
				n++
			}
		}
		if n != 1 {
			t.Fatalf("sample %d: %d of ->, <-, <->, || hold: %v", i, n, s.got)
		}
	}
}

// TestStrongImpliesWeak checks that => on compound operands implies ->.
func TestStrongImpliesWeak(t *testing.T) {
	samples := operandSamples(t)
	checkAgrees(t, samples, "=>")
	for i, s := range samples {
		if s.got["=>"] && !s.got["->"] {
			t.Fatalf("sample %d: => holds but -> does not", i)
		}
	}
}

// TestCrossesAndEntangled checks that crossing operands are <-> and
// neither -> nor <-.
func TestCrossesAndEntangled(t *testing.T) {
	crossings := 0
	for i, s := range operandSamples(t) {
		if !s.crosses {
			continue
		}
		crossings++
		if !s.got["<->"] || s.got["->"] || s.got["<-"] {
			t.Fatalf("sample %d: crossing operands must be <-> and neither -> nor <-: %v", i, s.got)
		}
	}
	if crossings == 0 {
		t.Errorf("no sample crossed: the check is vacuous")
	}
}

// TestPrecedence compares weak precedence in both directions with
// equation (2) and checks that it is antisymmetric.
func TestPrecedence(t *testing.T) {
	samples := operandSamples(t)
	checkAgrees(t, samples, "->", "<-")
	for i, s := range samples {
		if s.got["->"] && s.got["<-"] {
			t.Fatalf("sample %d: -> and <- both hold", i)
		}
	}
}

// TestWeakWithoutStrong checks that the samples include operands where
// -> holds without =>, so => is not merely a synonym of ->.
func TestWeakWithoutStrong(t *testing.T) {
	samples := operandSamples(t)
	checkAgrees(t, samples, "->", "=>")
	weakOnly := 0
	for _, s := range samples {
		if s.got["->"] && !s.got["=>"] {
			weakOnly++
		}
	}
	if weakOnly == 0 {
		t.Errorf("no sample was -> without =>")
	}
}

// TestConcurrent compares || on compound operands with its all-pairs
// definition.
func TestConcurrent(t *testing.T) {
	checkAgrees(t, operandSamples(t), "||")
}
