package vclock

import (
	"maps"
	"math/rand"
	"slices"
	"testing"
)

// model is the reference clock the fuzz target holds VC to: the nonzero
// entries in a map, every operation a fresh copy, so it can neither
// mutate nor alias anything.
type model map[int]int32

func (m model) tick(t int) model { c := maps.Clone(m); c[t]++; return c }

func (m model) merge(o model) model {
	c := maps.Clone(m)
	for t, n := range o {
		c[t] = max(c[t], n)
	}
	return c
}

func (m model) lessEqual(o model) bool {
	for t, n := range m {
		if n > o[t] {
			return false
		}
	}
	return true
}

func (m model) before(ta int, o model, tb int) bool {
	if ta == tb {
		return m[ta] < o[tb]
	}
	return m[ta] <= o[ta]
}

func (m model) compare(ta int, o model, tb int) Relation {
	switch {
	case ta == tb && m[ta] == o[tb]:
		return RelEqual
	case m.before(ta, o, tb):
		return RelBefore
	case o.before(tb, m, ta):
		return RelAfter
	}
	return RelConcurrent
}

// FuzzStampVsDense interprets the fuzz input as a program over at most
// 16 traces, each step an event of one trace, and stamps every event two
// ways: with Tick and Join, as the collector does, and with a dense
// Fidge/Mattern clock per trace, the model. Every stamp's Get, Range
// and String must equal the model's, its Weight the model's window
// (first to last nonzero entry) at a join and one elsewhere, and Before
// and Compare of the new event against every earlier one must agree
// with the dense clocks'.
//
// Opcodes (byte triples: op, trace, operand):
//
//	0: internal event
//	1: send (2: sync release), recorded as message number len(sent)
//	3: receive (4: sync acquire) of sent message operand % len(sent)
func FuzzStampVsDense(f *testing.F) {
	f.Add([]byte{1, 0, 0, 3, 1, 0, 0, 1, 0, 1, 1, 0, 3, 0, 1})
	f.Add([]byte{2, 15, 0, 4, 0, 0, 0, 0, 0, 4, 15, 0})
	rng := rand.New(rand.NewSource(321))
	for i := 0; i < 8; i++ {
		program := make([]byte, 600)
		rng.Read(program)
		f.Add(program)
	}
	// A pair on traces 14 and 15 whose receiver starts with a receive.
	f.Add([]byte{1, 14, 0, 3, 15, 0, 1, 15, 0, 3, 14, 1, 1, 14, 0, 3, 15, 2})
	// Pairs 12-13 and 1-2, then a join of trace 12 on a send whose
	// window lies wholly below the receiver's, and one of trace 1 on a
	// send whose window lies wholly above.
	f.Add([]byte{1, 13, 0, 3, 12, 0, 1, 2, 0, 3, 1, 1, 1, 1, 0, 3, 12, 2})
	f.Add([]byte{1, 13, 0, 3, 12, 0, 1, 2, 0, 3, 1, 1, 1, 12, 0, 3, 1, 2})
	f.Fuzz(func(t *testing.T, program []byte) {
		type stamped struct {
			st    Stamp
			dense VC
			m     model
			trace int
			join  bool
		}
		var stamps [16]Stamp
		var clocks [16]VC
		var sent, events []stamped
		for i := 0; i+2 < len(program); i += 3 {
			op, tr := program[i]%5, int(program[i+1]%16)
			e := stamped{trace: tr, join: op >= 3 && len(sent) > 0}
			prev, prevDense := stamps[tr], clocks[tr].Clone()
			if e.join {
				from := sent[int(program[i+2])%len(sent)]
				stamps[tr] = stamps[tr].Join(from.st, tr, nil)
				clocks[tr] = clocks[tr].Merge(from.dense)
			} else {
				stamps[tr] = stamps[tr].Tick(tr)
			}
			clocks[tr] = clocks[tr].Tick(tr)
			e.st, e.dense = stamps[tr], clocks[tr].Clone()
			if op == 1 || op == 2 {
				sent = append(sent, e)
			}
			var ranged []int32
			e.st.Range(func(u int, n int32) bool { ranged = append(ranged, int32(u), n); return true })
			var want []int32
			e.dense.Range(func(u int, n int32) bool { want = append(want, int32(u), n); return true })
			weight := 1
			if e.join { // the window, from the first nonzero entry on
				weight = len(e.dense)
				for u := 0; e.dense[u] == 0; u++ {
					weight--
				}
			}
			if e.st.String() != e.dense.String() || !slices.Equal(ranged, want) || e.st.Weight() != weight {
				t.Fatalf("step %d: stamp %s ranges %v weighs %d; dense %s ranges %v weighs %d",
					i, e.st, ranged, e.st.Weight(), e.dense, want, weight)
			}
			// Rises walks the foreign entries that rose along the trace;
			// backwards, it fails exactly where one rose.
			var rose, wantRose []int32
			for u := 0; u < len(e.dense); u++ {
				if u != tr && e.dense.Get(u) > prevDense.Get(u) {
					wantRose = append(wantRose, int32(u), int32(e.dense.Get(u)))
				}
			}
			up := e.st.Rises(prev, func(u int, n int32) { rose = append(rose, int32(u), n) })
			down := prev.Rises(e.st, func(int, int32) {})
			if !up || !slices.Equal(rose, wantRose) || prev.Get(tr) > 0 && down != (len(wantRose) == 0) {
				t.Fatalf("step %d: %s.Rises(%s) = %v, %v; backwards %v; dense rises %v", i, e.st, prev, up, rose, down, wantRose)
			}
			for _, u := range []int{-1, 0, tr, 15, 16, 1000} {
				if e.st.Get(u) != e.dense.Get(u) {
					t.Fatalf("step %d: %s.Get(%d) = %d, dense %s", i, e.st, u, e.st.Get(u), e.dense)
				}
			}
			e.m = model{}
			e.dense.Range(func(u int, n int32) bool { e.m[u] = n; return true })
			for _, o := range events {
				if Before(o.st, e.st) != o.m.before(o.trace, e.m, tr) || Before(e.st, o.st) != e.m.before(tr, o.m, o.trace) ||
					Compare(o.st, e.st) != o.m.compare(o.trace, e.m, tr) {
					t.Fatalf("step %d: %s@%d vs %s@%d: Before/Compare disagree with the dense clocks", i, o.st, o.trace, e.st, tr)
				}
			}
			events = append(events, e)
		}
	})
}

// FuzzVCVsModel interprets the fuzz input as a program of clock
// operations applied to a VC pair (main, partner) and to their models,
// and fails on any observable divergence: the entries Range visits, Get,
// width, Equal, LessEqual, Before, Concurrent and Compare. Both pairs
// are checked after every step, so a Merge that mutated its argument, or
// a Merge or Clone whose result shares storage with its source, shows at
// the next Tick.
//
// Opcodes (byte pairs: op, operand):
//
//	0: main.Tick(operand % 64)
//	1: main = main.Merge(partner)
//	2: partner = main.Clone()
//	3: compare main vs partner at traces (operand%64, operand/4%64)
//	4: swap main and partner
func FuzzVCVsModel(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 2, 0, 0, 5, 1, 0, 3, 9})
	f.Add([]byte{0, 63, 0, 63, 2, 0, 0, 0, 1, 0, 3, 255})
	f.Add([]byte{2, 0, 3, 0})
	// Long random programs, so the seed corpus `go test` runs is a
	// property test and not three examples.
	rng := rand.New(rand.NewSource(123))
	for i := 0; i < 8; i++ {
		program := make([]byte, 400)
		rng.Read(program)
		f.Add(program)
	}
	f.Fuzz(func(t *testing.T, program []byte) {
		var v, part VC
		m, mPart := model{}, model{}
		same := func(step int, name string, v VC, m model) {
			seen, prev, span := 0, -1, 0
			v.Range(func(tr int, n int32) bool {
				if tr <= prev || n == 0 || m[tr] != n {
					t.Fatalf("step %d: %s visits (%d, %d) after trace %d; model %v", step, name, tr, n, prev, m)
				}
				seen, prev, span = seen+1, tr, tr+1
				return true
			})
			if seen != len(m) || len(v) < span {
				t.Fatalf("step %d: %s = %s (width %d) holds %d entries, model %v", step, name, v, len(v), seen, m)
			}
			for _, tr := range []int{-1, 0, 7, 63, 64, 1000} {
				if v.Get(tr) != int(m[tr]) {
					t.Fatalf("step %d: %s.Get(%d) = %d, model %d", step, name, tr, v.Get(tr), m[tr])
				}
			}
		}
		for i := 0; i+1 < len(program); i += 2 {
			op, arg := program[i], program[i+1]
			switch op % 5 {
			case 0:
				v, m = v.Tick(int(arg%64)), m.tick(int(arg%64))
			case 1:
				v, m = v.Merge(part), m.merge(mPart)
			case 2:
				part, mPart = v.Clone(), m
			case 3:
				ta, tb := int(arg%64), int(arg/4)%64
				a, b := v.Stamp(ta), part.Stamp(tb)
				if Before(a, b) != m.before(ta, mPart, tb) || Before(b, a) != mPart.before(tb, m, ta) {
					t.Fatalf("step %d: Before diverged at (%d,%d): %s vs %s", i, ta, tb, v, part)
				}
				want := m.compare(ta, mPart, tb)
				if got := Compare(a, b); got != want {
					t.Fatalf("step %d: Compare(%s@%d, %s@%d) = %v, model %v", i, v, ta, part, tb, got, want)
				}
				if Concurrent(a, b) != (want == RelConcurrent) {
					t.Fatalf("step %d: Concurrent(%s@%d, %s@%d) disagrees with %v", i, v, ta, part, tb, want)
				}
				if v.LessEqual(part) != m.lessEqual(mPart) || part.LessEqual(v) != mPart.lessEqual(m) {
					t.Fatalf("step %d: LessEqual diverged: %s vs %s", i, v, part)
				}
				if v.Equal(part) != maps.Equal(m, mPart) {
					t.Fatalf("step %d: Equal(%s, %s) = %v", i, v, part, v.Equal(part))
				}
			case 4:
				v, part, m, mPart = part, v, mPart, m
			}
			same(i, "main", v, m)
			same(i, "partner", part, mPart)
		}
	})
}
