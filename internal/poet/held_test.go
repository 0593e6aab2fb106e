package poet

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// TestHeldQueueMatchesMapModel drives heldQueue the way reportLocked and
// drain do and holds it, after every step, to the map[int]RawEvent keyed
// by Seq it replaced: random arrival orders around the delivery point,
// duplicates, stale Seqs, Seqs far ahead, an admission limit, heads
// delivered on arrival (never held) and drains of every length. The
// queue must hold exactly the model's events in Seq order, answer the
// duplicate test, the front, the contiguous run and the length as the
// map does, and keep no more than heldKeep slots once empty.
func TestHeldQueueMatchesMapModel(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q heldQueue
		model := make(map[int]RawEvent)
		next, limit := 1, 0
		if seed%3 == 1 {
			limit = 1 + rng.Intn(8)
		}
		check := func(step int, op string) {
			t.Helper()
			fail := func(format string, args ...any) {
				t.Helper()
				t.Fatalf("seed %d step %d (%s): %s", seed, step, op, fmt.Sprintf(format, args...))
			}
			if q.len() != len(model) {
				fail("len %d, model %d", q.len(), len(model))
			}
			keys := make([]int, 0, len(model))
			for k := range model {
				keys = append(keys, k)
			}
			sort.Ints(keys)
			for i, k := range keys {
				if got := q.evs[q.head+i]; got != model[k] {
					fail("position %d holds %+v, model %+v", i, got, model[k])
				}
			}
			run := 0
			for _, ok := model[next+run]; ok; _, ok = model[next+run] {
				run++
			}
			if got := q.run(next); got != run {
				fail("run from %d = %d, model %d", next, got, run)
			}
			if raw, ok := q.front(next); ok != (run > 0) || ok && raw != model[next] {
				fail("front(%d) = %+v %v", next, raw, ok)
			}
			if q.len() == 0 && (q.head != 0 || cap(q.evs) > heldKeep) {
				fail("empty queue keeps head %d, %d slots", q.head, cap(q.evs))
			}
		}
		for step := 0; step < 400; step++ {
			if rng.Intn(3) == 0 {
				// drain: deliver the head while it is next, some of the way
				for n := rng.Intn(len(model) + 2); n > 0; n-- {
					if _, ok := q.front(next); !ok {
						break
					}
					q.pop()
					delete(model, next)
					next++
				}
				check(step, "drain")
				continue
			}
			var seq int
			switch r := rng.Intn(10); {
			case r < 4:
				seq = next + rng.Intn(12) // mostly ahead, in any order
			case r < 6:
				seq = next + len(model) + rng.Intn(3) // past the tail: the reporter's own order
			case r < 7 && len(model) > 0:
				for k := range model { // a duplicate
					seq = k
					break
				}
			case r < 8:
				seq = next - 1 - rng.Intn(3) // stale
			case r < 9:
				seq = next + 1_000_000 + rng.Intn(1000) // far ahead
			default:
				seq = next
			}
			raw := RawEvent{Trace: "p", Seq: seq, Text: fmt.Sprint(rng.Int63())}
			_, held := model[seq]
			i, dup := q.search(seq)
			switch {
			case seq < next:
				continue // stale: rejected before the queue is asked
			case dup != held:
				t.Fatalf("seed %d step %d: search(%d) found %v, model %v", seed, step, seq, dup, held)
			case dup:
				if q.evs[i].Seq != seq {
					t.Fatalf("seed %d step %d: search(%d) points at %d", seed, step, seq, q.evs[i].Seq)
				}
				continue
			case limit > 0 && seq != next && q.len() >= limit:
				continue // refused by admission control
			case seq == next && rng.Intn(2) == 0:
				next++ // deliverable on arrival: never held
				check(step, "fast path")
				continue
			}
			q.insert(raw)
			model[seq] = raw
			check(step, fmt.Sprintf("insert %d", seq))
		}
		// Drain to empty: the backing array must be released or small.
		for {
			if _, ok := q.front(next); ok {
				q.pop()
				delete(model, next)
				next++
				continue
			}
			if len(model) == 0 {
				break
			}
			keys := make([]int, 0, len(model))
			for k := range model {
				keys = append(keys, k)
			}
			next = slices.Min(keys) // the gap's events were delivered on arrival
		}
		check(-1, "drained")
	}
}
