package poet

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
	"unsafe"
)

// slots counts the event slots the queue keeps.
func (q *heldQueue) slots() int { return len(q.chunks) * heldKeep }

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
				if got := *q.at(i); got != model[k] {
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
			if q.len() == 0 && (q.head != 0 || q.slots() > 0) {
				fail("empty queue keeps head %d, %d slots", q.head, q.slots())
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
				if q.at(i).Seq != seq {
					t.Fatalf("seed %d step %d: search(%d) points at %d", seed, step, seq, q.at(i).Seq)
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

// TestHeldQueueBacklogAllocs holds a 3 000-deep in-order backlog, as a
// trace whose receives wait on a peer shard builds one, and drains it.
// Chunks that never move allocate the payload once: the bytes allocated
// stay within 1.25 × the events held (1.09 × on Linux amd64, Go 1.24),
// where one array regrown through every doubling allocated 3.23 ×.
func TestHeldQueueBacklogAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what allocates")
	}
	const depth = 3000
	var q heldQueue
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for seq := 1; seq <= depth; seq++ {
		q.insert(RawEvent{Trace: "p", Seq: seq, Type: "work"})
	}
	for seq := 1; seq <= depth; seq++ {
		if _, ok := q.front(seq); !ok {
			t.Fatalf("event %d is not at the front", seq)
		}
		q.pop()
	}
	runtime.ReadMemStats(&after)
	payload := float64(depth * unsafe.Sizeof(RawEvent{}))
	ratio := float64(after.TotalAlloc-before.TotalAlloc) / payload
	t.Logf("%.0f B allocated for a %.0f B backlog: %.2f ×", float64(after.TotalAlloc-before.TotalAlloc), payload, ratio)
	if ratio > 1.25 {
		t.Errorf("a %d-deep backlog allocated %.2f × its payload, budget 1.25", depth, ratio)
	}
	if q.len() != 0 || q.slots() > 0 {
		t.Errorf("the drained queue holds %d events in %d slots", q.len(), q.slots())
	}
}
