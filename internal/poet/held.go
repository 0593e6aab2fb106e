package poet

import "slices"

// heldQueue holds the raw events of one trace that arrived ahead of its
// delivery point, in Seq order: evs[head:] is the queue. A reporter sends
// its trace in order, so an arrival almost always lands past the tail and
// appends; only a reordered one pays a binary search and a shift.
// Delivery pops the head. A full array whose front half is popped is
// slid down instead of grown. When the queue empties it keeps its
// backing array only if that holds at most heldKeep events: a backlog
// thousands deep is not pinned for the life of the trace.
type heldQueue struct {
	evs  []RawEvent
	head int
}

const heldKeep = 16

func (q *heldQueue) len() int { return len(q.evs) - q.head }

// search returns the index at which seq is held or would be inserted,
// and whether it is held.
func (q *heldQueue) search(seq int) (int, bool) {
	if n := len(q.evs); n == q.head || q.evs[n-1].Seq < seq {
		return n, false
	}
	i, ok := slices.BinarySearchFunc(q.evs[q.head:], seq, func(r RawEvent, seq int) int { return r.Seq - seq })
	return q.head + i, ok
}

// insert holds raw, whose Seq the queue does not hold yet.
func (q *heldQueue) insert(raw RawEvent) {
	i, _ := q.search(raw.Seq)
	if len(q.evs) == cap(q.evs) && 2*q.head >= len(q.evs) {
		n := copy(q.evs, q.evs[q.head:])
		clear(q.evs[n:])
		q.evs, i, q.head = q.evs[:n], i-q.head, 0
	}
	q.evs = slices.Insert(q.evs, i, raw)
}

// front returns the lowest held event if its Seq is seq.
func (q *heldQueue) front(seq int) (RawEvent, bool) {
	if q.head == len(q.evs) || q.evs[q.head].Seq != seq {
		return RawEvent{}, false
	}
	return q.evs[q.head], true
}

// pop drops the lowest held event.
func (q *heldQueue) pop() {
	q.evs[q.head] = RawEvent{} // its strings
	if q.head++; q.head == len(q.evs) {
		q.evs, q.head = q.evs[:0], 0
		if cap(q.evs) > heldKeep {
			q.evs = nil
		}
	}
}

// run counts the held events that continue seq without a gap: Seqs seq,
// seq+1, … held.
func (q *heldQueue) run(seq int) int {
	n := 0
	for q.head+n < len(q.evs) && q.evs[q.head+n].Seq == seq+n {
		n++
	}
	return n
}
