package poet

import (
	"slices"
	"sort"
	"sync"
)

// heldQueue holds the raw events of one trace that arrived ahead of its
// delivery point, in Seq order, in chunks of heldKeep events that never
// move: at(0) is the front. A reporter sends its trace in order, so an
// arrival almost always lands past the tail and appends, and a backlog
// thousands deep grows a chunk at a time, copying nothing it holds;
// only a reordered arrival pays a binary search and a shift of the
// events above it. Delivery pops the head. A drained chunk goes back to
// heldChunks, a pool every queue shares, so an empty queue keeps no
// slot and a trace that holds now and then allocates nothing. It is not
// a fifo.Queue: that one inserts nowhere but the tail, and its 511-event
// chunk, kept by a drained queue, would pin 32 KiB a trace.
type heldQueue struct {
	chunks  []*[heldKeep]RawEvent
	head, n int
}

// heldKeep is a chunk's length: 15 events and the 8-byte header Go puts
// on a pointerful object fill the 1152-byte size class.
const heldKeep = 15

var heldChunks = sync.Pool{New: func() any { return new([heldKeep]RawEvent) }}

func (q *heldQueue) len() int { return q.n }

// at returns the i-th held event.
func (q *heldQueue) at(i int) *RawEvent {
	j := q.head + i
	return &q.chunks[j/heldKeep][j%heldKeep]
}

// search returns the position at which seq is held or would be
// inserted, and whether it is held.
func (q *heldQueue) search(seq int) (int, bool) {
	if q.n == 0 || q.at(q.n-1).Seq < seq {
		return q.n, false
	}
	i := sort.Search(q.n, func(i int) bool { return q.at(i).Seq >= seq })
	return i, q.at(i).Seq == seq
}

// insert holds raw, whose Seq the queue does not hold yet.
func (q *heldQueue) insert(raw RawEvent) {
	i, _ := q.search(raw.Seq)
	if q.head+q.n == len(q.chunks)*heldKeep {
		q.chunks = append(q.chunks, heldChunks.Get().(*[heldKeep]RawEvent))
	}
	q.n++
	for j := q.n - 1; j > i; j-- {
		*q.at(j) = *q.at(j - 1)
	}
	*q.at(i) = raw
}

// front returns the lowest held event if its Seq is seq.
func (q *heldQueue) front(seq int) (RawEvent, bool) {
	if q.n == 0 || q.at(0).Seq != seq {
		return RawEvent{}, false
	}
	return *q.at(0), true
}

// pop drops the lowest held event.
func (q *heldQueue) pop() {
	*q.at(0) = RawEvent{} // its strings
	if q.n--; q.head+1 < heldKeep && q.n > 0 {
		q.head++
		return
	}
	heldChunks.Put(q.chunks[0])
	q.head = 0
	// An emptied queue keeps a short chunk list, not a deep backlog's.
	if q.chunks = slices.Delete(q.chunks, 0, 1); q.n == 0 && cap(q.chunks) > heldKeep {
		q.chunks = nil
	}
}

// run counts the held events that continue seq without a gap: Seqs seq,
// seq+1, … held.
func (q *heldQueue) run(seq int) int {
	n := 0
	for n < q.n && q.at(n).Seq == seq+n {
		n++
	}
	return n
}
