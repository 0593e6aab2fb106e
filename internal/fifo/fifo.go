// Package fifo is a queue in fixed-size chunks, for the logs and queues
// that must not regrow or copy what they hold.
package fifo

import "unsafe"

const ChunkBytes = 32 << 10 // the size class the chunked logs allocate in

// ChunkCap is how many Ts fill the 32 KiB size class beside the 8-byte
// header Go's allocator puts on a pointerful object.
func ChunkCap[T any]() int {
	var v T
	return (ChunkBytes - 8) / int(unsafe.Sizeof(v))
}

// Queue is a FIFO in fixed-size chunks: Push writes past the tail, Pop
// clears the front and releases each chunk its last element leaves, so
// a drained queue keeps one chunk at most. No element moves while
// queued: a span read outside the owner's lock stays valid until the
// owner pops it.
type Queue[T any] struct {
	chunks  [][]T // ChunkCap long each; the front is chunks[0][head]
	head, n int
}

func (f *Queue[T]) Len() int { return f.n }

// Chunks is the number of chunks the queue holds.
func (f *Queue[T]) Chunks() int { return len(f.chunks) }

func (f *Queue[T]) Push(v T) {
	k, i := ChunkCap[T](), f.head+f.n
	if i/k == len(f.chunks) {
		f.chunks = append(f.chunks, make([]T, k))
	}
	f.chunks[i/k][i%k] = v
	f.n++
}

// At returns the i-th element.
func (f *Queue[T]) At(i int) *T { return &f.Span(i)[0] }

// Span returns the elements from the i-th on, to the end of its chunk.
func (f *Queue[T]) Span(i int) []T {
	k, j := ChunkCap[T](), f.head+i
	end := min(k, j%k+f.n-i)
	return f.chunks[j/k][j%k : end : end]
}

// Pop clears the first m elements and drops them.
func (f *Queue[T]) Pop(m int) {
	for i := 0; i < m; {
		s := f.Span(i)
		clear(s[:min(len(s), m-i)])
		i += len(s)
	}
	f.Drop(m)
}

// Drop drops the first m elements uncleared, for a queue whose elements
// are pointed into from elsewhere: each chunk all of whose elements are
// dropped is released.
func (f *Queue[T]) Drop(m int) {
	f.head, f.n = f.head+m, f.n-m
	k := ChunkCap[T]()
	clear(f.chunks[:f.head/k])
	f.chunks, f.head = f.chunks[f.head/k:], f.head%k
}
