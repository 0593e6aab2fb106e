package poet

import "unsafe"

// chunkCap is how many Ts fill the 32 KiB size class beside the 8-byte
// header Go's allocator puts on a pointerful object.
func chunkCap[T any]() int {
	var v T
	return (32<<10 - 8) / int(unsafe.Sizeof(v))
}

// fifo is a queue in fixed-size chunks: push writes past the tail, pop
// clears the front and releases each chunk its last element leaves, so
// a drained queue keeps one chunk at most. No element moves while
// queued: a span read outside the owner's lock stays valid until the
// owner pops it.
type fifo[T any] struct {
	chunks  [][]T // chunkCap long each; the front is chunks[0][head]
	head, n int
}

func (f *fifo[T]) len() int { return f.n }

func (f *fifo[T]) push(v T) {
	k, i := chunkCap[T](), f.head+f.n
	if i/k == len(f.chunks) {
		f.chunks = append(f.chunks, make([]T, k))
	}
	f.chunks[i/k][i%k] = v
	f.n++
}

// at returns the i-th element.
func (f *fifo[T]) at(i int) *T { return &f.span(i)[0] }

// span returns the elements from the i-th on, to the end of its chunk.
func (f *fifo[T]) span(i int) []T {
	k, j := chunkCap[T](), f.head+i
	end := min(k, j%k+f.n-i)
	return f.chunks[j/k][j%k : end : end]
}

// pop drops the first m elements.
func (f *fifo[T]) pop(m int) {
	for ; m > 0; m-- {
		var zero T
		f.chunks[0][f.head], f.head, f.n = zero, f.head+1, f.n-1
		if f.head == chunkCap[T]() {
			f.chunks[0], f.chunks, f.head = nil, f.chunks[1:], 0
		}
	}
}
