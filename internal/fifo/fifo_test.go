package fifo

import (
	"math/rand"
	"slices"
	"testing"
)

// TestFifoMatchesSlice drives the chunked queue and a plain slice with
// the same seeded pushes and pops: they hold the same elements, and the
// queue holds no chunk beyond those its elements occupy (one, when it
// is empty).
func TestFifoMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var f Queue[int]
	var model []int
	k := ChunkCap[int]()
	next := 0
	for step := 0; step < 2000; step++ {
		if rng.Intn(3) > 0 {
			for m := rng.Intn(k / 2); m > 0; m-- {
				f.Push(next)
				model = append(model, next)
				next++
			}
		} else {
			m := rng.Intn(len(model) + 1)
			f.Pop(m)
			model = model[m:]
		}
		var got, spans []int
		for i := 0; i < f.Len(); i++ {
			got = append(got, *f.At(i))
		}
		for i := 0; i < f.Len(); i += len(f.Span(i)) {
			spans = append(spans, f.Span(i)...)
		}
		if !slices.Equal(got, model) || !slices.Equal(spans, model) {
			t.Fatalf("step %d: queue holds %d elements (%d by span), slice %d", step, len(got), len(spans), len(model))
		}
		if limit := max(1, (f.head+f.n+k-1)/k); len(f.chunks) > limit {
			t.Fatalf("step %d: %d chunks for %d elements from offset %d", step, len(f.chunks), f.n, f.head)
		}
	}
}

// TestSpanStaysValid holds the contract a reader outside the owner's
// lock relies on: a span is cut with cap == len, so nothing appended
// through it can reach the queue, and later Pushes leave what it shows
// unchanged, across chunk boundaries.
func TestSpanStaysValid(t *testing.T) {
	var f Queue[int]
	k := ChunkCap[int]()
	type cut struct {
		at   int
		span []int
	}
	var cuts []cut
	for i := 0; i < 3*k+k/2; i++ {
		f.Push(i)
		at := i - i%k // the chunk's first element: the span grows with it
		s := f.Span(at)
		if cap(s) != len(s) || len(s) != i%k+1 {
			t.Fatalf("Span(%d) after %d pushes: len %d cap %d, want len %d == cap", at, i+1, len(s), cap(s), i%k+1)
		}
		cuts = append(cuts, cut{at, s})
	}
	for _, c := range cuts {
		for j, v := range c.span {
			if v != c.at+j {
				t.Fatalf("span cut at %d reads %d at %d after later pushes, want %d", c.at, v, j, c.at+j)
			}
		}
	}
}
