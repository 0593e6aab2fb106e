package vclock

import "unsafe"

// Stamp is an event's vector timestamp as the events of a trace share
// it. A causal history grows only at a join — a receive or a sync
// acquire — so an internal or send event's clock is its trace's last
// join clock with one entry, its own, changed. A Stamp is a reference to
// that join clock, immutable once built, plus the event's trace and own
// count: 16 bytes whatever the trace count (docs/ARCHITECTURE.md,
// "Stamps shared along a trace"). A join clock stores only its window,
// its lowest nonzero entry to its highest: a trace that talks to one
// peer stores two entries. The zero Stamp reads zero everywhere.
type Stamp struct {
	// join points at the join clock's header, its entries following in
	// the same allocation (see carve); nil for no foreign entries.
	join     *window
	trace, n int32
}

// window is a join clock's two-word header: the clock stores entries lo
// to lo+n-1 and reads zero outside them. The n entries follow the
// header, entry t at byte 8+4·(t−lo) of it.
type window struct{ lo, n int32 }

// Allocator hands out zeroed clocks; *event.Slab is one. A nil
// Allocator means the heap.
type Allocator interface{ Clock(n int) VC }

// carve returns a zeroed join clock over traces lo to lo+w-1: a
// pointer to its header, and its entries.
func carve(lo, w int, a Allocator) (*window, VC) {
	if w == 0 {
		return nil, nil
	}
	var blk VC
	if a == nil {
		blk = make(VC, w+2)
	} else {
		blk = a.Clock(w + 2)
	}
	blk[0], blk[1] = int32(lo), int32(w)
	return (*window)(unsafe.Pointer(&blk[0])), blk[2:]
}

// base returns the join clock's first trace and its entries; entry
// s.trace is stale unless the clock was built for s.
func (s Stamp) base() (int, VC) {
	if s.join == nil {
		return 0, nil
	}
	return int(s.join.lo), unsafe.Slice((*int32)(unsafe.Add(unsafe.Pointer(s.join), 8)), s.join.n)
}

// entry returns the join clock's entry t: one bounds-checked load.
func (s Stamp) entry(t int) int32 {
	if s.join == nil {
		return 0
	}
	if i := uint(t - int(s.join.lo)); i < uint(s.join.n) {
		return *(*int32)(unsafe.Add(unsafe.Pointer(s.join), 8+4*i))
	}
	return 0
}

// span widens [lo, hi) to cover s's join clock and its own entry if
// nonzero.
func (s Stamp) span(lo, hi int) (int, int) {
	if s.join != nil {
		lo, hi = min(lo, int(s.join.lo)), max(hi, int(s.join.lo+s.join.n))
	}
	if s.n != 0 {
		lo, hi = min(lo, int(s.trace)), max(hi, int(s.trace)+1)
	}
	return lo, hi
}

// NewStamp returns the stamp of an event on trace t whose clock is v,
// copied into a join clock carved from a over v's nonzero window.
func NewStamp(v VC, t int, a Allocator) Stamp {
	lo, hi := 0, len(v)
	for hi > 0 && v[hi-1] == 0 {
		hi--
	}
	for lo < hi && v[lo] == 0 {
		lo++
	}
	j, b := carve(lo, hi-lo, a)
	copy(b, v[lo:hi])
	return Stamp{join: j, trace: int32(t), n: int32(v.Get(t))}
}

// Carve returns s with its entries copied into a join clock carved from
// a, so that it shares no storage with s. A stamp with no foreign
// entries has none to copy and is returned as it is.
func (s Stamp) Carve(a Allocator) Stamp {
	if s.join == nil {
		return s
	}
	lo, hi := s.span(int(s.join.lo), int(s.join.lo))
	j, v := carve(lo, hi-lo, a)
	s.fill(v, lo)
	return Stamp{join: j, trace: s.trace, n: s.n}
}

// Stamp returns the stamp of an event on trace t whose clock is v.
func (v VC) Stamp(t int) Stamp { return NewStamp(v, t, nil) }

// Tick returns the stamp of trace t's next event when no message joins
// it: s's join clock, own count one more. s must be trace t's latest
// stamp, or the zero Stamp before its first event.
func (s Stamp) Tick(t int) Stamp { return s.At(t, int(s.n)+1) }

// At is Tick to own count n: the stamp of trace t's event number n when
// no message joined the trace since s. From the zero Stamp it is a stamp
// with no foreign entries.
func (s Stamp) At(t, n int) Stamp { return Stamp{join: s.join, trace: int32(t), n: int32(n)} }

// Join returns the stamp of trace t's next event when it receives the
// message stamped recv: the entrywise maximum of s and recv, own count
// one more, in a join clock carved from a over the window both span. s
// is as for Tick.
func (s Stamp) Join(recv Stamp, t int, a Allocator) Stamp {
	lo, hi := recv.span(s.span(t, t+1))
	j, v := carve(lo, hi-lo, a)
	s.fill(v, lo)
	if rlo, rb := recv.base(); rb != nil {
		v[rlo-lo:].Merge(rb)
	}
	if recv.n != 0 {
		v[int(recv.trace)-lo] = max(v[int(recv.trace)-lo], recv.n)
	}
	v[t-lo] = s.n + 1
	return Stamp{join: j, trace: int32(t), n: s.n + 1}
}

// Rises calls f, in increasing trace order, for each entry but s's own
// in which s exceeds prev, and reports whether s is below prev in none of
// them; it stops at the first entry where it is.
func (s Stamp) Rises(prev Stamp, f func(t int, n int32)) bool {
	lo, hi := s.span(prev.span(int(prev.trace), int(prev.trace)+1))
	for t := lo; t < hi; t++ {
		if t == int(s.trace) {
			continue
		}
		if x, y := s.entry(t), int32(prev.Get(t)); x < y {
			return false
		} else if x > y {
			f(t, x)
		}
	}
	return true
}

// Trace returns the trace of the stamped event.
func (s Stamp) Trace() int { return int(s.trace) }

// Shares reports whether s and o are stamps of one trace over one join
// clock: they differ in that trace's entry alone.
func (s Stamp) Shares(o Stamp) bool { return s.join == o.join && s.trace == o.trace }

// Get returns entry t, zero for entries the stamp does not reach.
func (s Stamp) Get(t int) int {
	if t == int(s.trace) {
		return int(s.n)
	}
	return int(s.entry(t))
}

// Width is the length of the dense clock the stamp stands for.
func (s Stamp) Width() int {
	_, w := s.span(0, 0)
	return w
}

// Weight returns the number of entries the stamp stores for its event:
// its join clock's window if the clock was built for it, else one.
func (s Stamp) Weight() int {
	if s.join != nil && s.entry(int(s.trace)) == s.n {
		return int(s.join.n)
	}
	return 1
}

// Range calls f for every nonzero entry in increasing trace order,
// stopping early if f returns false.
func (s Stamp) Range(f func(t int, n int32) bool) {
	lo, hi := s.span(int(s.trace), int(s.trace))
	for t := lo; t < hi; t++ {
		if n := int32(s.Get(t)); n != 0 && !f(t, n) {
			return
		}
	}
}

// Dense returns the stamp as an independent dense clock, Width long.
func (s Stamp) Dense() VC { return s.AppendDense(nil) }

// AppendDense appends the stamp's dense clock, Width long, to v.
func (s Stamp) AppendDense(v VC) VC {
	n := len(v)
	v = append(v, make(VC, s.Width())...)
	s.fill(v[n:], 0)
	return v
}

// fill writes the stamp's entries into v, whose first entry is trace lo,
// which spans the join clock and is zero beyond it.
func (s Stamp) fill(v VC, lo int) {
	if blo, b := s.base(); b != nil {
		copy(v[blo-lo:], b)
	}
	if i := int(s.trace) - lo; i >= 0 && i < len(v) {
		v[i] = s.n
	}
}

// Equal reports whether two stamps hold the same entries.
func (s Stamp) Equal(o Stamp) bool { return s.Dense().Equal(o.Dense()) }

// String renders the stamp as its dense clock does: "[1 0 3]".
func (s Stamp) String() string { return s.Dense().String() }
