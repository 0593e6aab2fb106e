package vclock

import "unsafe"

// Stamp is an event's vector timestamp as the events of a trace share
// it. A causal history grows only at a join — a receive or a sync
// acquire — so an internal or send event's clock is its trace's last
// join clock with one entry, its own, changed. A Stamp is a reference to
// that join clock, immutable once built, plus the event's trace and own
// count: 16 bytes whatever the trace count (docs/ARCHITECTURE.md,
// "Stamps shared along a trace"). The zero Stamp reads zero everywhere.
type Stamp struct {
	// join points at the join clock's width, its entries following in
	// the same allocation (see carve); nil for no foreign entries.
	join     *int32
	trace, n int32
}

// Allocator hands out zeroed clocks; *event.Slab is one. A nil
// Allocator means the heap.
type Allocator interface{ Clock(n int) VC }

// carve returns a zeroed join clock of width w: a pointer to its width
// word, and its entries.
func carve(w int, a Allocator) (*int32, VC) {
	if w == 0 {
		return nil, nil
	}
	var blk VC
	if a == nil {
		blk = make(VC, w+1)
	} else {
		blk = a.Clock(w + 1)
	}
	blk[0] = int32(w)
	return &blk[0], blk[1:]
}

// base returns the join clock's entries; entry s.trace is stale unless
// the clock was built for s.
func (s Stamp) base() VC {
	if s.join == nil {
		return nil
	}
	return unsafe.Slice((*int32)(unsafe.Add(unsafe.Pointer(s.join), 4)), *s.join)
}

// NewStamp returns the stamp of an event on trace t whose clock is v,
// copied into a join clock carved from a.
func NewStamp(v VC, t int, a Allocator) Stamp {
	j, b := carve(len(v), a)
	copy(b, v)
	return Stamp{join: j, trace: int32(t), n: int32(v.Get(t))}
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
// one more, in a join clock carved from a. s is as for Tick.
func (s Stamp) Join(recv Stamp, t int, a Allocator) Stamp {
	j, v := carve(max(s.Width(), recv.Width(), t+1), a)
	v = s.fill(v).Merge(recv.base())
	if recv.n != 0 {
		v[recv.trace] = max(v[recv.trace], recv.n)
	}
	v[t] = s.n + 1
	return Stamp{join: j, trace: int32(t), n: v[t]}
}

// Rises calls f, in increasing trace order, for each entry but s's own
// in which s exceeds prev, and reports whether s is below prev in none of
// them; it stops at the first entry where it is.
func (s Stamp) Rises(prev Stamp, f func(t int, n int32)) bool {
	sb, pb := s.base(), prev.base()
	for t := 0; t < max(len(sb), len(pb), int(prev.trace)+1); t++ {
		var x, y int32
		switch {
		case t == int(s.trace):
			continue
		case t < len(sb):
			x = sb[t]
		}
		switch {
		case t == int(prev.trace):
			y = prev.n
		case t < len(pb):
			y = pb[t]
		}
		if x < y {
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
	return s.base().Get(t)
}

// Width is the length of the dense clock the stamp stands for.
func (s Stamp) Width() int {
	if w := len(s.base()); s.n == 0 || w > int(s.trace) {
		return w
	}
	return int(s.trace) + 1
}

// Weight returns the number of entries the stamp stores for its event:
// its join clock's width if the clock was built for it, else one.
func (s Stamp) Weight() int {
	if b := s.base(); len(b) > 0 && b.Get(int(s.trace)) == int(s.n) {
		return len(b)
	}
	return 1
}

// Range calls f for every nonzero entry in increasing trace order,
// stopping early if f returns false.
func (s Stamp) Range(f func(t int, n int32) bool) {
	b, own := s.base(), int(s.trace)
	for t, n := range b {
		if t == own {
			n = s.n
		}
		if n != 0 && !f(t, n) {
			return
		}
	}
	if own >= len(b) && s.n != 0 {
		f(own, s.n)
	}
}

// Dense returns the stamp as an independent dense clock, Width long.
func (s Stamp) Dense() VC { return s.AppendDense(nil) }

// AppendDense appends the stamp's dense clock, Width long, to v.
func (s Stamp) AppendDense(v VC) VC {
	n := len(v)
	v = append(v, make(VC, s.Width())...)
	s.fill(v[n:])
	return v
}

// fill writes the stamp's entries into v, at least Width long and zero
// beyond the join clock, and returns it.
func (s Stamp) fill(v VC) VC {
	copy(v, s.base())
	if int(s.trace) < len(v) {
		v[s.trace] = s.n
	}
	return v
}

// Equal reports whether two stamps hold the same entries.
func (s Stamp) Equal(o Stamp) bool { return s.Dense().Equal(o.Dense()) }

// String renders the stamp as its dense clock does: "[1 0 3]".
func (s Stamp) String() string { return s.Dense().String() }
