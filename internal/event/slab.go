package event

import (
	"unsafe"

	"ocep/internal/vclock"
)

// Slab hands out events and timestamp storage carved from chunks, so
// that whoever materialises a stream of stamped events pays one
// allocation per chunk, not one per event or join clock; it is the
// vclock.Allocator join clocks are carved from. Nothing is ever reused:
// a chunk is garbage once every event or clock carved from it is, so a
// stream consumed in carving order frees whole chunks. The zero value is
// ready; a Slab is not safe for concurrent use.
type Slab struct {
	events []Event // the uncarved rest of the current event chunk
	clocks []int32 // the uncarved rest of the current clock chunk
	// clockChunk is the clock chunk length in entries: 8 KiB to start,
	// doubled up to 32 KiB while a chunk would hold fewer than
	// clocksPerChunk of the clocks asked for.
	clockChunk int
}

const (
	// eventChunkLen events plus the 8-byte header Go's allocator puts on
	// a pointerful object fill the 8 KiB size class: 113*72+8 = 8144.
	eventChunkLen = (8<<10 - 8) / int(unsafe.Sizeof(Event{}))
	// Clock chunks hold no pointers, carry no header, and are exact
	// power-of-two size classes.
	minClockChunk  = 8 << 10 / 4
	maxClockChunk  = 32 << 10 / 4
	clocksPerChunk = 64
)

// New returns a zeroed event nobody else holds.
func (s *Slab) New() *Event {
	if len(s.events) == 0 {
		s.events = make([]Event, eventChunkLen)
	}
	e := &s.events[0]
	s.events = s.events[1:]
	return e
}

// Clock returns a zeroed n-entry clock with cap == len: Tick and Merge
// growing it reallocate and never write into the next clock carved.
func (s *Slab) Clock(n int) vclock.VC {
	if n > len(s.clocks) {
		s.clockChunk = max(s.clockChunk, minClockChunk)
		for s.clockChunk < maxClockChunk && s.clockChunk < clocksPerChunk*n {
			s.clockChunk *= 2
		}
		if 2*n > s.clockChunk {
			return make(vclock.VC, n) // too wide to pack: its own object
		}
		s.clocks = make([]int32, s.clockChunk)
	}
	c := s.clocks[:n:n]
	s.clocks = s.clocks[n:]
	return c
}
