package event

import (
	"testing"
	"unsafe"

	"ocep/internal/vclock"
)

// TestSlabClocksDoNotOverlap: a slab clock has cap == len, so the pinned
// append contract of Tick and Merge reallocates when it grows one and
// the clock carved next keeps its entries.
func TestSlabClocksDoNotOverlap(t *testing.T) {
	var s Slab
	a, b, c := s.Clock(3), s.Clock(3), s.Clock(2)
	copy(b, vclock.VC{7, 8, 9})
	copy(c, vclock.VC{1, 2})
	for _, v := range []vclock.VC{a, b, c} {
		if cap(v) != len(v) {
			t.Fatalf("slab clock has len %d, cap %d: growing it would write into its neighbour", len(v), cap(v))
		}
	}
	grownTick := a.Tick(3)
	grownMerge := b.Merge(vclock.VC{0, 0, 0, 5, 6})
	if !b[:3].Equal(vclock.VC{7, 8, 9}) || !c.Equal(vclock.VC{1, 2}) {
		t.Fatalf("growing a slab clock wrote into the next ones: %v %v", b, c)
	}
	if !grownTick.Equal(vclock.VC{0, 0, 0, 1}) || !grownMerge.Equal(vclock.VC{7, 8, 9, 5, 6}) {
		t.Fatalf("grown clocks are %v and %v", grownTick, grownMerge)
	}
}

// TestSlabNeverReuses: every event and every clock entry is handed out
// once, across chunk boundaries and across the widths that make the
// clock chunk grow, and a clock too wide to pack is still a clock.
func TestSlabNeverReuses(t *testing.T) {
	var s Slab
	events := make(map[*Event]bool)
	entries := make(map[*int32]bool)
	for i := 0; i < 40*eventChunkLen; i++ {
		e := s.New()
		if events[e] {
			t.Fatalf("New returned %p twice (call %d)", e, i)
		}
		if e.Kind != 0 {
			t.Fatalf("New returned a used event: %v", e)
		}
		e.Kind, events[e] = KindSend, true
		width := []int{1, 21, 128, 130, maxClockChunk/2 + 1}[i%5]
		v := s.Clock(width)
		if len(v) != width || cap(v) != width {
			t.Fatalf("Clock(%d) has len %d, cap %d", width, len(v), cap(v))
		}
		for j := range v {
			if v[j] != 0 {
				t.Fatalf("Clock(%d) entry %d is %d on arrival: storage was handed out before", width, j, v[j])
			}
			v[j] = 1
		}
		if entries[&v[0]] || entries[&v[width-1]] {
			t.Fatalf("Clock(%d) overlaps an earlier clock (call %d)", width, i)
		}
		entries[&v[0]], entries[&v[width-1]] = true, true
	}
}

// goSizeClasses are the allocator's size classes from 4 KiB up
// (runtime/sizeclasses.go).
var goSizeClasses = []uintptr{4096, 4864, 5376, 6144, 6528, 6784, 6912, 8192, 9472, 9728, 10240, 10880,
	12288, 13568, 14336, 16384, 18432, 19072, 20480, 21760, 24576, 27264, 28672, 32768}

// TestSlabChunksFillSizeClasses is the sizing rule: an event chunk holds
// pointers, so the allocator prepends an 8-byte header, and bytes plus
// header must land on a size class or the slack is paid per event
// (64 events a chunk measured +6 B/event). Clock chunks hold no pointers
// and carry no header: they are size classes exactly.
func TestSlabChunksFillSizeClasses(t *testing.T) {
	const mallocHeader = 8
	need := unsafe.Sizeof(Event{})*uintptr(eventChunkLen) + mallocHeader
	for _, class := range goSizeClasses {
		if class < need {
			continue
		}
		if slack := class - need; slack*100 > class {
			t.Fatalf("an event chunk is %d B with its header and rounds up to %d: %d B (over 1%%) wasted per chunk", need, class, slack)
		}
		break
	}
	for entries := uintptr(minClockChunk); entries <= maxClockChunk; entries *= 2 {
		isClass := false
		for _, class := range goSizeClasses {
			isClass = isClass || class == 4*entries
		}
		if !isClass {
			t.Fatalf("a clock chunk of %d B is not a size class", 4*entries)
		}
	}
}

// TestSlabClockChunkGrows: narrow clocks stay on 8 KiB chunks; wide ones
// move to chunks of up to 32 KiB so that one chunk serves 64 of them
// where it can.
func TestSlabClockChunkGrows(t *testing.T) {
	for _, tc := range []struct{ width, wantChunk int }{
		{1, minClockChunk}, {21, minClockChunk}, {32, minClockChunk},
		{33, 2 * minClockChunk}, {128, maxClockChunk}, {4000, maxClockChunk},
	} {
		var s Slab
		s.Clock(tc.width)
		if got := len(s.clocks) + tc.width; got != tc.wantChunk {
			t.Errorf("%d-wide clocks are carved from %d-entry chunks, want %d", tc.width, got, tc.wantChunk)
		}
	}
}
