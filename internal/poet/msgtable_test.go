package poet

import (
	"runtime"
	"testing"
)

// TestMsgTableBytesPerID weighs the MsgID table's live heap per MsgID,
// a word stored for each of n IDs numbered as producers number them.
// Counter-numbered IDs, one counter or 32 interleaved, fill pages: at
// most 9 B each. Stride-64 and random IDs fill none and live in the
// overflow map; bursts of 16 consecutive IDs at random places earn a
// page each, the fewest that earn one; a stride-64 tail past a counter
// must not earn a page an ID by following its run: each at most 1.1 ×
// what the map the table replaced holds for the same IDs, weighed here
// too.
func TestMsgTableBytesPerID(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes heap sizes")
	}
	const n = 1 << 17
	patterns := map[string]func(uint64) uint64{
		"bursts of 16": func(k uint64) uint64 { return splitmix(k/16)<<8 + k%16 + 1 },
		"stride 64 past a counter": func(k uint64) uint64 {
			if k < n/8 {
				return k + 1
			}
			return n/8 + (k-n/8+1)*64
		},
	}
	for _, p := range msgIDPatterns {
		patterns[p.name] = p.id
	}
	for _, tc := range []struct {
		name   string
		budget float64 // B per MsgID; 0: 1.1 × the map's
	}{
		{"one counter", 9},
		{"32 interleaved counters", 9},
		{"stride 64", 0},
		{"random", 0},
		{"bursts of 16", 0},
		{"stride 64 past a counter", 0},
	} {
		id := patterns[tc.name]
		before := liveHeap()
		var table msgTable
		for k := uint64(0); k < n; k++ {
			table.set(id(k), k+1)
		}
		tableBytes := float64(liveHeap()-before) / n
		for k := uint64(0); k < n; k++ {
			if w := table.get(id(k)); w != k+1 {
				t.Fatalf("%s: MsgID %d holds %d, want %d", tc.name, id(k), w, k+1)
			}
		}
		runtime.KeepAlive(&table)
		table = msgTable{}

		before = liveHeap()
		m := make(map[uint64]uint64)
		for k := uint64(0); k < n; k++ {
			m[id(k)] = k + 1
		}
		mapBytes := float64(liveHeap()-before) / n
		runtime.KeepAlive(m)

		budget := tc.budget
		if budget == 0 {
			budget = 1.1 * mapBytes
		}
		t.Logf("%s: %.2f B per MsgID in the table, %.2f B in a map", tc.name, tableBytes, mapBytes)
		if tableBytes > budget {
			t.Errorf("%s: %.2f B per MsgID, budget %.2f", tc.name, tableBytes, budget)
		}
	}
}
