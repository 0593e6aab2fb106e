package poet

import (
	"slices"
	"sort"
)

// msgTable maps a MsgID to its word (see sendRemote; zero = absent).
// Producers number their messages from counters, so MsgIDs arrive in
// dense runs: those live as 8-byte words in pages of msgPageLen, found
// by a binary search of a sorted directory of runs of consecutive
// pages (one run a counter). A dense lookup hashes nothing, and growth
// appends a page where a map would rehash. Only an ID that earns its
// page makes one (see earns); every other ID lives in the overflow map,
// and a new page takes in the overflow's IDs that fall on it.
type msgTable struct {
	runs     []msgRun
	overflow map[uint64]uint64
}

const msgPageLen = 64

// msgRun holds pages first, first+1, …; page p holds MsgIDs
// p*msgPageLen up to the next page's first.
type msgRun struct {
	first uint64
	pages []*[msgPageLen]uint64
}

func (r *msgRun) holds(p uint64) bool { return p-r.first < uint64(len(r.pages)) }

func (r *msgRun) word(id uint64) *uint64 {
	return &r.pages[id/msgPageLen-r.first][id%msgPageLen]
}

// run returns the index of the run holding page p, or -1 and the index
// of the last run below p (-1 when none is).
func (t *msgTable) run(p uint64) (int, int) {
	i := sort.Search(len(t.runs), func(i int) bool { return t.runs[i].first > p }) - 1
	if i >= 0 && t.runs[i].holds(p) {
		return i, i
	}
	return -1, i
}

func (t *msgTable) get(id uint64) uint64 {
	if i, _ := t.run(id / msgPageLen); i >= 0 {
		return *t.runs[i].word(id)
	}
	return t.overflow[id]
}

// set stores w, nonzero, as id's word.
func (t *msgTable) set(id, w uint64) {
	i, below := t.run(id / msgPageLen)
	if i < 0 {
		// An ID once held stays where it is, so each's f may set it.
		if _, ok := t.overflow[id]; ok || !t.earns(id, below) {
			if t.overflow == nil {
				t.overflow = make(map[uint64]uint64)
			}
			t.overflow[id] = w
			return
		}
		i = t.addPage(id/msgPageLen, below)
	}
	*t.runs[i].word(id) = w
}

// follows reports whether page p would extend run below.
func (t *msgTable) follows(p uint64, below int) bool {
	return below >= 0 && p == t.runs[below].first+uint64(len(t.runs[below].pages))
}

// earns reports whether id, on no page yet, makes its page: the page
// below it ends run below and holds half its slots, or the
// msgPageLen/4-1 IDs below id are held on its page (in the overflow). A
// page is made, then, holding a quarter of its slots or after one
// holding half: at most 32 B for each MsgID that earned it, about what
// a map entry costs, whatever the key pattern.
func (t *msgTable) earns(id uint64, below int) bool {
	if p := id / msgPageLen; t.follows(p, below) {
		held := 0
		for _, w := range t.runs[below].pages[p-1-t.runs[below].first] {
			if w != 0 {
				held++
			}
		}
		if held >= msgPageLen/2 {
			return true
		}
	}
	if id%msgPageLen < msgPageLen/4-1 {
		return false
	}
	for d := uint64(1); d < msgPageLen/4; d++ {
		if _, ok := t.overflow[id-d]; !ok {
			return false
		}
	}
	return true
}

// addPage makes page p, taking in the overflow's IDs on it, onto the
// end of run below if it is the next page there, else as a new run, and
// returns the run's index.
func (t *msgTable) addPage(p uint64, below int) int {
	pg := new([msgPageLen]uint64)
	for s := 0; s < msgPageLen && len(t.overflow) > 0; s++ {
		if w, ok := t.overflow[p*msgPageLen+uint64(s)]; ok {
			pg[s] = w
			delete(t.overflow, p*msgPageLen+uint64(s))
		}
	}
	if t.follows(p, below) {
		t.runs[below].pages = append(t.runs[below].pages, pg)
		return below
	}
	t.runs = slices.Insert(t.runs, below+1, msgRun{first: p, pages: []*[msgPageLen]uint64{pg}})
	return below + 1
}

// each calls f for every MsgID held and its word; f may set the ID it
// is handed.
func (t *msgTable) each(f func(id, w uint64)) {
	for _, r := range t.runs {
		for j, pg := range r.pages {
			for s, w := range pg {
				if w != 0 {
					f((r.first+uint64(j))*msgPageLen+uint64(s), w)
				}
			}
		}
	}
	for id, w := range t.overflow {
		f(id, w)
	}
}
