package poet

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"ocep/internal/event"
	"ocep/internal/vclock"
)

// mapModel drives a collector through the two MsgID maps it kept before
// the MsgID table — sends (MsgID → delivered send, its matched entries
// deleted under retention) and sendersSeen (every local send's MsgID,
// kept for good) — beside a third for the peer shards' sends: Report,
// SupplyRemoteSend, SetRetention and the trim as they stood then, on the
// collector's other state.
type mapModel struct {
	c           *Collector
	sends       map[uint64]event.ID
	sendersSeen map[uint64]bool
	remoteSends map[uint64]shardExport
}

func newMapModel(c *Collector) *mapModel {
	return &mapModel{c: c, sends: map[uint64]event.ID{}, sendersSeen: map[uint64]bool{}, remoteSends: map[uint64]shardExport{}}
}

func (m *mapModel) Report(raw RawEvent) error {
	c := m.c
	c.mu.Lock()
	defer c.mu.Unlock()
	err := m.reportLocked(raw)
	if err == nil {
		c.recordLocked(&raw)
		m.trimLocked()
	}
	return err
}

func (m *mapModel) reportLocked(raw RawEvent) error {
	c := m.c
	if raw.Seq < 1 {
		return fmt.Errorf("poet: event on %q has sequence %d: %w", raw.Trace, raw.Seq, ErrStaleEvent)
	}
	if isRecvLike(raw.Kind) && raw.MsgID == 0 {
		return fmt.Errorf("poet: receive on %q/%d has no message id", raw.Trace, raw.Seq)
	}
	t, _ := c.ensureTrace(raw.Trace) // the scripts name a few traces, far below the limit
	if raw.Seq < c.nextSeq[t] {
		return fmt.Errorf("poet: event %q/%d already delivered: %w", raw.Trace, raw.Seq, ErrStaleEvent)
	}
	if _, dup := c.pending[t].search(raw.Seq); dup {
		return fmt.Errorf("poet: event %q/%d already buffered: %w", raw.Trace, raw.Seq, ErrStaleEvent)
	}
	if isSendLike(raw.Kind) && raw.MsgID != 0 {
		if m.sendersSeen[raw.MsgID] {
			return fmt.Errorf("poet: duplicate message id %d from %q/%d", raw.MsgID, raw.Trace, raw.Seq)
		}
		m.sendersSeen[raw.MsgID] = true
		delete(c.heldRemote, raw.MsgID)
	}
	head := &raw
	if raw.Seq != c.nextSeq[t] || isRecvLike(raw.Kind) && !m.hasSend(raw.MsgID) {
		c.pending[t].insert(raw)
		head = nil
	}
	m.drain(t, head)
	return nil
}

func (m *mapModel) hasSend(msgID uint64) bool {
	_, local := m.sends[msgID]
	_, remote := m.remoteSends[msgID]
	return local || remote
}

func (m *mapModel) drain(t event.TraceID, head *RawEvent) {
	c := m.c
	work := []event.TraceID{t}
	for len(work) > 0 {
		tr := work[len(work)-1]
		work = work[:len(work)-1]
		for {
			var raw RawEvent
			if head != nil {
				raw, head = *head, nil
			} else {
				var ok bool
				if raw, ok = c.pending[tr].front(c.nextSeq[tr]); !ok {
					break
				}
				if isRecvLike(raw.Kind) && !m.hasSend(raw.MsgID) {
					if ws := c.recvWait[raw.MsgID]; len(ws) == 0 || ws[len(ws)-1] != tr {
						c.recvWait[raw.MsgID] = append(ws, tr)
					}
					if _, held := c.heldRemote[raw.MsgID]; c.sharded && !held && !m.sendersSeen[raw.MsgID] {
						c.heldRemote[raw.MsgID] = time.Now()
					}
					break
				}
				c.pending[tr].pop()
			}
			m.deliver(tr, raw)
			if isSendLike(raw.Kind) && raw.MsgID != 0 {
				if waiters := c.recvWait[raw.MsgID]; len(waiters) > 0 {
					work = append(work, waiters...)
					delete(c.recvWait, raw.MsgID)
				}
			}
		}
	}
}

func (m *mapModel) deliver(t event.TraceID, raw RawEvent) {
	c := m.c
	stamp := c.stamps[t]
	var partner event.ID
	if isRecvLike(raw.Kind) {
		var sent vclock.Stamp
		if sendID, ok := m.sends[raw.MsgID]; ok {
			sent, partner = c.store.Get(sendID).VC, sendID
			if c.retain > 0 {
				delete(m.sends, raw.MsgID)
			}
		} else {
			rs := m.remoteSends[raw.MsgID]
			sent, partner = rs.VC, rs.ID
		}
		stamp = stamp.Join(sent, int(t), &c.slab)
	} else {
		stamp = stamp.Tick(int(t))
	}
	c.stamps[t] = stamp
	c.log.Push(event.Event{ID: event.ID{Trace: t, Index: c.nextSeq[t]}, Kind: raw.Kind, Type: raw.Type, Text: raw.Text, VC: stamp, Partner: event.RefTo(partner)})
	e := c.log.At(c.log.Len() - 1)
	if !partner.IsZero() {
		if sendEv := c.store.Get(partner); sendEv != nil {
			sendEv.Partner = event.RefTo(e.ID)
		}
	}
	if err := c.store.Append(e); err != nil {
		panic(err)
	}
	c.nextSeq[t]++
	if isSendLike(raw.Kind) && raw.MsgID != 0 {
		m.sends[raw.MsgID] = e.ID
	}
	c.delivered++
}

func (m *mapModel) SupplyRemoteSend(msgID uint64, id event.ID, vc vclock.Stamp) error {
	c := m.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := m.remoteSends[msgID]; ok || m.sendersSeen[msgID] {
		return nil
	}
	m.remoteSends[msgID] = shardExport{MsgID: msgID, ID: id, VC: vclock.NewStamp(vc.Dense(), vc.Trace(), nil)}
	delete(c.heldRemote, msgID)
	if waiters := c.recvWait[msgID]; len(waiters) > 0 {
		delete(c.recvWait, msgID)
		for _, t := range waiters {
			m.drain(t, nil)
		}
	}
	return nil
}

func (m *mapModel) SetRetention(keepEvents int) {
	c := m.c
	c.mu.Lock()
	defer c.mu.Unlock()
	c.retain = keepEvents
	for msgID, id := range m.sends {
		if e := c.store.Get(id); e == nil || !e.Partner.IsZero() {
			delete(m.sends, msgID)
		}
	}
	m.trimLocked()
}

// trimLocked is maybeTrimLocked pinning the store at what sends holds.
func (m *mapModel) trimLocked() {
	c := m.c
	if c.retain <= 0 || c.log.Len() <= c.retain+c.retain/4 {
		return
	}
	drop := c.log.Len() - c.retain
	keepFrom := make(map[event.TraceID]int)
	for i := 0; i < drop; i++ {
		if id := c.log.At(i).ID; id.Index+1 > keepFrom[id.Trace] {
			keepFrom[id.Trace] = id.Index + 1
		}
	}
	c.log.Drop(drop)
	c.trimmedFrom += drop
	c.evictedEvents += drop
	for _, id := range m.sends {
		if limit, ok := keepFrom[id.Trace]; ok && id.Index < limit {
			keepFrom[id.Trace] = id.Index
		}
	}
	for t, from := range keepFrom {
		c.compactedEvents += c.store.CompactTrace(t, from)
	}
}

// msgIDPattern numbers messages the way one kind of producer does: key
// k, the k-th MsgID its counter handed out, maps to id(k). pool draws
// keys from a fixed pool of 24 instead of a counter. A script runs
// steps steps: enough for each counter to fill part of a page.
type msgIDPattern struct {
	name  string
	pool  bool
	steps int
	id    func(k uint64) uint64
}

var msgIDPatterns = []msgIDPattern{
	{"a pool of 24", true, 400, func(k uint64) uint64 { return k + 1 }},
	{"one counter", false, 400, func(k uint64) uint64 { return k + 1 }},
	{"32 interleaved counters", false, 3000, func(k uint64) uint64 { return k%32<<40 | (k/32 + 1) }},
	{"stride 64", false, 400, func(k uint64) uint64 { return (k + 1) * 64 }},
	{"random", false, 400, func(k uint64) uint64 { return max(1, splitmix(k)) }},
	{"across a page boundary", false, 400, func(k uint64) uint64 { return 1<<20 - 100 + k }},
	{"near MaxUint64", false, 400, func(k uint64) uint64 { return math.MaxUint64 - 1000 + k }},
}

// splitmix is SplitMix64's finaliser: k's scrambled 64-bit image.
func splitmix(k uint64) uint64 {
	k += 0x9e3779b97f4a7c15
	k = (k ^ k>>30) * 0xbf58476d1ce4e5b9
	k = (k ^ k>>27) * 0x94d049bb133111eb
	return k ^ k>>31
}

// sendTableScript runs one seeded script through the collector and the
// map model, failing at the first divergence: local sends numbered by
// pat (a counter with one send in eight reusing a recent MsgID, or a
// small pool, so duplicates are common), MsgID-0 sends, receives ahead
// of and behind their sends and twice on one MsgID, stale retransmits,
// refused receives without a MsgID, and either peer-shard sends
// supplied before and after the local ones (sharded) or a retention
// bound set mid-script, whose trims run on every Report.
//
// It returns the pages the table made.
func sendTableScript(t *testing.T, pat msgIDPattern, seed int64, sharded bool) (pages int) {
	rng := rand.New(rand.NewSource(seed))
	var sent uint64 // keys the counter has handed out
	var pick int    // this step's pool key, drawn every step
	key := func(fresh bool) uint64 {
		switch {
		case pat.pool:
			return pat.id(uint64(pick))
		case fresh && rng.Intn(8) > 0:
			sent++
			return pat.id(sent - 1)
		}
		return pat.id(uint64(max(0, int(sent)-24+rng.Intn(28))))
	}
	got := NewCollector()
	want := newMapModel(NewCollector())
	if sharded {
		for _, c := range []*Collector{got, want.c} {
			if err := c.EnableSharding(0, 2); err != nil {
				t.Fatal(err)
			}
		}
	}
	traces := []string{"a", "b", "c", "d"}
	seq := map[string]int{}
	remotes := 0
	same := func(step int, what string, g, w error) {
		t.Helper()
		if fmt.Sprint(g) != fmt.Sprint(w) {
			t.Fatalf("%s, seed %d step %d, %s: the table says %v, the maps %v", pat.name, seed, step, what, g, w)
		}
	}
	for step := 0; step < pat.steps; step++ {
		tr := traces[rng.Intn(len(traces))]
		pick = rng.Intn(24)
		raw := RawEvent{Trace: tr, Kind: event.KindInternal, Type: "step"}
		switch op := rng.Intn(20); {
		case op < 6:
			raw.Kind, raw.MsgID = event.KindSend, key(true)
		case op < 7:
			raw.Kind = event.KindSend // MsgID 0: never received
		case op < 12:
			raw.Kind, raw.MsgID = event.KindReceive, key(false)
		case op < 13:
			raw.Kind = event.KindReceive // refused: no MsgID
		case op < 14 && seq[tr] > 0:
			raw.Seq = 1 + rng.Intn(seq[tr]) // a retransmit: stale
		case op < 16 && sharded:
			msg := key(false)
			remotes++
			id, vc := event.ID{Trace: 1, Index: remotes}, vclock.VC{0, int32(remotes)}.Stamp(1)
			same(step, fmt.Sprintf("supplying remote send %d", msg), got.SupplyRemoteSend(msg, id, vc), want.SupplyRemoteSend(msg, id, vc))
			continue
		case op < 15 && !sharded && rng.Intn(8) == 0:
			keep := 4 + rng.Intn(12)
			same(step, "setting retention", got.SetRetention(keep), nil)
			want.SetRetention(keep)
			continue
		}
		fresh := raw.Seq == 0
		if fresh {
			seq[tr]++
			raw.Seq = seq[tr]
		}
		g, w := got.Report(raw), want.Report(raw)
		same(step, fmt.Sprintf("reporting %+v", raw), g, w)
		if g != nil && fresh {
			seq[tr]-- // refused, not ingested: the trace reuses the seq
		}
		if got.Delivered() != want.c.Delivered() || got.Pending() != want.c.Pending() {
			t.Fatalf("%s, seed %d step %d: the table delivered %d with %d held, the maps %d with %d",
				pat.name, seed, step, got.Delivered(), got.Pending(), want.c.Delivered(), want.c.Pending())
		}
	}
	ge, we := got.Ordered(), want.c.Ordered()
	for i := range ge {
		if g, w := ge[i], we[i]; g.ID != w.ID || g.Kind != w.Kind || g.Partner != w.Partner || !g.VC.Equal(w.VC) {
			t.Fatalf("%s, seed %d: delivery %d is %v partner %v vc %v on the table, %v partner %v vc %v on the maps",
				pat.name, seed, i, g.ID, g.Partner, g.VC, w.ID, w.Partner, w.VC)
		}
	}
	if g, w := got.RetentionStats(), want.c.RetentionStats(); g != w {
		t.Fatalf("%s, seed %d: retention %+v on the table, %+v on the maps", pat.name, seed, g, w)
	}
	for tid := event.TraceID(0); int(tid) < got.store.NumTraces(); tid++ {
		if g, w := got.store.CompactedBefore(tid), want.c.store.CompactedBefore(tid); g != w {
			t.Fatalf("%s, seed %d: trace %d compacted below %d on the table, %d on the maps", pat.name, seed, tid, g, w)
		}
	}
	if sharded {
		if g, w := got.remote.Len(), len(want.remoteSends); g != w {
			t.Fatalf("%s, seed %d: %d remote sends kept on the table, %d on the maps", pat.name, seed, g, w)
		}
		held := func(c *Collector) (ids []uint64) {
			for m := range c.heldRemote {
				ids = append(ids, m)
			}
			slices.Sort(ids)
			return ids
		}
		if g, w := held(got), held(want.c); !slices.Equal(g, w) {
			t.Fatalf("%s, seed %d: receives held on a peer %v on the table, %v on the maps", pat.name, seed, g, w)
		}
	}
	for _, r := range got.sends.runs {
		pages += len(r.pages)
	}
	return pages
}

// TestSendTableMatchesMapModel holds the one MsgID table to the two maps
// it replaced: the same errors, delivery order, partners, stamps and
// store compaction on seeded scripts, sharded and under retention, for
// every way of numbering messages. Counter-numbered MsgIDs must reach
// the table's pages, and stride-64 and random ones never.
func TestSendTableMatchesMapModel(t *testing.T) {
	for _, pat := range msgIDPatterns {
		pages := 0
		for seed := int64(1); seed <= 300; seed++ {
			pages += sendTableScript(t, pat, seed, seed%2 == 0)
		}
		switch pat.name {
		case "stride 64", "random":
			if pages != 0 {
				t.Errorf("%s: %d pages made, want none", pat.name, pages)
			}
		case "a pool of 24":
		default:
			if pages == 0 {
				t.Errorf("%s: no page made, every MsgID overflowed", pat.name)
			}
		}
	}
}
