package poet

import (
	"errors"
	"fmt"
	"time"

	"ocep/internal/event"
	"ocep/internal/vclock"
)

// The reference the linearization differential (linearization_test.go,
// package poet_test: it needs the case-study generators, which import
// this package) compares Report against: reportLocked and drain as they
// stood before the head-of-trace fast path, when every accepted event
// was written to pending[t] and read back — and pending[t] was a map
// keyed by Seq, which Ref keeps as its own state beside the collector it
// drives. So are the MsgIDs of the sends it has seen, locally and from
// peer shards, as the two sets the collector once kept: the collector's
// MsgID table holds only what its deliver reads. Replica promotion, WAL recovery and monitor resume offsets
// assume delivery order is a function of the ingestion order alone, so
// the two must agree on every order, not just in-order ones.

// Ref drives a collector through the reference path.
type Ref struct {
	c *Collector
	// pending[t] buffers raw events that arrived ahead of their trace's
	// delivery point, keyed by Seq.
	pending []map[int]RawEvent
	// sendersSeen holds the MsgID of every local send ingested, remote
	// that of every peer-shard send supplied.
	sendersSeen, remote map[uint64]bool
}

// NewRef returns the reference path into c, which only Ref may feed.
func NewRef(c *Collector) *Ref {
	return &Ref{c: c, sendersSeen: make(map[uint64]bool), remote: make(map[uint64]bool)}
}

// Report is Collector.Report through the reference path. With
// waitersFirst it is the reference for a fast path built wrong — one
// that, having delivered a send on arrival, drains the receives parked on
// it before the reporting trace's own buffered successors — which the
// differential must tell apart.
func (r *Ref) Report(raw RawEvent, waitersFirst bool) error {
	c := r.c
	c.mu.Lock()
	defer c.mu.Unlock()
	err := r.reportLocked(raw, waitersFirst)
	if err == nil {
		c.recordLocked(&raw)
		c.maybeTrimLocked()
	}
	return err
}

// Pending is Collector.Pending over the reference buffer.
func (r *Ref) Pending() int {
	r.c.mu.Lock()
	defer r.c.mu.Unlock()
	n := 0
	for _, p := range r.pending {
		n += len(p)
	}
	return n
}

// AckFor is Collector.AckFor over the reference buffer.
func (r *Ref) AckFor(name string) int {
	c := r.c
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.store.TraceByName(name)
	if !ok || int(t) >= len(c.nextSeq) {
		return 0
	}
	ack := c.nextSeq[t] - 1
	for {
		if _, buffered := r.pending[t][ack+1]; !buffered {
			return ack
		}
		ack++
	}
}

// ensureTrace is Collector.ensureTrace with the reference buffer made.
func (r *Ref) ensureTrace(name string) event.TraceID {
	t, _ := r.c.ensureTrace(name) // the scripts name a few traces, far below the limit
	for int(t) >= len(r.pending) {
		r.pending = append(r.pending, make(map[int]RawEvent))
	}
	return t
}

func (r *Ref) reportLocked(raw RawEvent, waitersFirst bool) error {
	c := r.c
	if raw.Seq < 1 {
		return fmt.Errorf("poet: event on %q has sequence %d: %w", raw.Trace, raw.Seq, ErrStaleEvent)
	}
	if isRecvLike(raw.Kind) && raw.MsgID == 0 {
		return fmt.Errorf("poet: receive on %q/%d has no message id", raw.Trace, raw.Seq)
	}
	t := r.ensureTrace(raw.Trace)
	if raw.Seq < c.nextSeq[t] {
		return fmt.Errorf("poet: event %q/%d already delivered: %w", raw.Trace, raw.Seq, ErrStaleEvent)
	}
	if _, dup := r.pending[t][raw.Seq]; dup {
		return fmt.Errorf("poet: event %q/%d already buffered: %w", raw.Trace, raw.Seq, ErrStaleEvent)
	}
	if c.admission > 0 && raw.Seq != c.nextSeq[t] && len(r.pending[t]) >= c.admission {
		return fmt.Errorf("poet: trace %q has %d buffered events awaiting causal predecessors: %w",
			raw.Trace, len(r.pending[t]), ErrOverloaded)
	}
	if isSendLike(raw.Kind) && raw.MsgID != 0 {
		if r.sendersSeen[raw.MsgID] {
			return fmt.Errorf("poet: duplicate message id %d from %q/%d", raw.MsgID, raw.Trace, raw.Seq)
		}
		r.sendersSeen[raw.MsgID] = true
		delete(c.heldRemote, raw.MsgID)
	}
	head := raw.Seq == c.nextSeq[t]
	r.pending[t][raw.Seq] = raw
	r.drain(t, waitersFirst && head)
	return nil
}

// drain delivers everything deliverable starting from trace t.
// waitersFirst (the mutant) puts t's own successors behind the waiters
// of its first event.
func (r *Ref) drain(t event.TraceID, waitersFirst bool) {
	c := r.c
	work := []event.TraceID{t}
	for len(work) > 0 {
		tr := work[len(work)-1]
		work = work[:len(work)-1]
		for {
			raw, ok := r.pending[tr][c.nextSeq[tr]]
			if !ok {
				break
			}
			if isRecvLike(raw.Kind) {
				if !c.hasSendLocked(raw.MsgID) {
					if ws := c.recvWait[raw.MsgID]; len(ws) == 0 || ws[len(ws)-1] != tr {
						c.recvWait[raw.MsgID] = append(ws, tr)
					}
					if c.sharded && !r.sendersSeen[raw.MsgID] {
						if _, ok := c.heldRemote[raw.MsgID]; !ok {
							c.heldRemote[raw.MsgID] = time.Now()
						}
					}
					break
				}
			}
			delete(r.pending[tr], raw.Seq)
			c.deliver(tr, raw)
			if isSendLike(raw.Kind) && raw.MsgID != 0 {
				if waiters := c.recvWait[raw.MsgID]; len(waiters) > 0 {
					if waitersFirst {
						work = append(work, tr)
					}
					work = append(work, waiters...)
					delete(c.recvWait, raw.MsgID)
					if waitersFirst {
						waitersFirst = false
						break
					}
				}
			}
			waitersFirst = false
		}
	}
}

// SupplyRemoteSend is Collector.SupplyRemoteSend waking its receives
// through the reference drain.
func (r *Ref) SupplyRemoteSend(msgID uint64, id event.ID, vc vclock.Stamp) error {
	c := r.c
	if msgID == 0 {
		return errors.New("poet: remote send has no message id")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.sharded {
		return errors.New("poet: SupplyRemoteSend on an unsharded collector")
	}
	if r.remote[msgID] || r.sendersSeen[msgID] {
		return nil
	}
	vc = vclock.NewStamp(vc.Dense(), vc.Trace(), nil)
	r.remote[msgID] = true
	c.sends.set(msgID, sendRemote|uint64(c.remote.Len())) // what deliver reads
	c.remote.Push(shardExport{MsgID: msgID, ID: id, VC: vc})
	c.recordLocked(nil)
	delete(c.heldRemote, msgID)
	if waiters := c.recvWait[msgID]; len(waiters) > 0 {
		delete(c.recvWait, msgID)
		for _, t := range waiters {
			r.drain(t, false)
		}
	}
	return nil
}

// LiveHeap returns the bytes of heap reachable after a collection, and
// false under the race detector, where heap sizes mean nothing.
func LiveHeap() (int64, bool) {
	if raceEnabled {
		return 0, false
	}
	return liveHeap(), true
}
