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
// was written to pending[t] and read back. Replica promotion, WAL
// recovery and monitor resume offsets assume delivery order is a
// function of the ingestion order alone, so the two must agree on every
// order, not just in-order ones.

// RefReport is Report through the reference path. With waitersFirst it
// is the reference for a fast path built wrong — one that, having
// delivered a send on arrival, drains the receives parked on it before
// the reporting trace's own buffered successors — which the differential
// must tell apart.
func (c *Collector) RefReport(raw RawEvent, waitersFirst bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	err := c.refReportLocked(raw, waitersFirst)
	if err == nil {
		c.recordLocked(journalRecord{RawEvent: raw})
		c.maybeTrimLocked()
	}
	return err
}

func (c *Collector) refReportLocked(raw RawEvent, waitersFirst bool) error {
	if raw.Seq < 1 {
		return fmt.Errorf("poet: event on %q has sequence %d: %w", raw.Trace, raw.Seq, ErrStaleEvent)
	}
	if isRecvLike(raw.Kind) && raw.MsgID == 0 {
		return fmt.Errorf("poet: receive on %q/%d has no message id", raw.Trace, raw.Seq)
	}
	t := c.ensureTrace(raw.Trace)
	if raw.Seq < c.nextSeq[t] {
		return fmt.Errorf("poet: event %q/%d already delivered: %w", raw.Trace, raw.Seq, ErrStaleEvent)
	}
	if _, dup := c.pending[t][raw.Seq]; dup {
		return fmt.Errorf("poet: event %q/%d already buffered: %w", raw.Trace, raw.Seq, ErrStaleEvent)
	}
	if c.admission > 0 && raw.Seq != c.nextSeq[t] && len(c.pending[t]) >= c.admission {
		return fmt.Errorf("poet: trace %q has %d buffered events awaiting causal predecessors: %w",
			raw.Trace, len(c.pending[t]), ErrOverloaded)
	}
	if isSendLike(raw.Kind) && raw.MsgID != 0 {
		if c.sendersSeen[raw.MsgID] {
			return fmt.Errorf("poet: duplicate message id %d from %q/%d", raw.MsgID, raw.Trace, raw.Seq)
		}
		c.sendersSeen[raw.MsgID] = true
		delete(c.heldRemote, raw.MsgID)
	}
	head := raw.Seq == c.nextSeq[t]
	c.pending[t][raw.Seq] = raw
	c.refDrain(t, waitersFirst && head)
	return nil
}

// refDrain delivers everything deliverable starting from trace t.
// waitersFirst (the mutant) puts t's own successors behind the waiters
// of its first event.
func (c *Collector) refDrain(t event.TraceID, waitersFirst bool) {
	work := []event.TraceID{t}
	for len(work) > 0 {
		tr := work[len(work)-1]
		work = work[:len(work)-1]
		for {
			raw, ok := c.pending[tr][c.nextSeq[tr]]
			if !ok {
				break
			}
			if isRecvLike(raw.Kind) {
				if !c.hasSendLocked(raw.MsgID) {
					if ws := c.recvWait[raw.MsgID]; len(ws) == 0 || ws[len(ws)-1] != tr {
						c.recvWait[raw.MsgID] = append(ws, tr)
					}
					if c.sharded && !c.sendersSeen[raw.MsgID] {
						if _, ok := c.heldRemote[raw.MsgID]; !ok {
							c.heldRemote[raw.MsgID] = time.Now()
						}
					}
					break
				}
			}
			delete(c.pending[tr], raw.Seq)
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

// RefSupplyRemoteSend is SupplyRemoteSend waking its receives through
// refDrain.
func (c *Collector) RefSupplyRemoteSend(msgID uint64, id event.ID, vc vclock.VC) error {
	if msgID == 0 {
		return errors.New("poet: remote send has no message id")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.sharded {
		return errors.New("poet: SupplyRemoteSend on an unsharded collector")
	}
	if _, ok := c.remoteSends[msgID]; ok || c.sendersSeen[msgID] {
		return nil
	}
	vc = vc.Clone()
	c.remoteSends[msgID] = remoteSend{id: id, vc: vc}
	c.recordLocked(journalRecord{remote: &shardExport{MsgID: msgID, ID: id, VC: vc}})
	delete(c.heldRemote, msgID)
	if waiters := c.recvWait[msgID]; len(waiters) > 0 {
		delete(c.recvWait, msgID)
		for _, t := range waiters {
			c.refDrain(t, false)
		}
	}
	return nil
}
