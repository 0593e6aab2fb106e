// Package slice extracts causal slices from collected computations: the
// minimal causally closed sub-computation containing a set of events
// (typically a reported match). The paper positions OCEP as the online
// complement of offline, in-depth analysis — "a user may identify a
// runtime safety violation using our tool and then restrict offline
// analysis … to particular traces that are involved" (Section II); a
// causal slice is exactly that restriction: it contains every event that
// could have influenced the match and nothing else, and it replays
// through the collector as a valid computation of its own.
package slice

import (
	"fmt"

	"ocep/internal/event"
	"ocep/internal/poet"
)

// Cut is the per-trace inclusive prefix length of a slice: Cut[t] events
// of trace t belong to the slice.
type Cut []int

// Of computes the causal slice of the given events over the finished
// store: the least consistent cut containing them. Because entry t of an
// event's vector timestamp counts exactly its causal predecessors on
// trace t, the slice is the per-trace maximum of the events' timestamp
// entries — O(k·n) for k events over n traces.
func Of(st *event.Store, events []*event.Event) (Cut, error) {
	if len(events) == 0 {
		return nil, fmt.Errorf("slice: no events given")
	}
	cut := make(Cut, st.NumTraces())
	for _, e := range events {
		if e == nil {
			return nil, fmt.Errorf("slice: nil event")
		}
		if st.Get(e.ID) == nil {
			return nil, fmt.Errorf("slice: event %s not in store", e.ID)
		}
		for t := range cut {
			if v := e.VC.Get(t); v > cut[t] {
				cut[t] = v
			}
		}
	}
	return cut, nil
}

// Size returns the number of events in the slice.
func (c Cut) Size() int {
	n := 0
	for _, x := range c {
		n += x
	}
	return n
}

// Contains reports whether the event ID falls inside the slice.
func (c Cut) Contains(id event.ID) bool {
	t := int(id.Trace)
	return t >= 0 && t < len(c) && id.Index >= 1 && id.Index <= c[t]
}

// Events lists the slice's events in a valid delivery order (the
// restriction of the given delivery order to the slice).
func (c Cut) Events(ordered []*event.Event) []*event.Event {
	var out []*event.Event
	for _, e := range ordered {
		if c.Contains(e.ID) {
			out = append(out, e)
		}
	}
	return out
}

// Replay reports the slice into a fresh collector (trace names and
// numbering preserved), returning it. The result is a self-contained
// computation: every receive's send is inside the slice, so delivery
// drains completely; its store can be dumped, viewed, or matched
// offline.
func (c Cut) Replay(st *event.Store, ordered []*event.Event) (*poet.Collector, error) {
	out := poet.NewCollector()
	if err := out.EnableReplicationLog(); err != nil { // the journal: the result can be dumped
		return nil, err
	}
	for t := 0; t < st.NumTraces(); t++ {
		out.RegisterTrace(st.TraceName(event.TraceID(t)))
	}
	var msg uint64
	ids := make(map[event.ID]uint64)
	for _, e := range c.Events(ordered) {
		raw := poet.RawEvent{
			Trace: st.TraceName(e.ID.Trace),
			Seq:   e.ID.Index,
			Kind:  e.Kind,
			Type:  e.Type,
			Text:  e.Text,
		}
		switch e.Kind {
		case event.KindSend, event.KindSyncRelease:
			msg++
			ids[e.ID] = msg
			raw.MsgID = msg
		case event.KindReceive, event.KindSyncAcquire:
			id, ok := ids[e.Partner.ID()]
			if !ok {
				return nil, fmt.Errorf("slice: receive %s inside the slice but its send %s is not (slice not causally closed?)",
					e.ID, e.Partner)
			}
			raw.MsgID = id
		}
		if err := out.Report(raw); err != nil {
			return nil, fmt.Errorf("slice: replaying %s: %w", e.ID, err)
		}
	}
	if !out.Drained() {
		return nil, fmt.Errorf("slice: replay left %d events undelivered", out.Pending())
	}
	return out, nil
}
