package baseline

import (
	"ocep/internal/event"
	"ocep/internal/vclock"
)

// RaceChecker is the classical message-race detector of Section V-C2
// (Netzer/Miller-style): it tracks, per trace, the receive events seen so
// far together with the vector timestamps of their sends, and flags a
// race whenever two messages received by the same trace have concurrent
// sends. Its per-event cost grows with the receive history, which the
// paper contrasts with OCEP's domain-restricted search.
type RaceChecker struct {
	// recvs[t] holds, for every receive on trace t, the send's stamp.
	recvs map[event.TraceID][]sendStamp
	// Races counts the detected racy pairs.
	Races int
}

type sendStamp struct {
	id event.ID
	vc vclock.Stamp
}

// NewRaceChecker builds an empty checker.
func NewRaceChecker() *RaceChecker {
	return &RaceChecker{recvs: make(map[event.TraceID][]sendStamp)}
}

// Feed processes one delivered event and returns the IDs of the sends
// racing with the new message (empty for non-receives and race-free
// receives).
func (r *RaceChecker) Feed(st *event.Store, e *event.Event) []event.ID {
	if e.Kind != event.KindReceive || e.Partner.IsZero() {
		return nil
	}
	send := st.Get(e.Partner.ID())
	if send == nil {
		return nil
	}
	var racy []event.ID
	for _, prev := range r.recvs[e.ID.Trace] {
		if vclock.Concurrent(prev.vc, send.VC) {
			racy = append(racy, prev.id)
		}
	}
	r.recvs[e.ID.Trace] = append(r.recvs[e.ID.Trace], sendStamp{id: send.ID, vc: send.VC})
	r.Races += len(racy)
	return racy
}
