// Package eventtest provides generators of causally consistent event
// histories for tests and benchmarks. The generator simulates a set of
// message-passing traces directly (independent of the POET collector) so
// that packages can cross-check collector output and matcher behaviour
// against a second implementation of the causality rules.
package eventtest

import (
	"fmt"
	"math/rand"

	"ocep/internal/event"
	"ocep/internal/vclock"
)

// Op is a scripted operation for Build.
type Op struct {
	// Trace executes the operation.
	Trace event.TraceID
	// Kind of the produced event.
	Kind event.Kind
	// Type and Text attributes of the produced event.
	Type, Text string
	// From names the send event being received (required for
	// KindReceive/KindSyncAcquire ops): the label of a previous op.
	From string
	// Label optionally names this op so later receives can refer to it.
	Label string
}

// Build runs a script of operations and returns the resulting store and
// the events in script order (which is one valid linearization). It
// panics on malformed scripts; it is a test helper.
func Build(nTraces int, ops []Op) (*event.Store, []*event.Event) {
	st := event.NewStore()
	for i := 0; i < nTraces; i++ {
		st.RegisterTrace(fmt.Sprintf("p%d", i))
	}
	clocks := make([]vclock.VC, nTraces)
	for i := range clocks {
		clocks[i] = vclock.New(nTraces)
	}
	labeled := make(map[string]*event.Event)
	var out []*event.Event
	for i, op := range ops {
		t := int(op.Trace)
		var partner event.ID
		if op.Kind == event.KindReceive || op.Kind == event.KindSyncAcquire {
			src, ok := labeled[op.From]
			if !ok {
				panic(fmt.Sprintf("op %d: unknown From label %q", i, op.From))
			}
			clocks[t] = clocks[t].Merge(src.VC.Dense())
			partner = src.ID
		}
		clocks[t] = clocks[t].Tick(t)
		e := &event.Event{
			ID:      event.ID{Trace: op.Trace, Index: clocks[t].Get(t)},
			Kind:    op.Kind,
			Type:    op.Type,
			Text:    op.Text,
			VC:      clocks[t].Stamp(t),
			Partner: event.RefTo(partner),
		}
		if partner.Index != 0 {
			// Link the send side back to the receive for completeness.
			if src := st.Get(partner); src != nil && src.Partner.IsZero() {
				src.Partner = event.RefTo(e.ID)
			}
		}
		if err := st.Append(e); err != nil {
			panic(fmt.Sprintf("op %d: %v", i, err))
		}
		if op.Label != "" {
			labeled[op.Label] = e
		}
		out = append(out, e)
	}
	return st, out
}

// CheckStamps holds a delivered stream's stamps to dense Fidge/Mattern
// clocks replayed from the stream's own structure — each event's trace
// and kind, each receive's Partner — by value, through Get and Range,
// and checks what a linearization owes a stamp: its own entry is the
// event's Index, and no foreign entry counts more events of a trace than
// the stream delivered before it. events is a whole stream.
func CheckStamps(events []*event.Event) error {
	var clocks []vclock.VC
	var delivered []int
	sent := make(map[event.ID]vclock.VC)
	for k, e := range events {
		t := int(e.ID.Trace)
		for t >= len(clocks) {
			clocks, delivered = append(clocks, nil), append(delivered, 0)
		}
		if e.Kind == event.KindReceive || e.Kind == event.KindSyncAcquire {
			s, ok := sent[e.Partner.ID()]
			if !ok {
				return fmt.Errorf("event %d (%s): partner %s was not delivered before it", k, e.ID, e.Partner)
			}
			clocks[t] = clocks[t].Merge(s)
		}
		c := clocks[t].Tick(t)
		clocks[t] = c
		if e.Kind == event.KindSend || e.Kind == event.KindSyncRelease {
			sent[e.ID] = c.Clone()
		}
		if err := checkStamp(e, c, delivered); err != nil {
			return fmt.Errorf("event %d (%s %s): stamp %s, replayed %s: %w", k, e.ID, e.Kind, e.VC, c, err)
		}
		delivered[t]++
	}
	return nil
}

// checkStamp holds e's stamp to its replayed clock c.
func checkStamp(e *event.Event, c vclock.VC, delivered []int) error {
	t := int(e.ID.Trace)
	if c.Get(t) != e.ID.Index {
		return fmt.Errorf("own entry %d is not the event's index", c.Get(t))
	}
	nonzero := 0
	for u := 0; u < max(len(c), e.VC.Width()); u++ {
		n := c.Get(u)
		switch {
		case e.VC.Get(u) != n:
			return fmt.Errorf("Get(%d) = %d", u, e.VC.Get(u))
		case n > 0 && u != t && n > delivered[u]:
			return fmt.Errorf("entry %d counts %d events, %d were delivered", u, n, delivered[u])
		case n > 0:
			nonzero++
		}
	}
	var err error
	ranged, prev := 0, -1
	e.VC.Range(func(u int, n int32) bool {
		if ranged++; u <= prev || int(n) != c.Get(u) {
			err = fmt.Errorf("Range yields (%d, %d) after trace %d", u, n, prev)
		}
		prev = u
		return err == nil
	})
	if err == nil && ranged != nonzero {
		err = fmt.Errorf("Range yields %d entries, %d are nonzero", ranged, nonzero)
	}
	return err
}

// RandomConfig controls Random.
type RandomConfig struct {
	Traces int
	Events int
	// SendProb and RecvProb are the probabilities that a step is a send
	// or a receive of a pending message; the rest are internal events.
	SendProb, RecvProb float64
	// Types is the pool of event types assigned uniformly at random.
	Types []string
}

// Random generates a random but causally consistent computation and
// returns the store plus the events in generation order (one valid
// linearization).
func Random(rng *rand.Rand, cfg RandomConfig) (*event.Store, []*event.Event) {
	if cfg.Traces < 1 {
		cfg.Traces = 3
	}
	if len(cfg.Types) == 0 {
		cfg.Types = []string{"a", "b", "c"}
	}
	type pendingSend struct {
		ev  *event.Event
		dst int
	}
	st := event.NewStore()
	for i := 0; i < cfg.Traces; i++ {
		st.RegisterTrace(fmt.Sprintf("p%d", i))
	}
	clocks := make([]vclock.VC, cfg.Traces)
	for i := range clocks {
		clocks[i] = vclock.New(cfg.Traces)
	}
	var pending []pendingSend
	var out []*event.Event
	emit := func(t int, kind event.Kind, typ string, partner event.ID) *event.Event {
		clocks[t] = clocks[t].Tick(t)
		e := &event.Event{
			ID:      event.ID{Trace: event.TraceID(t), Index: clocks[t].Get(t)},
			Kind:    kind,
			Type:    typ,
			VC:      clocks[t].Stamp(t),
			Partner: event.RefTo(partner),
		}
		if err := st.Append(e); err != nil {
			panic(err)
		}
		out = append(out, e)
		return e
	}
	for len(out) < cfg.Events {
		t := rng.Intn(cfg.Traces)
		typ := cfg.Types[rng.Intn(len(cfg.Types))]
		r := rng.Float64()
		switch {
		case r < cfg.SendProb && cfg.Traces > 1:
			dst := rng.Intn(cfg.Traces - 1)
			if dst >= t {
				dst++
			}
			e := emit(t, event.KindSend, typ, event.ID{})
			pending = append(pending, pendingSend{ev: e, dst: dst})
		case r < cfg.SendProb+cfg.RecvProb && len(pending) > 0:
			// Deliver the oldest pending message to its destination.
			ps := pending[0]
			pending = pending[1:]
			d := ps.dst
			clocks[d] = clocks[d].Merge(ps.ev.VC.Dense())
			e := emit(d, event.KindReceive, typ, ps.ev.ID)
			ps.ev.Partner = event.RefTo(e.ID)
		default:
			emit(t, event.KindInternal, typ, event.ID{})
		}
	}
	return st, out
}
