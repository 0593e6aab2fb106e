package main

import (
	"reflect"
	"testing"

	"ocep/internal/event"
)

// TestGeneratorsAreDeterministic: one seed is one byte-identical
// stream, another seed is another stream.
func TestGeneratorsAreDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, b, c := w.gen(7, 20000), w.gen(7, 20000), w.gen(8, 20000)
		if !reflect.DeepEqual(a.Events, b.Events) || a.SHA256() != b.SHA256() {
			t.Errorf("%s: two calls with seed 7 differ", w.Name)
		}
		if a.SHA256() == c.SHA256() {
			t.Errorf("%s: seeds 7 and 8 give the same stream", w.Name)
		}
	}
}

// TestWorkloadsHaveTheirStatedShape holds each generator, at its
// benchmark size, to the properties its workload's description states.
func TestWorkloadsHaveTheirStatedShape(t *testing.T) {
	within := func(name string, got, lo, hi float64) {
		t.Helper()
		if got < lo || got > hi {
			t.Errorf("%s = %.4f, want within [%.4f, %.4f]", name, got, lo, hi)
		}
	}
	for _, w := range workloads {
		in := w.Generate(1)
		p := in.props(shardHome)
		ref, err := computeReference(in, false)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		within(w.Name+" events/target", float64(len(in.Events))/float64(w.Events), 0.97, 1.03)
		switch w.Name {
		case "embed-atomicity":
			if p.Traces != 21 {
				t.Errorf("%s: %d traces, want 20 threads + 1 semaphore", w.Name, p.Traces)
			}
			within(w.Name+" trigger share", p.TriggerShare, 1.0/8.2, 1.0/7.8)
			within(w.Name+" early share", p.EarlyShare, 0, 0)
			if len(ref.coverage) == 0 {
				t.Errorf("%s: the seeded violations produce no match", w.Name)
			}
		case "wire-ring":
			if p.Traces != 128 {
				t.Errorf("%s: %d traces, want 128", w.Name, p.Traces)
			}
			within(w.Name+" trigger share", p.TriggerShare, 0.0001, 0.001)
			within(w.Name+" early share", p.EarlyShare, 0.05, 0.15)
			if ref.stats.Reported < 50 {
				t.Errorf("%s: %d matches, want at least 50", w.Name, ref.stats.Reported)
			}
		case "durable-ha":
			if p.Traces != 32 {
				t.Errorf("%s: %d traces, want 32", w.Name, p.Traces)
			}
			within(w.Name+" trigger share", p.TriggerShare, 0.33, 0.34)
			within(w.Name+" early share", p.EarlyShare, 0, 0)
			if ref.stats.Reported < 50 {
				t.Errorf("%s: %d matches, want at least 50", w.Name, ref.stats.Reported)
			}
		case "shard-ring":
			if p.Traces != 32 {
				t.Errorf("%s: %d traces, want 32", w.Name, p.Traces)
			}
			within(w.Name+" trigger share", p.TriggerShare, 0.0001, 0.001)
			within(w.Name+" early share", p.EarlyShare, 0.05, 0.15)
			within(w.Name+" cross-shard share", p.CrossShare, 1, 1)
			if ref.stats.Reported < 50 {
				t.Errorf("%s: %d matches, want at least 50", w.Name, ref.stats.Reported)
			}
		default:
			t.Errorf("workload %s has no stated shape to check", w.Name)
		}
	}
}

// streamProps are the properties a workload's description promises.
type streamProps struct {
	Traces int
	// TriggerShare is the share of events whose type can complete a match.
	TriggerShare float64
	// EarlyShare is the share of receive-like events that arrive before
	// the send-like event they pair with.
	EarlyShare float64
	// CrossShare is the share of receive-like events whose partner is
	// homed on another shard under home.
	CrossShare float64
}

func isSendLike(k event.Kind) bool { return k == event.KindSend || k == event.KindSyncRelease }
func isRecvLike(k event.Kind) bool { return k == event.KindReceive || k == event.KindSyncAcquire }

// props measures a stream. home maps a trace name to its shard; nil
// skips the cross-shard count.
func (in *Input) props(home func(string) int) streamProps {
	sender := make(map[uint64]string)
	for _, e := range in.Events {
		if isSendLike(e.Kind) {
			sender[e.MsgID] = e.Trace
		}
	}
	seen := make(map[uint64]bool)
	var p streamProps
	var triggers, recvs, early, cross int
	for _, e := range in.Events {
		if e.Type == in.Trigger {
			triggers++
		}
		switch {
		case isSendLike(e.Kind):
			seen[e.MsgID] = true
		case isRecvLike(e.Kind):
			recvs++
			if !seen[e.MsgID] {
				early++
			}
			if home != nil && home(sender[e.MsgID]) != home(e.Trace) {
				cross++
			}
		}
	}
	p.Traces = len(in.pos)
	p.TriggerShare = float64(triggers) / float64(len(in.Events))
	if recvs > 0 {
		p.EarlyShare = float64(early) / float64(recvs)
		p.CrossShare = float64(cross) / float64(recvs)
	}
	return p
}
