package shard

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"testing"
	"time"

	"ocep/internal/event"
	"ocep/internal/fifo"
	"ocep/internal/vclock"
)

// scripted is a Stream fed from a channel, so tests control exactly
// when each shard's events become available.
type scripted struct {
	ch     chan *event.Event
	err    error
	names  map[event.TraceID]string
	closed chan struct{}
}

func newScripted(names map[event.TraceID]string) *scripted {
	return &scripted{ch: make(chan *event.Event, 16), names: names, closed: make(chan struct{})}
}

func (s *scripted) Next() (*event.Event, error) {
	e, ok := <-s.ch
	if !ok {
		if s.err != nil {
			return nil, s.err
		}
		return nil, io.EOF
	}
	return e, nil
}

func (s *scripted) TraceName(t event.TraceID) (string, bool) {
	n, ok := s.names[t]
	return n, ok
}

func (s *scripted) Close() error {
	close(s.closed)
	return nil
}

func ev(trace, index int, vc ...int32) *event.Event {
	return &event.Event{
		ID:   event.ID{Trace: event.TraceID(trace), Index: index},
		Kind: event.KindInternal,
		Type: fmt.Sprintf("e%d-%d", trace, index),
		VC:   vclock.VC(vc).Stamp(trace),
	}
}

// Two shards, one message each way: shard 0 homes trace 0, shard 1
// homes trace 1. The merge must hold the receive on each side until the
// cross-shard send has been emitted, whatever order the streams produce
// events in.
func TestMergeOrdersCrossShardEdges(t *testing.T) {
	s0 := newScripted(map[event.TraceID]string{0: "alpha"})
	s1 := newScripted(map[event.TraceID]string{1: "beta"})
	m, err := NewMergedClient([]Stream{s0, s1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// Deliver the receive (t1#1, depends on t0#1) before the send is
	// available anywhere.
	s1.ch <- ev(1, 1, 1, 1)

	got := make(chan *event.Event, 4)
	errc := make(chan error, 1)
	go func() {
		for {
			e, err := m.Next()
			if err != nil {
				errc <- err
				return
			}
			got <- e
		}
	}()

	select {
	case e := <-got:
		t.Fatalf("emitted %v before its cross-shard past", e)
	case <-time.After(50 * time.Millisecond):
	}

	s0.ch <- ev(0, 1, 1, 0) // the send t1#1 was waiting for
	s0.ch <- ev(0, 2, 2, 2) // receive of the reply, depends on t1#2
	s1.ch <- ev(1, 2, 1, 2) // the reply send
	close(s0.ch)
	close(s1.ch)

	var order []event.ID
	for i := 0; i < 4; i++ {
		// Don't race got against errc: the consumer fills got before it
		// records io.EOF, so drain the events first.
		select {
		case e := <-got:
			order = append(order, e.ID)
		case <-time.After(2 * time.Second):
			select {
			case err := <-errc:
				t.Fatalf("stream ended early after %v: %v", order, err)
			default:
				t.Fatalf("merge stalled after %v", order)
			}
		}
	}
	want := []event.ID{{Trace: 0, Index: 1}, {Trace: 1, Index: 1}, {Trace: 1, Index: 2}, {Trace: 0, Index: 2}}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("merged order = %v, want %v", order, want)
		}
	}
	if err := <-errc; err != io.EOF {
		t.Fatalf("final error = %v, want io.EOF", err)
	}
	if n, ok := m.TraceName(0); !ok || n != "alpha" {
		t.Fatalf("TraceName(0) = %q, %v", n, ok)
	}
	if n, ok := m.TraceName(1); !ok || n != "beta" {
		t.Fatalf("TraceName(1) = %q, %v", n, ok)
	}
	if m.Emitted() != 4 {
		t.Fatalf("Emitted = %d", m.Emitted())
	}
}

func TestMergeReportsWedgeInsteadOfHanging(t *testing.T) {
	s0 := newScripted(nil)
	s1 := newScripted(nil)
	m, err := NewMergedClient([]Stream{s0, s1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	// t1#1 depends on t0#1, which shard 0's stream never produces.
	s1.ch <- ev(1, 1, 1, 1)
	close(s0.ch)
	close(s1.ch)
	_, nerr := m.Next()
	var w *WedgeError
	if !errors.As(nerr, &w) {
		t.Fatalf("wedged merge returned %v, want *WedgeError", nerr)
	}
	if !w.StreamsEnded {
		t.Fatalf("StreamsEnded = false on an all-ended wedge: %v", w)
	}
	if w.Shard != 0 || w.Trace != 0 || w.Need != 1 || w.Have != 0 {
		t.Fatalf("diagnosis = shard %d trace %d need %d have %d, want shard 0 trace 0 need 1 have 0", w.Shard, w.Trace, w.Need, w.Have)
	}
	if len(w.QueueDepths) != 2 || w.QueueDepths[0] != 0 || w.QueueDepths[1] != 1 {
		t.Fatalf("QueueDepths = %v, want [0 1]", w.QueueDepths)
	}
	if st := m.MergeStats(); st.Wedges != 1 {
		t.Fatalf("Wedges = %d, want 1", st.Wedges)
	}
}

// A live wedge: streams still open, an event queued whose cross-shard
// past is not arriving. With a wedge bound the merge must diagnose it
// within the bound instead of blocking forever, stay usable for
// wait-and-retry, and resume emission once the missing past heals.
func TestMergeReportsLiveWedgeWhileStreamsOpen(t *testing.T) {
	s0 := newScripted(nil)
	s1 := newScripted(nil)
	m, err := NewMergedClient([]Stream{s0, s1}, WithWedgeTimeout(60*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	// t1#1 depends on t0#1; shard 0's stream stays open but silent.
	s1.ch <- ev(1, 1, 1, 1)

	start := time.Now()
	_, nerr := m.Next()
	var w *WedgeError
	if !errors.As(nerr, &w) {
		t.Fatalf("stalled merge returned %v, want *WedgeError", nerr)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("wedge took %v to diagnose, bound was 60ms", elapsed)
	}
	if w.StreamsEnded {
		t.Fatal("StreamsEnded = true while both streams are open")
	}
	if w.Shard != 0 || w.Trace != 0 || w.Need != 1 || w.Have != 0 {
		t.Fatalf("diagnosis = shard %d trace %d need %d have %d, want shard 0 trace 0 need 1 have 0", w.Shard, w.Trace, w.Need, w.Have)
	}
	if w.Waited < 60*time.Millisecond {
		t.Fatalf("Waited = %v, want >= the 60ms bound", w.Waited)
	}

	// Wait-and-retry: heal the stall and the same merge resumes.
	s0.ch <- ev(0, 1, 1, 0)
	var order []event.ID
	for len(order) < 2 {
		e, err := m.Next()
		if err != nil {
			var retry *WedgeError
			if errors.As(err, &retry) {
				continue // the heal raced the next bound; retry
			}
			t.Fatalf("Next after heal = %v (got %v)", err, order)
		}
		order = append(order, e.ID)
	}
	want := []event.ID{{Trace: 0, Index: 1}, {Trace: 1, Index: 1}}
	if order[0] != want[0] || order[1] != want[1] {
		t.Fatalf("post-heal order = %v, want %v", order, want)
	}
	close(s0.ch)
	close(s1.ch)
	if _, err := m.Next(); err != io.EOF {
		t.Fatalf("tail = %v, want io.EOF", err)
	}
	if st := m.MergeStats(); st.Wedges < 1 || st.Incomplete != 0 || st.ShardsLost != 0 {
		t.Fatalf("stats = %+v, want >=1 wedge and no degradation", st)
	}
}

// An idle merge — nothing queued anywhere — is not a stall: Next keeps
// waiting past the wedge bound without inventing a WedgeError.
func TestMergeIdleIsNotAWedge(t *testing.T) {
	s0 := newScripted(nil)
	s1 := newScripted(nil)
	m, err := NewMergedClient([]Stream{s0, s1}, WithWedgeTimeout(40*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	errc := make(chan error, 1)
	go func() {
		_, err := m.Next()
		errc <- err
	}()
	select {
	case err := <-errc:
		t.Fatalf("idle merge returned %v before any event", err)
	case <-time.After(200 * time.Millisecond):
	}
	s0.ch <- ev(0, 1, 1, 0)
	if err := <-errc; err != nil {
		t.Fatalf("Next = %v after event arrived", err)
	}
	close(s0.ch)
	close(s1.ch)
	if _, err := m.Next(); err != io.EOF {
		t.Fatalf("tail = %v, want io.EOF", err)
	}
}

// DegradeAfter: once the blocking shard is declared lost, held events
// flow annotated as causally incomplete, and the shard's stream
// producing again revives the causal holds.
func TestMergeDegradeEmitsIncomplete(t *testing.T) {
	s0 := newScripted(nil)
	s1 := newScripted(map[event.TraceID]string{1: "beta"})
	m, err := NewMergedClient([]Stream{s0, s1}, WithDegradeAfter(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	// t1#1 depends on t0#1, which shard 0 does not produce in time.
	s1.ch <- ev(1, 1, 1, 1)
	e, nerr := m.Next()
	if nerr != nil {
		t.Fatalf("degraded Next = %v, want the held event", nerr)
	}
	if e.ID != (event.ID{Trace: 1, Index: 1}) {
		t.Fatalf("degraded Next emitted %v", e.ID)
	}
	st := m.MergeStats()
	if st.Incomplete != 1 || st.ShardsLost != 1 {
		t.Fatalf("stats after degradation = %+v, want Incomplete 1, ShardsLost 1", st)
	}
	if len(st.Lost) != 1 || st.Lost[0] != 0 {
		t.Fatalf("Lost = %v, want [0]", st.Lost)
	}

	// The lost shard's stream comes back: it is live again, and its
	// events (plus anything depending on them) flow normally.
	s0.ch <- ev(0, 1, 1, 0)
	e, nerr = m.Next()
	if nerr != nil || e.ID != (event.ID{Trace: 0, Index: 1}) {
		t.Fatalf("revived shard's event = %v, %v", e, nerr)
	}
	s1.ch <- ev(1, 2, 1, 2) // same-shard successor, complete past
	e, nerr = m.Next()
	if nerr != nil || e.ID != (event.ID{Trace: 1, Index: 2}) {
		t.Fatalf("post-revival event = %v, %v", e, nerr)
	}
	st = m.MergeStats()
	if len(st.Lost) != 0 {
		t.Fatalf("Lost = %v after revival, want empty", st.Lost)
	}
	if st.Incomplete != 1 {
		t.Fatalf("Incomplete = %d after revival, want still 1", st.Incomplete)
	}
	close(s0.ch)
	close(s1.ch)
	if _, err := m.Next(); err != io.EOF {
		t.Fatalf("tail = %v, want io.EOF", err)
	}
}

func TestMergePropagatesStreamError(t *testing.T) {
	boom := errors.New("stream broken")
	s0 := newScripted(nil)
	s0.err = boom
	m, err := NewMergedClient([]Stream{s0})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	close(s0.ch)
	if _, nerr := m.Next(); !errors.Is(nerr, boom) {
		t.Fatalf("Next = %v, want wrap of %v", nerr, boom)
	}
}

func TestMergeCloseUnblocksAndClosesStreams(t *testing.T) {
	s0 := newScripted(nil)
	m, err := NewMergedClient([]Stream{s0})
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := m.Next()
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if err != io.EOF {
			t.Fatalf("Next after Close = %v, want io.EOF", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Next still blocked after Close")
	}
	select {
	case <-s0.closed:
	case <-time.After(2 * time.Second):
		t.Fatal("underlying stream not closed")
	}
	if err := m.Close(); err != nil {
		t.Fatalf("second Close = %v", err)
	}
	close(s0.ch)
}

func TestNewMergedClientValidation(t *testing.T) {
	if _, err := NewMergedClient(nil); err == nil {
		t.Fatal("empty stream list accepted")
	}
}

// A single-shard tier degrades to a pass-through: everything is
// same-shard, so events flow in stream order.
func TestMergeSingleShardPassThrough(t *testing.T) {
	s0 := newScripted(map[event.TraceID]string{0: "only"})
	m, err := NewMergedClient([]Stream{s0})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for i := 1; i <= 5; i++ {
		s0.ch <- ev(0, i, int32(i))
	}
	close(s0.ch)
	for i := 1; i <= 5; i++ {
		e, err := m.Next()
		if err != nil {
			t.Fatal(err)
		}
		if e.ID.Index != i {
			t.Fatalf("event %d out of order: %v", i, e.ID)
		}
	}
	if _, err := m.Next(); err != io.EOF {
		t.Fatalf("tail = %v, want io.EOF", err)
	}
}

// mapReady and mapBlocker are the readiness test and the wedge diagnosis
// of one queue head as they stood with the emitted frontier in a map
// keyed by trace, read through VC.Range.
func mapReady(n, i int, vc vclock.VC, emitted map[event.TraceID]int32, lost []bool) (ready, waived bool) {
	ready = true
	vc.Range(func(t int, k int32) bool {
		owner := t % n
		if owner == i {
			return true
		}
		if emitted[event.TraceID(t)] >= k {
			return true
		}
		if lost[owner] {
			waived = true
			return true
		}
		ready = false
		return false
	})
	if !ready {
		waived = false
	}
	return ready, waived
}

func mapBlocker(n, i int, vc vclock.VC, emitted map[event.TraceID]int32, lost []bool) (w *WedgeError) {
	vc.Range(func(t int, k int32) bool {
		owner := t % n
		if owner == i || lost[owner] {
			return true
		}
		if have := emitted[event.TraceID(t)]; have < k {
			w = &WedgeError{Shard: owner, Trace: event.TraceID(t), Need: k, Have: have}
			return false
		}
		return true
	})
	return w
}

// TestMergeReadinessMatchesMapFrontier: over random clocks, emitted
// frontiers and lost sets, the slice
// frontier's walk decides readiness and waiver as the map did, and
// diagnoseLocked names a blocking entry exactly when the head is not
// ready — the same entry the map-based diagnosis named.
func TestMergeReadinessMatchesMapFrontier(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	blocked, waived := 0, 0
	for iter := 0; iter < 20000; iter++ {
		n := 1 + rng.Intn(4)
		vc := make(vclock.VC, rng.Intn(12))
		for t := range vc {
			if rng.Intn(3) > 0 {
				vc[t] = int32(rng.Intn(6))
			}
		}
		// pump keeps the frontier as wide as every queued clock
		frontier := make([]int32, len(vc)+rng.Intn(3))
		emitted := make(map[event.TraceID]int32)
		for t := range frontier {
			frontier[t] = int32(rng.Intn(6))
			emitted[event.TraceID(t)] = frontier[t]
		}
		lost := make([]bool, n)
		for j := range lost {
			lost[j] = rng.Intn(4) == 0
		}
		i := rng.Intn(n)
		m := &MergedClient{streams: make([]Stream, n), queues: make([]fifo.Queue[item], n), lost: lost, emitted: slices.Clone(frontier)}
		b, w := m.blockerLocked(i, vc.Stamp(0))
		ready, wantWaived := mapReady(n, i, vc, emitted, lost)
		if (b < 0) != ready || w != wantWaived {
			t.Fatalf("iter %d: n=%d i=%d vc=%v emitted=%v lost=%v: blocker %d waived %v, map ready %v waived %v",
				iter, n, i, vc, frontier, lost, b, w, ready, wantWaived)
		}
		m.queues[i].Push(item{e: &event.Event{VC: vc.Stamp(0)}})
		got, want := m.diagnoseLocked(), mapBlocker(n, i, vc, emitted, lost)
		if (got == nil) != ready || got != nil && (got.Shard != want.Shard || got.Trace != want.Trace || got.Need != want.Need || got.Have != want.Have) {
			t.Fatalf("iter %d: n=%d i=%d vc=%v emitted=%v lost=%v: diagnosis %+v, map %+v, ready %v",
				iter, n, i, vc, frontier, lost, got, want, ready)
		}
		if !ready {
			blocked++
		} else if wantWaived {
			waived++
		}
	}
	if blocked < 1000 || waived < 1000 {
		t.Fatalf("only %d blocked and %d waived heads: the cases no longer cover both", blocked, waived)
	}
}
