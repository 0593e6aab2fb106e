package bench

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"ocep/internal/core"
	"ocep/internal/event"
	"ocep/internal/poet"
	"ocep/internal/vclock"
)

// This file implements the trace-count experiment behind `ocepbench
// -tracescale`. The paper's evaluation stops at tens of processes; a
// deployment can monitor tens of thousands of traces, and there dense
// Fidge/Mattern timestamps dominate both the wire (every event ships
// the full vector) and memory (every stored event pins O(#traces)
// entries). The experiment quantifies what the compressed causality
// machinery buys back:
//
//   - wire: frame bytes/event with full dense vectors vs. per-connection
//     delta encoding (only the entries that changed since the previous
//     event on the connection);
//   - memory/time: ns per happens-before test and timestamp entries per
//     event with dense vs. sparse (trace, count)-pair clocks.
//
// The workload is a ring: each of N traces runs a few local events and
// passes a message to its neighbour, the regime where an event's causal
// past touches a handful of traces regardless of N — exactly where
// dense O(N) stamps are pure overhead. Every data point is
// differential: at moderate scales the whole stream is stamped both
// densely and sparsely and compared entry for entry, at every scale the
// delta stream is decoded back and verified (MeasureWire), and the four
// case studies are replayed under both representations with match sets,
// telemetry, and coverage required to be identical.

// traceScaleConfig sizes the experiment; tests shrink it.
type traceScaleConfig struct {
	// Scales are the trace counts swept.
	Scales []int
	// Rounds is the number of ring rounds (3 events per trace per round).
	Rounds int
	// SampleEvents caps the events measured for wire bytes (a dense
	// stream at 10000 traces is tens of KB/event — too large to encode
	// in full). The sample is the stream's tail: by then clocks span the
	// whole ring, which is the steady state a long-running deployment
	// pays; a prefix would flatter dense encoding, whose vectors only
	// reach the highest trace touched so far.
	SampleEvents int
	// HBPairs is the number of happens-before tests timed per mode.
	HBPairs int
	// DiffTraces bounds the scales at which the full dense-vs-sparse
	// stream differential runs (above it, dense stamping of the whole
	// stream would dominate the run; the delta codec check still runs).
	DiffTraces int
	// CaseEvents sizes the four case-study differentials (0 skips them).
	CaseEvents int
	// Seed fixes the workloads.
	Seed int64
}

// TraceScale runs the experiment at paper scale, the entry point behind
// `ocepbench -tracescale`.
func TraceScale(w io.Writer, cfg FigureConfig) error {
	cfg = cfg.norm()
	return traceScale(w, traceScaleConfig{
		Scales:       []int{100, 1000, 10000},
		Rounds:       2,
		SampleEvents: 2000,
		HBPairs:      2_000_000,
		DiffTraces:   1000,
		CaseEvents:   cfg.TargetEvents / 10,
		Seed:         cfg.Seed,
	})
}

// ringStream collects a ring workload over n traces: per round every
// trace runs one internal event, sends to its successor, and receives
// from its predecessor. Sparse selects the collector's timestamp
// representation.
func ringStream(n, rounds int, sparse bool) (*poet.Collector, error) {
	c := poet.NewCollector()
	if sparse {
		if err := c.SetSparseClocks(true); err != nil {
			return nil, err
		}
	}
	seqs := make([]int, n)
	report := func(trace int, kind event.Kind, typ string, msg uint64) error {
		seqs[trace]++
		return c.Report(poet.RawEvent{
			Trace: fmt.Sprintf("p%d", trace), Seq: seqs[trace],
			Kind: kind, Type: typ, MsgID: msg,
		})
	}
	var msg uint64
	for r := 0; r < rounds; r++ {
		base := msg
		for i := 0; i < n; i++ {
			msg++
			if err := report(i, event.KindInternal, "work", 0); err != nil {
				return nil, fmt.Errorf("bench: ring stream: %w", err)
			}
			if err := report(i, event.KindSend, "pass", msg); err != nil {
				return nil, fmt.Errorf("bench: ring stream: %w", err)
			}
		}
		for i := 0; i < n; i++ {
			from := (i - 1 + n) % n
			if err := report(i, event.KindReceive, "take", base+uint64(from)+1); err != nil {
				return nil, fmt.Errorf("bench: ring stream: %w", err)
			}
		}
	}
	if !c.Drained() {
		return nil, fmt.Errorf("bench: ring stream left %d events pending", c.Pending())
	}
	return c, nil
}

// hbTiming times vclock.Before over random event pairs in both
// representations: sparse as stamped, dense via transient DenseOf
// copies of the same sampled events. Returns ns/test for each.
func hbTiming(evs []*event.Event, pairs int, seed int64) (denseNs, sparseNs float64) {
	const sample = 512
	rng := rand.New(rand.NewSource(seed))
	idx := make([]int, sample)
	for i := range idx {
		idx[i] = rng.Intn(len(evs))
	}
	sparseVC := make([]vclock.Clock, sample)
	denseVC := make([]vclock.Clock, sample)
	traces := make([]int, sample)
	for i, j := range idx {
		sparseVC[i] = evs[j].VC
		denseVC[i] = vclock.DenseOf(evs[j].VC)
		traces[i] = int(evs[j].ID.Trace)
	}
	time1 := func(vcs []vclock.Clock) float64 {
		// The pair sequence is identical across modes (same seed).
		prng := rand.New(rand.NewSource(seed + 1))
		hits := 0
		start := time.Now()
		for p := 0; p < pairs; p++ {
			a, b := prng.Intn(sample), prng.Intn(sample)
			if vclock.Before(vcs[a], traces[a], vcs[b], traces[b]) {
				hits++
			}
		}
		wall := time.Since(start)
		if hits < 0 { // keep the loop's result live
			panic("unreachable")
		}
		return float64(wall.Nanoseconds()) / float64(pairs)
	}
	// Warm, then measure; dense first is arbitrary but fixed.
	return time1(denseVC), time1(sparseVC)
}

// diffStreams requires two stamped streams to agree event for event —
// same IDs, kinds, partners, and component-wise equal timestamps.
func diffStreams(dense, sparse []*event.Event) error {
	if len(dense) != len(sparse) {
		return fmt.Errorf("bench: tracescale differential: %d dense vs %d sparse events", len(dense), len(sparse))
	}
	for i := range dense {
		d, s := dense[i], sparse[i]
		if d.ID != s.ID || d.Kind != s.Kind || d.Partner != s.Partner {
			return fmt.Errorf("bench: tracescale differential: event %d is %v/%v dense, %v/%v sparse",
				i, d.ID, d.Kind, s.ID, s.Kind)
		}
		if !d.VC.Equal(s.VC) {
			return fmt.Errorf("bench: tracescale differential: event %v stamped %v dense, %v sparse", d.ID, d.VC, s.VC)
		}
	}
	return nil
}

// matchKey canonicalizes a match as its sorted event IDs.
func matchKey(m core.Match) string {
	ids := make([]string, len(m.Events))
	for i, e := range m.Events {
		ids[i] = fmt.Sprintf("%d#%d", e.ID.Trace, e.ID.Index)
	}
	sort.Strings(ids)
	return fmt.Sprint(ids)
}

// restamp replays the delivered stream of src into a fresh collector
// with the chosen timestamp representation: same traces (registered in
// ID order), same events in the same linearized order, with message ids
// resynthesized from the recorded partner links. The case-study
// generators run real goroutines, so two Generate calls produce two
// different interleavings — a representation differential must stamp
// the one collected stream both ways, not collect twice.
func restamp(src *poet.Collector, sparse bool) (*poet.Collector, error) {
	c := poet.NewCollector()
	if sparse {
		if err := c.SetSparseClocks(true); err != nil {
			return nil, err
		}
	}
	st := src.Store()
	for t := 0; t < st.NumTraces(); t++ {
		c.RegisterTrace(st.TraceName(event.TraceID(t)))
	}
	var msg uint64
	sendMsg := make(map[event.ID]uint64)
	for _, e := range src.Ordered() {
		raw := poet.RawEvent{
			Trace: st.TraceName(e.ID.Trace), Seq: e.ID.Index,
			Kind: e.Kind, Type: e.Type, Text: e.Text,
		}
		switch e.Kind {
		case event.KindSend, event.KindSyncRelease:
			msg++
			sendMsg[e.ID] = msg
			raw.MsgID = msg
		case event.KindReceive, event.KindSyncAcquire:
			raw.MsgID = sendMsg[e.Partner]
			if raw.MsgID == 0 {
				return nil, fmt.Errorf("bench: restamp: receive %v has no delivered send partner", e.ID)
			}
		}
		if err := c.Report(raw); err != nil {
			return nil, fmt.Errorf("bench: restamp: %w", err)
		}
	}
	if !c.Drained() {
		return nil, fmt.Errorf("bench: restamp left %d events pending", c.Pending())
	}
	return c, nil
}

// caseDiff replays one case study under dense and sparse stamping of
// the same collected stream and requires identical match sets, search
// telemetry, and coverage.
func caseDiff(cs Case, targetEvents int, seed int64) error {
	w, err := Generate(GenConfig{
		Case: cs, Traces: 8, TargetEvents: targetEvents, Seed: seed,
	})
	if err != nil {
		return err
	}
	defer w.Collector.Close()
	sc, err := restamp(w.Collector, true)
	if err != nil {
		return err
	}
	defer sc.Close()
	if err := diffStreams(w.Collector.Ordered(), sc.Ordered()); err != nil {
		return fmt.Errorf("bench: tracescale %s: %w", cs, err)
	}
	sw := &Workload{Case: w.Case, Traces: w.Traces, Collector: sc, Result: w.Result, Pattern: w.Pattern}
	dr, err := w.Run(ReplayConfig{Options: PaperOptions(), KeepMatches: true, NoTiming: true})
	if err != nil {
		return err
	}
	sr, err := sw.Run(ReplayConfig{Options: PaperOptions(), KeepMatches: true, NoTiming: true})
	if err != nil {
		return err
	}
	if dr.Events != sr.Events {
		return fmt.Errorf("bench: tracescale %s: %d dense vs %d sparse events", cs, dr.Events, sr.Events)
	}
	dm := make([]string, len(dr.Matches))
	sm := make([]string, len(sr.Matches))
	for i, m := range dr.Matches {
		dm[i] = matchKey(m)
	}
	for i, m := range sr.Matches {
		sm[i] = matchKey(m)
	}
	sort.Strings(dm)
	sort.Strings(sm)
	if len(dm) != len(sm) {
		return fmt.Errorf("bench: tracescale %s: %d matches dense, %d sparse", cs, len(dm), len(sm))
	}
	for i := range dm {
		if dm[i] != sm[i] {
			return fmt.Errorf("bench: tracescale %s: match %d is %s dense, %s sparse", cs, i, dm[i], sm[i])
		}
	}
	if dr.Stats != sr.Stats {
		return fmt.Errorf("bench: tracescale %s: telemetry diverged: dense %+v, sparse %+v", cs, dr.Stats, sr.Stats)
	}
	if len(dr.Coverage) != len(sr.Coverage) {
		return fmt.Errorf("bench: tracescale %s: coverage %d pairs dense, %d sparse", cs, len(dr.Coverage), len(sr.Coverage))
	}
	for i := range dr.Coverage {
		if dr.Coverage[i] != sr.Coverage[i] {
			return fmt.Errorf("bench: tracescale %s: coverage pair %d is %v dense, %v sparse",
				cs, i, dr.Coverage[i], sr.Coverage[i])
		}
	}
	return nil
}

func traceScale(w io.Writer, cfg traceScaleConfig) error {
	fmt.Fprintf(w, "Trace-scale timestamp compression: ring workload, %d rounds (3 events/trace/round)\n", cfg.Rounds)
	fmt.Fprintf(w, "  %-8s %9s %12s %12s %8s %11s %11s %9s\n",
		"traces", "events", "dense B/ev", "delta B/ev", "ratio", "dense ns/hb", "sparse ns/hb", "entries/ev")
	for _, n := range cfg.Scales {
		c, err := ringStream(n, cfg.Rounds, true)
		if err != nil {
			return err
		}
		evs := c.Ordered()
		// Full-stream dense differential at moderate scale; above it the
		// delta decode check inside MeasureWire still cross-checks every
		// sampled event against a transiently densified oracle.
		if n <= cfg.DiffTraces {
			dc, err := ringStream(n, cfg.Rounds, false)
			if err != nil {
				return err
			}
			if err := diffStreams(dc.Ordered(), evs); err != nil {
				return err
			}
			dc.Close()
		}
		sample := evs
		if len(sample) > cfg.SampleEvents {
			sample = sample[len(sample)-cfg.SampleEvents:]
		}
		denseBytes, _, err := poet.MeasureWire(sample, false)
		if err != nil {
			return err
		}
		deltaBytes, deltaEntries, err := poet.MeasureWire(sample, true)
		if err != nil {
			return err
		}
		hbDense, hbSparse := hbTiming(evs, cfg.HBPairs, cfg.Seed+int64(n))
		dbe := float64(denseBytes) / float64(len(sample))
		lbe := float64(deltaBytes) / float64(len(sample))
		fmt.Fprintf(w, "  %-8d %9d %12.1f %12.1f %7.1fx %11.1f %11.1f %9.2f\n",
			n, len(evs), dbe, lbe, dbe/lbe, hbDense, hbSparse,
			float64(deltaEntries)/float64(len(sample)))
		c.Close()
	}
	if cfg.CaseEvents > 0 {
		for _, cs := range Cases {
			if err := caseDiff(cs, cfg.CaseEvents, cfg.Seed); err != nil {
				return err
			}
		}
		fmt.Fprintf(w, "  differential: dense and sparse stamping produced identical matches, telemetry and coverage on %v\n", Cases)
	}
	fmt.Fprintf(w, "  differential: delta wire streams decoded back to the exact stamped timestamps at every scale\n\n")
	return nil
}
