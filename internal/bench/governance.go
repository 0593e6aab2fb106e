package bench

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"ocep"
	"ocep/internal/core"
	"ocep/internal/event"
	"ocep/internal/poet"
	"ocep/internal/telemetry"
	"ocep/internal/vclock"
)

// This file implements the resource-governance experiment behind
// `ocepbench -governance`. It answers two questions the paper's
// throughput figures cannot: what happens when a single trigger is
// adversarially expensive, and what happens to memory when the stream
// never ends.
//
// Phase 1 (search budgets) builds a stream whose one trigger forces a
// quadratic candidate search with no complete match: n sends of type
// "a" with pairwise-distinct texts against a pattern whose two "a"
// leaves must agree on a text variable. The seed matcher stalls on that
// single event for longer than the harness cutoff; the governed matcher
// (-max-steps/-deadline) aborts the trigger cleanly, keeps the stream
// consistent, and surfaces the abort in the metrics registry.
//
// Phase 2 (bounded memory) replays a long send/receive stream twice —
// unbounded and under a per-(leaf,trace) history cap — generating
// events incrementally so retained heap reflects only what the matcher
// and store keep. Coverage-aware eviction plus store compaction must
// hold the governed run's heap flat without changing the match count or
// the coverage set.

// governancePattern binds two "a" leaves through a shared text variable
// via event variables (so each class contributes exactly one leaf and
// the final "b" is the only trigger).
const governancePattern = `
	A := [*, a, $v];
	D := [*, a, $v];
	T := [*, b, *];
	A $a; D $d; T $t;
	pattern := ($a -> $t) && ($d -> $t);
`

// soakPattern is a cheap always-matching pattern for the memory phase.
const soakPattern = `A := [*, a, *]; B := [*, b, *]; pattern := A -> B;`

// governanceConfig sizes the experiment; tests shrink it.
type governanceConfig struct {
	// PerTrace is the adversarial send count per sender trace (4
	// senders), so the trigger's candidate space is (4*PerTrace)^2.
	PerTrace int
	// SeedCutoff bounds the seed probe: the probe runs with only a
	// trigger deadline of this value standing in for the watchdog the
	// seed lacks, so "aborted" means the ungoverned search exceeds it.
	SeedCutoff time.Duration
	// MaxSteps and Deadline are the governed run's budgets.
	MaxSteps int
	Deadline time.Duration
	// SoakEvents and HistoryCap size the bounded-memory phase.
	SoakEvents int
	HistoryCap int
}

// Governance runs the experiment at paper scale. It is the entry point
// behind `ocepbench -governance`.
func Governance(w io.Writer, cfg FigureConfig) error {
	cfg = cfg.norm()
	return governance(w, governanceConfig{
		PerTrace:   6000,
		SeedCutoff: 12 * time.Second,
		MaxSteps:   200_000,
		Deadline:   250 * time.Millisecond,
		SoakEvents: cfg.TargetEvents,
		HistoryCap: 256,
	})
}

// adversarialRaws scripts the stall workload: PerTrace sends of type
// "a" with distinct texts on each of 4 traces, every one received by
// trace t0, then a single internal "b" on t0 that happens after all of
// them and is the only trigger.
func adversarialRaws(perTrace int) []poet.RawEvent {
	raws := make([]poet.RawEvent, 0, 8*perTrace+1)
	seqs := make(map[string]int)
	next := func(tr string) int {
		seqs[tr]++
		return seqs[tr]
	}
	var msg uint64
	for w := 0; w < perTrace; w++ {
		for tr := 1; tr <= 4; tr++ {
			name := fmt.Sprintf("s%d", tr)
			msg++
			raws = append(raws, poet.RawEvent{
				Trace: name, Seq: next(name), Kind: event.KindSend,
				Type: "a", Text: fmt.Sprintf("v%d.%d", tr, w), MsgID: msg,
			})
			raws = append(raws, poet.RawEvent{
				Trace: "t0", Seq: next("t0"), Kind: event.KindReceive,
				Type: "r", MsgID: msg,
			})
		}
	}
	raws = append(raws, poet.RawEvent{Trace: "t0", Seq: next("t0"), Kind: event.KindInternal, Type: "b"})
	return raws
}

// govReplay is one timed end-to-end replay (collector -> monitor).
type govReplay struct {
	total    time.Duration
	maxEvent time.Duration
	matches  int
	stats    ocep.MatcherStats
}

// replayGoverned feeds raws through a fresh collector with one
// synchronous monitor and records the worst single Report latency —
// with sync delivery that includes the full matching cost of the event.
func replayGoverned(raws []poet.RawEvent, reg *telemetry.Registry, opts ...ocep.Option) (govReplay, error) {
	var r govReplay
	c := ocep.NewCollector()
	opts = append(opts, ocep.WithMatchHandler(func(ocep.Match) { r.matches++ }))
	if reg != nil {
		opts = append(opts, ocep.WithMetrics(reg))
	}
	m, err := ocep.NewMonitor(governancePattern, opts...)
	if err != nil {
		return r, err
	}
	m.Attach(c)
	start := time.Now()
	for _, raw := range raws {
		t0 := time.Now()
		if err := c.Report(raw); err != nil {
			return r, fmt.Errorf("bench: governance replay: %w", err)
		}
		if d := time.Since(t0); d > r.maxEvent {
			r.maxEvent = d
		}
	}
	r.total = time.Since(start)
	if err := m.Err(); err != nil {
		return r, fmt.Errorf("bench: governance monitor: %w", err)
	}
	r.stats = m.Stats()
	m.Detach()
	c.Close()
	return r, nil
}

// soakRun is one streaming replay of the memory-phase workload.
type soakRun struct {
	elapsed  time.Duration
	matches  int
	stats    core.Stats
	coverage string
	// heapStart/heapPeak/heapEnd are GC-settled HeapAlloc samples taken
	// before, during (8 checkpoints), and after the replay.
	heapStart, heapPeak, heapEnd uint64
	retained, total              int
}

// heapSample forces a GC and returns the settled live-heap size.
func heapSample() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// coverageKey canonicalizes a coverage set for equality checks.
func coverageKey(pairs []core.CoveredPair) string {
	var b strings.Builder
	for _, p := range pairs {
		fmt.Fprintf(&b, "(%d,%d)", p.Leaf, p.Trace)
	}
	return b.String()
}

// governanceSoakRun streams events/2 send->receive waves through a
// fresh matcher that owns its store (so history eviction can compact
// the store prefix), generating each event on the fly — nothing
// outside the matcher retains them, so settled heap reflects exactly
// what governance keeps.
func governanceSoakRun(events, cap int) (soakRun, error) {
	var r soakRun
	pat, err := CompilePattern(soakPattern)
	if err != nil {
		return r, err
	}
	var stamps [2]vclock.Stamp
	m := core.NewMatcher(pat, core.Options{MaxHistoryPerTrace: cap})
	m.RegisterTrace("p0")
	m.RegisterTrace("p1")
	feed := func(e *event.Event) error {
		matches, err := m.Feed(e)
		if err != nil {
			return err
		}
		r.matches += len(matches)
		return nil
	}
	r.heapStart = heapSample()
	r.heapPeak = r.heapStart
	waves := events / 2
	checkpoint := waves / 8
	if checkpoint < 1 {
		checkpoint = 1
	}
	start := time.Now()
	for w := 0; w < waves; w++ {
		stamps[0] = stamps[0].Tick(0)
		send := &event.Event{
			ID:   event.ID{Trace: 0, Index: stamps[0].Get(0)},
			Kind: event.KindSend, Type: "a", VC: stamps[0],
		}
		if err := feed(send); err != nil {
			return r, fmt.Errorf("bench: governance soak: %w", err)
		}
		stamps[1] = stamps[1].Join(send.VC, 1, nil)
		recv := &event.Event{
			ID:   event.ID{Trace: 1, Index: stamps[1].Get(1)},
			Kind: event.KindReceive, Type: "b", VC: stamps[1],
			Partner: event.RefTo(send.ID),
		}
		send.Partner = event.RefTo(recv.ID)
		if err := feed(recv); err != nil {
			return r, fmt.Errorf("bench: governance soak: %w", err)
		}
		if (w+1)%checkpoint == 0 {
			if h := heapSample(); h > r.heapPeak {
				r.heapPeak = h
			}
		}
	}
	r.elapsed = time.Since(start)
	r.heapEnd = heapSample()
	if r.heapEnd > r.heapPeak {
		r.heapPeak = r.heapEnd
	}
	r.stats = m.Stats()
	r.coverage = coverageKey(m.Coverage())
	r.total = 2 * waves
	r.retained = r.total - r.stats.StoreCompacted
	return r, nil
}

func mb(b uint64) float64 { return float64(b) / (1 << 20) }

// governance runs both phases at the given scale.
func governance(w io.Writer, g governanceConfig) error {
	sends := 4 * g.PerTrace
	fmt.Fprintf(w, "Resource governance, phase 1: search budgets on an adversarial trigger\n")
	fmt.Fprintf(w, "  workload: %d distinct-text sends, one trigger, ~%.1fM candidate pairs, no complete match\n",
		sends, float64(sends)*float64(sends)/1e6)
	raws := adversarialRaws(g.PerTrace)

	probe, err := replayGoverned(raws, nil, ocep.WithTriggerDeadline(g.SeedCutoff))
	if err != nil {
		return err
	}
	if probe.stats.TriggersAborted > 0 {
		fmt.Fprintf(w, "  seed probe:  trigger still searching at the %v harness cutoff (max per-event time %v):\n"+
			"               the ungoverned matcher stalls >%v on this single event\n",
			g.SeedCutoff, probe.maxEvent.Round(time.Millisecond), g.SeedCutoff)
	} else {
		fmt.Fprintf(w, "  seed probe:  trigger completed in %v (below the %v cutoff at this scale)\n",
			probe.maxEvent.Round(time.Millisecond), g.SeedCutoff)
	}

	reg := telemetry.NewRegistry()
	gov, err := replayGoverned(raws, reg,
		ocep.WithMaxTriggerSteps(g.MaxSteps), ocep.WithTriggerDeadline(g.Deadline))
	if err != nil {
		return err
	}
	if gov.matches != probe.matches {
		return fmt.Errorf("bench: governance differential failed: governed reported %d matches, probe %d",
			gov.matches, probe.matches)
	}
	if gov.stats.EventsSeen != len(raws) {
		return fmt.Errorf("bench: governed run consumed %d of %d events", gov.stats.EventsSeen, len(raws))
	}
	fmt.Fprintf(w, "  governed:    max-steps=%d deadline=%v: whole replay %v, max per-event %v\n",
		g.MaxSteps, g.Deadline, gov.total.Round(time.Millisecond), gov.maxEvent.Round(time.Millisecond))
	fmt.Fprintf(w, "               triggers aborted %d, matches invented %d, all %d events still joined the histories\n",
		gov.stats.TriggersAborted, gov.matches, gov.stats.EventsSeen)
	if gov.maxEvent > 0 {
		fmt.Fprintf(w, "  per-event latency bound: %.0fx below the seed cutoff\n",
			g.SeedCutoff.Seconds()/gov.maxEvent.Seconds())
	}
	fmt.Fprintf(w, "  governance counters as scraped from /metrics:\n")
	var promText bytes.Buffer
	if err := reg.WritePrometheus(&promText); err != nil {
		return err
	}
	for _, line := range strings.Split(promText.String(), "\n") {
		if strings.HasPrefix(line, "ocep_monitor_triggers_aborted_total") ||
			strings.HasPrefix(line, "ocep_monitor_history_evicted_total") {
			fmt.Fprintf(w, "    %s\n", line)
		}
	}

	fmt.Fprintf(w, "Resource governance, phase 2: bounded-memory soak (%d events, history cap %d)\n",
		g.SoakEvents, g.HistoryCap)
	free, err := governanceSoakRun(g.SoakEvents, 0)
	if err != nil {
		return err
	}
	capped, err := governanceSoakRun(g.SoakEvents, g.HistoryCap)
	if err != nil {
		return err
	}
	if capped.matches != free.matches {
		return fmt.Errorf("bench: soak differential failed: capped reported %d matches, unbounded %d",
			capped.matches, free.matches)
	}
	if capped.coverage != free.coverage {
		return fmt.Errorf("bench: soak coverage diverged under eviction: %s vs %s", capped.coverage, free.coverage)
	}
	if capped.stats.HistoryEvicted == 0 {
		return fmt.Errorf("bench: soak cap %d never evicted over %d events", g.HistoryCap, g.SoakEvents)
	}
	for _, row := range []struct {
		name string
		r    soakRun
	}{{"unbounded", free}, {fmt.Sprintf("cap %d", g.HistoryCap), capped}} {
		fmt.Fprintf(w, "  %-10s heap %.1f -> peak %.1f -> end %.1f MB, history size %d, store retains %d/%d events, %v\n",
			row.name, mb(row.r.heapStart), mb(row.r.heapPeak), mb(row.r.heapEnd),
			row.r.stats.HistorySize, row.r.retained, row.r.total, row.r.elapsed.Round(time.Millisecond))
	}
	fmt.Fprintf(w, "  both runs: %d matches, identical coverage; capped run evicted %d history entries and compacted %d store events\n\n",
		free.matches, capped.stats.HistoryEvicted, capped.stats.StoreCompacted)
	return nil
}
