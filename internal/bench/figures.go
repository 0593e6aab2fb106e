package bench

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"ocep/internal/baseline"
	"ocep/internal/core"
	"ocep/internal/event"
	"ocep/internal/event/eventtest"
	"ocep/internal/lattice"
	"ocep/internal/poet"
	"ocep/internal/stats"
)

// FigureConfig scales a figure reproduction.
type FigureConfig struct {
	// TargetEvents per data point (the paper uses >1e6; default 1e5 so
	// a full run fits a laptop).
	TargetEvents int
	// Seed fixes the workloads.
	Seed int64
	// CycleLen is the deadlock pattern length (default 2).
	CycleLen int
}

func (c FigureConfig) norm() FigureConfig {
	if c.TargetEvents <= 0 {
		c.TargetEvents = 100_000
	}
	if c.CycleLen == 0 {
		// A length-3 cycle reproduces the paper's shape: the deadlock
		// pattern is by far the slowest case (backtracking is
		// exponential in pattern length, Section V-C1).
		c.CycleLen = 3
	}
	return c
}

// traceCounts returns the x-axis of each figure, as in the paper.
func traceCounts(c Case) []int {
	if c == CaseOrdering {
		return []int{50, 100, 500}
	}
	return []int{10, 20, 50}
}

// figureOf maps a case to its figure number in the paper.
func figureOf(c Case) int {
	switch c {
	case CaseDeadlock:
		return 6
	case CaseMsgRace:
		return 7
	case CaseAtomicity:
		return 8
	case CaseOrdering:
		return 9
	default:
		return 0
	}
}

// FigureBoxplots reproduces one of Figures 6-9: per-terminating-event
// execution-time boxplots across trace counts.
func FigureBoxplots(w io.Writer, c Case, cfg FigureConfig) error {
	cfg = cfg.norm()
	fmt.Fprintf(w, "Figure %d: execution time for %s (microseconds per terminating event)\n",
		figureOf(c), c)
	tbl := stats.NewTable("Traces", "Events", "Triggers", "Q1", "Median", "Q3", "TopWhisker", "Max", "Outliers")
	var boxes []stats.Box
	var labels []int
	var staticTbl *stats.Table
	// The paper's static evaluation order scans linearly in the history
	// per trigger on cyclic patterns; its comparison series is capped so
	// the harness stays minutes, not hours.
	staticEvents := cfg.TargetEvents
	if staticEvents > 50_000 {
		staticEvents = 50_000
	}
	if c == CaseDeadlock {
		staticTbl = stats.NewTable("Traces", "Events", "Q1", "Median", "Q3", "TopWhisker", "Max")
	}
	for _, traces := range traceCounts(c) {
		wl, err := Generate(GenConfig{
			Case: c, Traces: traces, TargetEvents: cfg.TargetEvents,
			Seed: cfg.Seed + int64(traces), CycleLen: cfg.CycleLen,
		})
		if err != nil {
			return err
		}
		r, err := wl.Run(ReplayConfig{Options: PaperOptions()})
		if err != nil {
			return err
		}
		box := r.Box()
		boxes = append(boxes, box)
		labels = append(labels, traces)
		tbl.AddRow(traces, r.Events, len(r.TriggerTimes), box.Q1, box.Median, box.Q3, box.TopWhisker, box.Max, box.Outliers)
		if staticTbl != nil {
			// The paper's static evaluation order, for magnitude
			// comparison with its Figure 6.
			swl := wl
			if staticEvents != cfg.TargetEvents {
				swl, err = Generate(GenConfig{
					Case: c, Traces: traces, TargetEvents: staticEvents,
					Seed: cfg.Seed + int64(traces), CycleLen: cfg.CycleLen,
				})
				if err != nil {
					return err
				}
			}
			opts := PaperOptions()
			opts.StaticOrder = true
			rs, err := swl.Run(ReplayConfig{Options: opts})
			if err != nil {
				return err
			}
			sb := rs.Box()
			staticTbl.AddRow(traces, rs.Events, sb.Q1, sb.Median, sb.Q3, sb.TopWhisker, sb.Max)
		}
	}
	fmt.Fprint(w, tbl.String())
	if staticTbl != nil {
		fmt.Fprintln(w, "\nwith the paper's static evaluation order (its Figure 6 regime):")
		fmt.Fprint(w, staticTbl.String())
	}
	// ASCII boxplots on a shared scale (top whiskers).
	scale := 0.0
	for _, b := range boxes {
		if b.TopWhisker > scale {
			scale = b.TopWhisker
		}
	}
	fmt.Fprintf(w, "\nboxplots (scale 0..%.0f us):\n", scale)
	for i, b := range boxes {
		fmt.Fprintf(w, "  %4d traces  [%s]\n", labels[i], b.Render(56, scale))
	}
	fmt.Fprintln(w)
	return nil
}

// Figure10 reproduces the quartile table over all four cases at the
// paper's reference point (the middle trace count of each figure).
func Figure10(w io.Writer, cfg FigureConfig) error {
	cfg = cfg.norm()
	fmt.Fprintln(w, "Figure 10: detailed runtime for test cases (microseconds)")
	tbl := stats.NewTable("Test Case", "Q1", "Med", "Q3", "Top Whisker", "Max")
	for _, c := range Cases {
		traces := traceCounts(c)[1]
		wl, err := Generate(GenConfig{
			Case: c, Traces: traces, TargetEvents: cfg.TargetEvents,
			Seed: cfg.Seed + int64(traces), CycleLen: cfg.CycleLen,
		})
		if err != nil {
			return err
		}
		r, err := wl.Run(ReplayConfig{Options: PaperOptions()})
		if err != nil {
			return err
		}
		b := r.Box()
		tbl.AddRow(string(c), b.Q1, b.Median, b.Q3, b.TopWhisker, b.Max)
	}
	fmt.Fprint(w, tbl.String())
	fmt.Fprintln(w)
	return nil
}

// Figure3 reproduces the representative-subset illustration: the
// process-time diagram of Figure 3, with the matches reported by (a) the
// brute-force all-matches enumeration, (b) an n^2 sliding window, and
// (c) OCEP's per-arrival representative reporting.
func Figure3(w io.Writer) error {
	// The diagram: three traces; class-a events a13 a14 a15 on P1, a21
	// on P2, a33 a34 on P3; b25 on P2; P1's a15 is received by P2
	// before b25.
	c := poet.NewCollector()
	for _, name := range []string{"P1", "P2", "P3"} {
		c.RegisterTrace(name)
	}
	raws := []poet.RawEvent{
		{Trace: "P2", Seq: 1, Kind: event.KindInternal, Type: "a"},          // a21
		{Trace: "P2", Seq: 2, Kind: event.KindInternal, Type: "d"},          // d22
		{Trace: "P1", Seq: 1, Kind: event.KindInternal, Type: "c"},          // c11
		{Trace: "P1", Seq: 2, Kind: event.KindInternal, Type: "d"},          // d12
		{Trace: "P1", Seq: 3, Kind: event.KindInternal, Type: "a"},          // a13
		{Trace: "P1", Seq: 4, Kind: event.KindInternal, Type: "a"},          // a14
		{Trace: "P1", Seq: 5, Kind: event.KindSend, Type: "a", MsgID: 1},    // a15
		{Trace: "P3", Seq: 1, Kind: event.KindInternal, Type: "d"},          // d31
		{Trace: "P3", Seq: 2, Kind: event.KindInternal, Type: "e"},          // e32
		{Trace: "P3", Seq: 3, Kind: event.KindInternal, Type: "a"},          // a33
		{Trace: "P3", Seq: 4, Kind: event.KindInternal, Type: "a"},          // a34
		{Trace: "P2", Seq: 3, Kind: event.KindReceive, Type: "e", MsgID: 1}, // e23
		{Trace: "P2", Seq: 4, Kind: event.KindInternal, Type: "b"},          // b25
	}
	for _, r := range raws {
		if err := c.Report(r); err != nil {
			return err
		}
	}
	pat, err := CompilePattern(`A := [*, a, *]; B := [*, b, *]; pattern := A -> B;`)
	if err != nil {
		return err
	}
	st := c.Store()
	name := func(e *event.Event) string {
		return fmt.Sprintf("a@%s#%d", st.TraceName(e.ID.Trace), e.ID.Index)
	}
	fmt.Fprintln(w, "Figure 3: choosing a representative subset for A -> B")
	fmt.Fprintln(w, "  (three traces; on arrival of b@P2#4)")

	fmt.Fprint(w, "  All:     ")
	for _, m := range baseline.AllMatches(pat, st) {
		fmt.Fprintf(w, "%s ", name(m.Events[0]))
	}
	fmt.Fprintln(w)

	win := baseline.NewWindowMatcher(pat, st, 9) // n^2 events, n=3
	var windowed []core.Match
	for _, e := range c.Ordered() {
		windowed = append(windowed, win.Feed(e)...)
	}
	fmt.Fprint(w, "  Window:  ")
	for _, m := range windowed {
		fmt.Fprintf(w, "%s ", name(m.Events[0]))
	}
	fmt.Fprintln(w)

	m := core.NewMatcherOn(pat, st, core.Options{DisablePruning: true})
	var reported []core.Match
	for _, e := range c.Ordered() {
		got, err := m.Feed(e)
		if err != nil {
			return err
		}
		reported = append(reported, got...)
	}
	fmt.Fprint(w, "  OCEP:    ")
	for _, mm := range reported {
		fmt.Fprintf(w, "%s ", name(mm.Events[0]))
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "  (the window misses a@P2#1: its match spans beyond n^2 events;")
	fmt.Fprintln(w, "   OCEP reports the latest a per trace that precedes b)")
	fmt.Fprintln(w)
	return nil
}

// Completeness reproduces the Section V-D claim: every seeded violation
// is found and nothing false is reported. The detection criterion is
// per case: for the deadlock, atomicity and ordering cases every seeded
// marker event must appear in a reported match; for the race case —
// where every send races and exhaustive enumeration would be
// combinatorial — the representative-subset criterion applies: every
// racing sender trace must be represented in the reported matches.
// Every reported match is additionally re-verified independently.
func Completeness(w io.Writer, cfg FigureConfig) error {
	cfg = cfg.norm()
	target := cfg.TargetEvents
	if target > 50_000 {
		target = 50_000 // exhaustive modes are for modest runs
	}
	fmt.Fprintln(w, "Completeness and soundness (Section V-D)")
	tbl := stats.NewTable("Test Case", "Events", "Seeded", "Detected", "Reported", "Verified", "FalsePositives")
	for _, c := range Cases {
		traces := traceCounts(c)[0]
		wl, err := Generate(GenConfig{
			Case: c, Traces: traces, TargetEvents: target,
			Seed: cfg.Seed + 17, CycleLen: cfg.CycleLen,
			// A higher violation rate than the timing runs' 1% so every
			// case seeds a meaningful number of violations to detect.
			BugProb: 0.05,
		})
		if err != nil {
			return err
		}
		opts := core.Options{ReportAll: true, DisablePruning: true}
		if c == CaseMsgRace {
			opts = core.Options{GuaranteeCoverage: true, DisablePruning: true}
		}
		r, err := wl.Run(ReplayConfig{Options: opts, KeepMatches: true})
		if err != nil {
			return err
		}
		pat, err := CompilePattern(wl.Pattern)
		if err != nil {
			return err
		}
		verified, falsePos := 0, 0
		st := wl.Collector.Store()
		for _, m := range r.Matches {
			if err := core.VerifyMatch(pat, m, st.TraceName); err != nil {
				falsePos++
			} else {
				verified++
			}
		}
		seeded, detected := len(wl.Result.Markers), r.Detected
		if c == CaseMsgRace {
			// Representative criterion: racing senders covered.
			racing := make(map[string]bool)
			for _, mk := range wl.Result.Markers {
				racing[mk.Trace] = true
			}
			covered := make(map[string]bool)
			for _, m := range r.Matches {
				for _, e := range m.Events {
					name := st.TraceName(e.ID.Trace)
					if racing[name] {
						covered[name] = true
					}
				}
			}
			seeded, detected = len(racing), len(covered)
		}
		tbl.AddRow(string(c), r.Events, seeded, detected, len(r.Matches), verified, falsePos)
	}
	fmt.Fprint(w, tbl.String())
	fmt.Fprintln(w)
	return nil
}

// BaselineDeadlock compares OCEP's deadlock detection cost with the
// dependency-graph detector across cycle lengths (Section V-C1 relates
// OCEP's sub-millisecond detection to the 35 s reported for graph-based
// detection of a length-30 cycle).
func BaselineDeadlock(w io.Writer, cfg FigureConfig) error {
	cfg = cfg.norm()
	fmt.Fprintln(w, "Baseline: OCEP vs dependency-graph deadlock detection")
	tbl := stats.NewTable("CycleLen", "Traces", "Events", "OCEP med (us)", "OCEP max (us)", "Graph med (us)", "Graph max (us)", "Graph cycles")
	for _, cycle := range []int{2, 3, 4} {
		traces := 12
		wl, err := Generate(GenConfig{
			Case: CaseDeadlock, Traces: traces, TargetEvents: cfg.TargetEvents,
			Seed: cfg.Seed + int64(cycle), CycleLen: cycle,
		})
		if err != nil {
			return err
		}
		r, err := wl.Run(ReplayConfig{Options: PaperOptions()})
		if err != nil {
			return err
		}
		ocepBox := r.Box()

		st := wl.Collector.Store()
		det := baseline.NewDepGraphDetector(st.NumTraces(), 0)
		var times []time.Duration
		cycles := 0
		for _, e := range wl.Collector.Ordered() {
			t0 := time.Now()
			cyc := det.Feed(st, e)
			if e.Kind == event.KindSend {
				times = append(times, time.Since(t0))
			}
			if cyc != nil {
				cycles++
			}
		}
		graphBox := stats.NewBox(stats.Durations(times))
		tbl.AddRow(cycle, traces, r.Events, ocepBox.Median, ocepBox.Max, graphBox.Median, graphBox.Max, cycles)
	}
	fmt.Fprint(w, tbl.String())
	fmt.Fprintln(w, "\nnote: the graph detector checks on every send and misses cycles broken")
	fmt.Fprintln(w, "by delivery interleaving; the causal pattern is delivery-order-insensitive.")
	fmt.Fprintln(w)
	return nil
}

// BaselineRace compares OCEP with the classical vector-timestamp race
// checker (Section V-C2).
func BaselineRace(w io.Writer, cfg FigureConfig) error {
	cfg = cfg.norm()
	fmt.Fprintln(w, "Baseline: OCEP vs vector-timestamp race checker")
	// The checker compares each receive against the destination's whole
	// receive history — quadratic in the stream. Cap the series so the
	// harness does not spend its budget demonstrating the blow-up.
	target := cfg.TargetEvents
	if target > 50_000 {
		target = 50_000
	}
	tbl := stats.NewTable("Traces", "Events", "OCEP med (us)", "OCEP max (us)", "Checker med (us)", "Checker max (us)", "Checker races")
	for _, traces := range traceCounts(CaseMsgRace) {
		wl, err := Generate(GenConfig{
			Case: CaseMsgRace, Traces: traces, TargetEvents: target,
			Seed: cfg.Seed + int64(traces),
		})
		if err != nil {
			return err
		}
		r, err := wl.Run(ReplayConfig{Options: PaperOptions()})
		if err != nil {
			return err
		}
		st := wl.Collector.Store()
		rc := baseline.NewRaceChecker()
		var times []time.Duration
		for _, e := range wl.Collector.Ordered() {
			t0 := time.Now()
			rc.Feed(st, e)
			if e.Kind == event.KindReceive {
				times = append(times, time.Since(t0))
			}
		}
		rcBox := stats.NewBox(stats.Durations(times))
		ocepBox := r.Box()
		tbl.AddRow(traces, r.Events, ocepBox.Median, ocepBox.Max, rcBox.Median, rcBox.Max, rc.Races)
	}
	fmt.Fprint(w, tbl.String())
	fmt.Fprintln(w)
	return nil
}

// Ablation quantifies the contribution of each design choice. The
// evaluation order and causal domains are stressed on the deadlock
// workload, whose all-concurrent cycle pattern makes the search space
// large; backjumping on a chain pattern over a random
// communication-heavy stream, since the case studies never backjump;
// the duplicate-pruning rule on the ordering workload, whose streams are
// dominated by internal events. Each ablated row differs from "static
// order (paper)" in its own column: Domain p50 for causal domains, Jump
// skips for backjumping.
func Ablation(w io.Writer, cfg FigureConfig) error {
	cfg = cfg.norm()
	search, jumps, err := searchAblations(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Ablation A: search mechanics on the deadlock workload (cycle length 3)")
	fmt.Fprint(w, ablationTable(search).String())
	fmt.Fprintln(w, "\nAblation A2: backjumping on ($a -> $b) && ($b -> $c) over a random stream (5 traces)")
	fmt.Fprint(w, ablationTable(jumps).String())
	fmt.Fprintln(w, "\nAblation B: duplicate pruning on the ordering workload (100 traces)")
	owl, err := Generate(GenConfig{
		Case: CaseOrdering, Traces: 100, TargetEvents: cfg.TargetEvents,
		Seed: cfg.Seed + 99,
	})
	if err != nil {
		return err
	}
	pruneVariants := []struct {
		name string
		opts core.Options
	}{
		{"pruning on (paper)", core.Options{RepresentativeOnly: true}},
		{"pruning off", core.Options{RepresentativeOnly: true, DisablePruning: true}},
	}
	tblB := stats.NewTable("Variant", "Med (us)", "Max (us)", "History entries", "Pruned")
	for _, v := range pruneVariants {
		r, err := owl.Run(ReplayConfig{Options: v.opts})
		if err != nil {
			return err
		}
		b := r.Box()
		tblB.AddRow(v.name, b.Median, b.Max, r.Stats.HistorySize, r.Stats.HistoryPruned)
	}
	fmt.Fprint(w, tblB.String())
	fmt.Fprintln(w)
	return nil
}

// ablationRow is one variant of a search ablation and its replay.
type ablationRow struct {
	name string
	r    *Replay
}

// searchAblations replays the search variants: the evaluation order and
// causal domains on the deadlock workload, backjumping on a chain
// pattern over a random stream.
func searchAblations(cfg FigureConfig) (search, jumps []ablationRow, err error) {
	target := min(cfg.TargetEvents, 50_000) // the chronological variants scan linearly per trigger
	dwl, err := Generate(GenConfig{
		Case: CaseDeadlock, Traces: 12, TargetEvents: target,
		Seed: cfg.Seed + 98, CycleLen: 3,
	})
	if err != nil {
		return nil, nil, err
	}
	static := core.Options{RepresentativeOnly: true, StaticOrder: true}
	noDomains := static
	noDomains.DisableCausalDomains, noDomains.DisableBackjumping = true, true
	for _, v := range []struct {
		name string
		opts core.Options
	}{
		{"full (dynamic order)", core.Options{RepresentativeOnly: true}},
		{"static order (paper)", static},
		{"static, no causal domains", noDomains},
	} {
		r, err := dwl.Run(ReplayConfig{Options: v.opts})
		if err != nil {
			return nil, nil, err
		}
		search = append(search, ablationRow{v.name, r})
	}

	const chain = `A := [*, a, *]; B := [*, b, *]; C := [*, c, *]; A $a; B $b; C $c; pattern := ($a -> $b) && ($b -> $c);`
	st, evs := eventtest.Random(rand.New(rand.NewSource(cfg.Seed+97)), eventtest.RandomConfig{
		Traces: 5, Events: min(target, 5_000), SendProb: 0.25, RecvProb: 0.25, Types: []string{"a", "b", "c", "d"},
	})
	noJumps := static
	noJumps.DisableBackjumping = true
	for _, v := range []struct {
		name string
		opts core.Options
	}{
		{"static order (paper)", static},
		{"static, no backjumping", noJumps},
	} {
		r, err := replay(chain, st, evs, ReplayConfig{Options: v.opts})
		if err != nil {
			return nil, nil, err
		}
		jumps = append(jumps, ablationRow{v.name, r})
	}
	return search, jumps, nil
}

func ablationTable(rows []ablationRow) *stats.Table {
	tbl := stats.NewTable("Variant", "Med (us)", "Q3 (us)", "Max (us)", "Candidates", "Domains", "Domain p50", "Jump skips")
	for _, row := range rows {
		b, s := row.r.Box(), row.r.Stats
		tbl.AddRow(row.name, b.Median, b.Q3, b.Max, s.CandidatesTried, s.DomainsComputed, row.r.DomainSizeP50, s.BackjumpSkips)
	}
	return tbl
}

// WindowOmission quantifies the omission problem of Section IV-B: an
// n^2 sliding window misses matches whose events are farther apart in
// the delivery order than the window, while OCEP's causally bounded
// history keeps finding them. The workload is a long-span alert/ack
// generator: each alert is acknowledged only after a long stretch of
// unrelated traffic.
func WindowOmission(w io.Writer, cfg FigureConfig) error {
	cfg = cfg.norm()
	fmt.Fprintln(w, "Window omission: matches found by an n^2 window vs OCEP on long-span chains")
	tbl := stats.NewTable("Traces", "Events", "Chains", "Oracle", "Window", "OCEP")
	for _, traces := range []int{4, 6, 8} {
		st, ordered, chains, err := longSpanWorkload(traces, 40, 200, cfg.Seed+int64(traces))
		if err != nil {
			return err
		}
		pat, err := CompilePattern(`A := [*, alert, *]; B := [*, ack, *]; pattern := A -> B;`)
		if err != nil {
			return err
		}
		oracle := baseline.AllMatches(pat, st)

		win := baseline.NewWindowMatcher(pat, st, traces*traces)
		var windowed []core.Match
		for _, e := range ordered {
			windowed = append(windowed, win.Feed(e)...)
		}

		m := core.NewMatcherOn(pat, st, core.Options{})
		var reported []core.Match
		for _, e := range ordered {
			got, err := m.Feed(e)
			if err != nil {
				return err
			}
			reported = append(reported, got...)
		}
		tbl.AddRow(traces, st.TotalEvents(), chains, len(oracle), len(windowed), len(reported))
	}
	fmt.Fprint(w, tbl.String())
	fmt.Fprintln(w, "\nnote: every alert -> ack chain spans ~200 deliveries, far beyond the n^2")
	fmt.Fprintln(w, "window; the window reports none of them.")
	fmt.Fprintln(w)
	return nil
}

// longSpanWorkload builds chains of one alert (a send) acknowledged gap
// deliveries later on another trace, interleaved with unrelated internal
// traffic. Returns the store, the delivery order and the chain count.
func longSpanWorkload(traces, chains, gap int, seed int64) (*event.Store, []*event.Event, int, error) {
	c := poet.NewCollector()
	for i := 0; i < traces; i++ {
		c.RegisterTrace(fmt.Sprintf("host%d", i))
	}
	seqs := make([]int, traces)
	report := func(tr int, kind event.Kind, typ string, msgID uint64) error {
		seqs[tr]++
		return c.Report(poet.RawEvent{
			Trace: fmt.Sprintf("host%d", tr), Seq: seqs[tr],
			Kind: kind, Type: typ, MsgID: msgID,
		})
	}
	rnd := seed
	next := func(n int) int { // small deterministic LCG
		rnd = rnd*6364136223846793005 + 1442695040888963407
		v := int(rnd>>33) % n
		if v < 0 {
			v += n
		}
		return v
	}
	var msg uint64
	for ch := 0; ch < chains; ch++ {
		src := next(traces)
		dst := (src + 1 + next(traces-1)) % traces
		msg++
		if err := report(src, event.KindSend, "alert", msg); err != nil {
			return nil, nil, 0, err
		}
		for i := 0; i < gap; i++ {
			tr := next(traces)
			if err := report(tr, event.KindInternal, "noise", 0); err != nil {
				return nil, nil, 0, err
			}
		}
		if err := report(dst, event.KindReceive, "ack", msg); err != nil {
			return nil, nil, 0, err
		}
	}
	return c.Store(), c.Ordered(), chains, nil
}

// LatticeComparison quantifies the paper's motivating contrast (Section
// I): detecting the same atomicity violation by global-predicate
// detection over the lattice of consistent global states explodes with
// scale, while OCEP's per-event pattern matching stays flat. Run on
// deliberately tiny workloads — that is the point.
func LatticeComparison(w io.Writer, cfg FigureConfig) error {
	fmt.Fprintln(w, "Motivation: global-state lattice (possibly-phi) vs OCEP on the atomicity case")
	fmt.Fprintln(w, "(clean runs: showing that no violation exists requires the WHOLE lattice,")
	fmt.Fprintln(w, " while OCEP certifies the same absence in one linear replay)")
	const maxCuts = 2_000_000
	tbl := stats.NewTable("Threads", "Events", "Lattice cuts", "Lattice time", "OCEP time")
	for _, threads := range []int{2, 3, 4, 5} {
		wl, err := Generate(GenConfig{
			Case: CaseAtomicity, Traces: threads, TargetEvents: 60 * threads,
			Seed: cfg.Seed + int64(threads), BugProb: -1, // no violations
		})
		if err != nil {
			return err
		}
		st := wl.Collector.Store()
		pred := lattice.InsideCritical(st, "method_enter", "method_exit")
		t0 := time.Now()
		out, err := lattice.Possibly(st, pred, maxCuts)
		if err != nil {
			return err
		}
		latTime := time.Since(t0)
		if out.Found {
			return fmt.Errorf("bench: lattice found a violation in a clean run at %s", out.Witness)
		}
		r, err := wl.Run(ReplayConfig{NoTiming: true})
		if err != nil {
			return err
		}
		if r.Stats.CompleteMatches != 0 {
			return fmt.Errorf("bench: OCEP found a violation in a clean run")
		}
		cuts := fmt.Sprintf("%d", out.CutsExplored)
		if out.Truncated {
			cuts += "+ (truncated)"
		}
		tbl.AddRow(threads, st.TotalEvents(), cuts,
			latTime.Round(time.Microsecond).String(),
			r.Total.Round(time.Microsecond).String())
	}
	fmt.Fprint(w, tbl.String())
	fmt.Fprintln(w, "\nnote: the lattice grows combinatorially with concurrent traces even at a")
	fmt.Fprintln(w, "few hundred events; OCEP replays the same stream in linear time.")
	fmt.Fprintln(w)
	return nil
}

// Scaling prints the Section V-D observation behind Figure 9: the
// ordering-bug pattern names only the leader and one follower, so the
// matcher effectively isolates the relevant traces and the per-event
// cost stays nearly flat as traces grow.
func Scaling(w io.Writer, cfg FigureConfig) error {
	cfg = cfg.norm()
	fmt.Fprintln(w, "Trace-isolation scaling (Section V-D): ordering bug, cost vs traces")
	tbl := stats.NewTable("Traces", "Median (us)", "Mean (us)", "us per trace")
	for _, traces := range []int{50, 100, 200, 500} {
		wl, err := Generate(GenConfig{
			Case: CaseOrdering, Traces: traces, TargetEvents: cfg.TargetEvents,
			Seed: cfg.Seed + int64(traces),
		})
		if err != nil {
			return err
		}
		r, err := wl.Run(ReplayConfig{Options: PaperOptions()})
		if err != nil {
			return err
		}
		b := r.Box()
		tbl.AddRow(traces, b.Median, b.Mean, b.Median/float64(traces))
	}
	fmt.Fprint(w, tbl.String())
	fmt.Fprintln(w)
	return nil
}
