// Command ocepbench reproduces the evaluation of the OCEP paper: for
// every figure and table in Section V it generates the corresponding
// case-study workload, replays the collected event stream through the
// matcher with per-event timing, and prints the same rows/series the
// paper reports.
//
// Usage:
//
//	ocepbench -all                      # everything
//	ocepbench -fig 6                    # one figure (3, 6, 7, 8, 9, 10)
//	ocepbench -completeness             # Section V-D completeness table
//	ocepbench -baseline                 # graph/race-checker comparisons
//	ocepbench -ablation                 # matcher-variant ablations
//	ocepbench -window                   # sliding-window omission study
//	ocepbench -scaling                  # trace-isolation scaling study
//	ocepbench -governance               # search budgets + bounded-memory soak
//	ocepbench -events 1000000           # events per data point
//
// The cost of the layers around the matcher — delivery queues, the wire,
// the WAL, telemetry, sharding — is measured by the ledger instead
// (`bash benchmark/run.sh`, the stage.* and per-layer rows).
//
// Absolute numbers depend on the host; the shapes (which case is
// slowest, how cost scales with traces, who wins against the baselines)
// are the reproduction target. See EXPERIMENTS.md.
package main

import (
	"flag"
	"fmt"
	"os"

	"ocep/internal/bench"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "ocepbench: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		fig          = flag.Int("fig", 0, "reproduce one figure (3, 6, 7, 8, 9, 10)")
		all          = flag.Bool("all", false, "run every experiment")
		completeness = flag.Bool("completeness", false, "completeness and soundness table")
		baselineCmp  = flag.Bool("baseline", false, "baseline comparisons")
		ablation     = flag.Bool("ablation", false, "matcher-variant ablations")
		window       = flag.Bool("window", false, "sliding-window omission study")
		scaling      = flag.Bool("scaling", false, "trace-isolation scaling study")
		latticeCmp   = flag.Bool("lattice", false, "global-state-lattice vs OCEP motivation study")
		governance   = flag.Bool("governance", false, "resource governance: adversarial-trigger budgets and bounded-memory soak")
		events       = flag.Int("events", 100_000, "target events per data point (paper: >1e6)")
		seed         = flag.Int64("seed", 1, "workload seed")
		cycleLen     = flag.Int("cycle", 3, "deadlock cycle length")
	)
	flag.Parse()

	cfg := bench.FigureConfig{TargetEvents: *events, Seed: *seed, CycleLen: *cycleLen}
	out := os.Stdout
	any := false

	figures := map[int]func() error{
		3:  func() error { return bench.Figure3(out) },
		6:  func() error { return bench.FigureBoxplots(out, bench.CaseDeadlock, cfg) },
		7:  func() error { return bench.FigureBoxplots(out, bench.CaseMsgRace, cfg) },
		8:  func() error { return bench.FigureBoxplots(out, bench.CaseAtomicity, cfg) },
		9:  func() error { return bench.FigureBoxplots(out, bench.CaseOrdering, cfg) },
		10: func() error { return bench.Figure10(out, cfg) },
	}

	if *fig != 0 {
		f, ok := figures[*fig]
		if !ok {
			return fmt.Errorf("unknown figure %d (have 3, 6, 7, 8, 9, 10)", *fig)
		}
		any = true
		if err := f(); err != nil {
			return err
		}
	}
	if *all {
		any = true
		for _, n := range []int{3, 6, 7, 8, 9, 10} {
			if err := figures[n](); err != nil {
				return err
			}
		}
		if err := bench.Completeness(out, cfg); err != nil {
			return err
		}
		if err := bench.BaselineDeadlock(out, cfg); err != nil {
			return err
		}
		if err := bench.BaselineRace(out, cfg); err != nil {
			return err
		}
		if err := bench.Ablation(out, cfg); err != nil {
			return err
		}
		if err := bench.WindowOmission(out, cfg); err != nil {
			return err
		}
		if err := bench.Scaling(out, cfg); err != nil {
			return err
		}
		if err := bench.LatticeComparison(out, cfg); err != nil {
			return err
		}
		if err := bench.Governance(out, cfg); err != nil {
			return err
		}
	}
	if *completeness && !*all {
		any = true
		if err := bench.Completeness(out, cfg); err != nil {
			return err
		}
	}
	if *baselineCmp && !*all {
		any = true
		if err := bench.BaselineDeadlock(out, cfg); err != nil {
			return err
		}
		if err := bench.BaselineRace(out, cfg); err != nil {
			return err
		}
	}
	if *ablation && !*all {
		any = true
		if err := bench.Ablation(out, cfg); err != nil {
			return err
		}
	}
	if *window && !*all {
		any = true
		if err := bench.WindowOmission(out, cfg); err != nil {
			return err
		}
	}
	if *scaling && !*all {
		any = true
		if err := bench.Scaling(out, cfg); err != nil {
			return err
		}
	}
	if *latticeCmp && !*all {
		any = true
		if err := bench.LatticeComparison(out, cfg); err != nil {
			return err
		}
	}
	if *governance && !*all {
		any = true
		if err := bench.Governance(out, cfg); err != nil {
			return err
		}
	}
	if !any {
		flag.Usage()
		return fmt.Errorf("nothing to do: pass -all, -fig N, or an experiment flag")
	}
	return nil
}
