// Package bench implements the paper's evaluation harness (Section V):
// it generates the four case-study workloads at a configurable scale,
// replays the collected event streams through the OCEP matcher with
// per-event timing, and produces the statistics behind Figures 3 and
// 6-10, the completeness experiment, the baseline comparisons, and the
// ablation studies. Both cmd/ocepbench and the top-level Go benchmarks
// drive it.
package bench

import (
	"fmt"
	"time"

	"ocep/internal/core"
	"ocep/internal/event"
	"ocep/internal/pattern"
	"ocep/internal/poet"
	"ocep/internal/stats"
	"ocep/internal/telemetry"
	"ocep/internal/workload"
)

// Case names one evaluation case study.
type Case string

// The four case studies of Section V-C.
const (
	CaseDeadlock  Case = "deadlock"
	CaseMsgRace   Case = "races"
	CaseAtomicity Case = "atomicity"
	CaseOrdering  Case = "ordering"
)

// Cases lists the case studies in paper order.
var Cases = []Case{CaseDeadlock, CaseMsgRace, CaseAtomicity, CaseOrdering}

// Workload is a generated, collected computation ready for replay.
type Workload struct {
	Case      Case
	Traces    int
	Collector *poet.Collector
	Result    workload.Result
	Pattern   string
}

// GenConfig sizes a workload.
type GenConfig struct {
	// Case selects the case study.
	Case Case
	// Traces is the figure's x-axis value: process count for deadlock
	// and races, thread count for atomicity (the semaphore adds one
	// trace), node count for the ordering case.
	Traces int
	// TargetEvents approximates the total event count (the paper runs
	// each case past one million events).
	TargetEvents int
	// Seed fixes the run.
	Seed int64
	// CycleLen is the deadlock cycle length (default 2).
	CycleLen int
	// BugProb overrides the violation probability (default 0.01, the
	// paper's 1%). Pass a negative value for a violation-free run.
	BugProb float64
}

// Generate runs the case study's simulated application against a fresh
// collector until roughly TargetEvents events have been collected.
func Generate(cfg GenConfig) (*Workload, error) {
	if cfg.TargetEvents <= 0 {
		cfg.TargetEvents = 100_000
	}
	if cfg.BugProb == 0 {
		cfg.BugProb = 0.01
	}
	if cfg.CycleLen == 0 {
		cfg.CycleLen = 2
	}
	c := poet.NewCollector()
	w := &Workload{Case: cfg.Case, Traces: cfg.Traces, Collector: c}
	var err error
	switch cfg.Case {
	case CaseDeadlock:
		ranks := cfg.Traces - cfg.Traces%cfg.CycleLen
		if ranks < cfg.CycleLen {
			ranks = cfg.CycleLen
		}
		rounds := cfg.TargetEvents / (3 * ranks)
		if rounds < 1 {
			rounds = 1
		}
		w.Pattern = workload.DeadlockPattern(cfg.CycleLen)
		w.Result, err = workload.GenDeadlock(workload.DeadlockConfig{
			Ranks: ranks, CycleLen: cfg.CycleLen, Rounds: rounds,
			BugProb: cfg.BugProb, Seed: cfg.Seed, Sink: c,
		})
	case CaseMsgRace:
		ranks := cfg.Traces
		if ranks < 3 {
			ranks = 3
		}
		waves := cfg.TargetEvents / (2 * (ranks - 1))
		if waves < 1 {
			waves = 1
		}
		w.Pattern = workload.MsgRacePattern()
		w.Result, err = workload.GenMsgRace(workload.MsgRaceConfig{
			Ranks: ranks, Waves: waves, Sink: c,
		})
	case CaseAtomicity:
		threads := cfg.Traces
		if threads < 2 {
			threads = 2
		}
		iters := cfg.TargetEvents / (8 * threads)
		if iters < 1 {
			iters = 1
		}
		w.Pattern = workload.AtomicityPattern()
		w.Result, err = workload.GenAtomicity(workload.AtomicityConfig{
			Threads: threads, Iterations: iters,
			BugProb: cfg.BugProb, Seed: cfg.Seed, Sink: c,
		})
	case CaseOrdering:
		followers := cfg.Traces - 1
		if followers < 1 {
			followers = 1
		}
		perSession := (cfg.TargetEvents/followers - 7) / 2
		if perSession < 0 {
			perSession = 0
		}
		w.Pattern = workload.OrderingPattern()
		w.Result, err = workload.GenReplication(workload.ReplicationConfig{
			Followers: followers, UpdatesPerSession: perSession,
			BugProb: cfg.BugProb, Seed: cfg.Seed, Sink: c,
		})
	default:
		return nil, fmt.Errorf("bench: unknown case %q", cfg.Case)
	}
	if err != nil {
		return nil, fmt.Errorf("bench: generating %s: %w", cfg.Case, err)
	}
	if !c.Drained() {
		return nil, fmt.Errorf("bench: %s left %d undelivered events", cfg.Case, c.Pending())
	}
	return w, nil
}

// PaperOptions returns the matcher configuration matching the paper's
// measured regime: Algorithm 1's per-trace enumeration with
// updateSubset-style reporting (a match is reported when it updates the
// representative subset; redundant completions are counted, not
// assembled). All timing experiments use it.
func PaperOptions() core.Options {
	return core.Options{RepresentativeOnly: true}
}

// Replay is the result of one timed replay of a workload.
type Replay struct {
	// Events is the number of events fed.
	Events int
	// TriggerTimes holds the per-event matching time of the events that
	// started a search (the paper's boxplot samples, in wall-clock).
	TriggerTimes []time.Duration
	// Total is the whole replay's matching time.
	Total time.Duration
	// Matches are the reported matches (nil unless KeepMatches).
	Matches []core.Match
	// Detected counts seeded markers contained in reported matches
	// (meaningful with ReportAll).
	Detected int
	// Stats are the matcher's final counters.
	Stats core.Stats
	// Coverage is the matcher's final representative-subset footprint.
	Coverage []core.CoveredPair
	// DomainSizeP50 is the median size of a computed candidate domain,
	// as ocep_monitor_domain_size buckets it.
	DomainSizeP50 int64
}

// ReplayConfig controls a timed replay.
type ReplayConfig struct {
	// Options configures the matcher (zero = the paper's mode).
	Options core.Options
	// KeepMatches retains the reported matches in the result.
	KeepMatches bool
	// NoTiming skips the per-event clock reads (for memory-focused runs).
	NoTiming bool
}

// Run replays the workload's delivery stream through a fresh matcher.
func (w *Workload) Run(cfg ReplayConfig) (*Replay, error) {
	r, err := replay(w.Pattern, w.Collector.Store(), w.Collector.Ordered(), cfg)
	if err == nil && cfg.KeepMatches {
		r.Detected = countDetected(w, r.Matches)
	}
	return r, err
}

// replay feeds ordered, the delivery stream of st, through a fresh
// matcher for the pattern src.
func replay(src string, st *event.Store, ordered []*event.Event, cfg ReplayConfig) (*Replay, error) {
	pat, err := CompilePattern(src)
	if err != nil {
		return nil, err
	}
	m := core.NewMatcherOn(pat, st, cfg.Options)
	sizes := new(telemetry.Histogram)
	m.SetDomainHistogram(sizes)
	r := &Replay{}
	prevTriggers := 0
	start := time.Now()
	for _, e := range ordered {
		var t0 time.Time
		if !cfg.NoTiming {
			t0 = time.Now()
		}
		matches, err := m.Feed(e)
		if err != nil {
			return nil, fmt.Errorf("bench: replay: %w", err)
		}
		if !cfg.NoTiming {
			elapsed := time.Since(t0)
			if s := m.Stats(); s.Triggers > prevTriggers {
				r.TriggerTimes = append(r.TriggerTimes, elapsed)
				prevTriggers = s.Triggers
			}
		}
		if cfg.KeepMatches && len(matches) > 0 {
			r.Matches = append(r.Matches, matches...)
		}
	}
	r.Total = time.Since(start)
	r.Events = len(ordered)
	r.Stats = m.Stats()
	r.Coverage = m.Coverage()
	r.DomainSizeP50 = sizes.Quantile(0.5)
	return r, nil
}

// countDetected counts the seeded markers contained in the matches.
func countDetected(w *Workload, matches []core.Match) int {
	st := w.Collector.Store()
	matched := make(map[event.ID]bool)
	for _, m := range matches {
		for _, e := range m.Events {
			matched[e.ID] = true
		}
	}
	detected := 0
	for _, mk := range w.Result.Markers {
		tid, ok := st.TraceByName(mk.Trace)
		if !ok {
			continue
		}
		if matched[event.ID{Trace: tid, Index: mk.Seq}] {
			detected++
		}
	}
	return detected
}

// Box summarizes the trigger times in microseconds, as the paper's
// figures do.
func (r *Replay) Box() stats.Box {
	return stats.NewBox(stats.Durations(r.TriggerTimes))
}

// CompilePattern parses and compiles a pattern source.
func CompilePattern(src string) (*pattern.Compiled, error) {
	f, err := pattern.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("bench: parsing pattern: %w", err)
	}
	pat, err := pattern.Compile(f)
	if err != nil {
		return nil, fmt.Errorf("bench: compiling pattern: %w", err)
	}
	return pat, nil
}
