package main

import (
	"fmt"
	"io"
	"time"
)

// metric is one named measurement of a run.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Samples is how many trials, windows or calls the value summarizes
	// (their median, or for events_per_s and cpu_us_per_event the best
	// trial); Q1 and Q3 are their quartiles.
	Samples int     `json:"samples,omitempty"`
	Q1      float64 `json:"q1,omitempty"`
	Q3      float64 `json:"q3,omitempty"`
	// Trials are the samples themselves, in the order measured.
	Trials []float64 `json:"trials,omitempty"`
}

// runResult is one run of one workload: what the driver reads off the
// last line of output, plus what the results file keeps.
type runResult struct {
	Workload    string   `json:"workload"`
	Seed        int64    `json:"seed"`
	Trace       bool     `json:"trace"`
	Seconds     float64  `json:"seconds"`
	InputSHA256 string   `json:"input_sha256"`
	InputEvents int      `json:"input_events"`
	Correct     bool     `json:"correct"`
	Attempted   int      `json:"attempted"`
	Failed      int      `json:"failed"`
	Flags       []string `json:"flags,omitempty"`
	// Metrics are the run's contract metrics: the end-to-end set of an
	// untraced run, the per-layer set of a traced one.
	Metrics map[string]metric `json:"metrics"`
	// Info are measurements an untraced run takes that are not gated:
	// the open loop's latency percentiles and generator lag.
	Info map[string]metric `json:"info,omitempty"`
}

// of summarizes trial samples into a metric: the median, with quartiles.
func of(unit string, samples []float64) metric {
	q1, q3 := quartiles(samples)
	return metric{Value: median(samples), Unit: unit, Samples: len(samples), Q1: q1, Q3: q3, Trials: samples}
}

// bestOf summarizes closed-loop trial samples into a metric: the best
// trial, with the trials' quartiles. A shared host's interference only
// ever slows a trial down, so the fastest trial is the closest the run
// came to the undisturbed system; measured over ten runs per workload
// it spread half as wide as the trials' median.
func bestOf(unit string, samples []float64, higher bool) metric {
	m := of(unit, samples)
	for _, v := range samples {
		if (higher && v > m.Value) || (!higher && v < m.Value) {
			m.Value = v
		}
	}
	return m
}

func one(unit string, v float64) metric { return metric{Value: v, Unit: unit, Samples: 1} }

// setupRepeats is how many times a run performs set-up; setup_s is the
// median.
const setupRepeats = 3

// setUp is everything a run does before it can measure: generate the
// input, compute the reference (which compiles the pattern), and start
// a first stack.
func setUp(w *workload, seed int64, dir string) (*Input, *reference, error) {
	in := w.Generate(seed)
	ref, err := computeReference(in, false)
	if err != nil {
		return nil, nil, err
	}
	st, err := newStack(w.Kind, in, stackOpts{dir: dir})
	if err != nil {
		return nil, nil, fmt.Errorf("benchmark: starting first stack: %w", err)
	}
	st.close()
	return in, ref, nil
}

// timedSetUp repeats set-up and returns the last input with the
// per-repeat times.
func timedSetUp(w *workload, seed int64, dir string) (*Input, *reference, []float64, error) {
	var in *Input
	var ref *reference
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		var err error
		if in, ref, err = setUp(w, seed, dir); err != nil {
			return nil, nil, nil, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return in, ref, times, nil
}

// account books a trial against the run's totals and reports whether
// its measurements may be used.
func (r *runResult) account(res trialResult, err error, what string, log io.Writer) bool {
	r.Attempted += res.events
	r.Failed += res.failed
	if err == nil {
		err = res.sound
	}
	if err != nil {
		r.Correct = false
		fmt.Fprintf(log, "  %s FAILED: %v\n", what, err)
		return false
	}
	return true
}

// runEndToEnd is the untraced run of one workload: set-up, one warm-up
// trial, then cycles of three closed-loop trials and one open-loop
// trial, each on a fresh stack, until seconds have passed.
func runEndToEnd(w *workload, seed int64, seconds float64, dir string, log io.Writer) (*runResult, error) {
	in, ref, setups, err := timedSetUp(w, seed, dir)
	if err != nil {
		return nil, err
	}
	r := &runResult{
		Workload: w.Name, Seed: seed, Seconds: seconds, Correct: true,
		InputSHA256: in.SHA256(), InputEvents: len(in.Events), Metrics: map[string]metric{},
	}
	fmt.Fprintf(log, "%s: seed %d, %d events, %d traces, sha256 %s\n", w.Name, seed, len(in.Events), len(in.pos), r.InputSHA256)
	fmt.Fprintf(log, "  reference: %d matches reported, %d (class, trace) pairs covered\n", ref.stats.Reported, len(ref.coverage))

	opts := stackOpts{dir: dir}
	closed := trialMode{flush: true, heap: true, recover: true, opts: opts}
	open := closed
	open.rate, open.heap, open.recover = w.Rate, false, false

	begin := time.Now()
	// The warm-up trial pays for page faults, heap growth and lazy
	// initialization; its numbers are discarded, its correctness is not.
	warm := closed
	warm.heap, warm.recover = false, false
	res, err := runTrial(w.Kind, in, ref, warm)
	r.account(res, err, "warm-up trial", log)

	var evps, cpuUs, retained, p50, p99, lag []float64
	for cycle := 0; ; cycle++ {
		cycleStart := time.Now()
		// Three closed-loop trials to one open-loop trial: the gated
		// metrics are the closed loop's, and the open loop, at 40 % of the
		// closed loop's rate, is the longer trial.
		for k := 0; k < 3; k++ {
			m := closed
			// One recovery per run proves the log; more would buy no
			// correctness and cost trials.
			m.recover = cycle == 0 && k == 0
			res, err := runTrial(w.Kind, in, ref, m)
			if r.account(res, err, fmt.Sprintf("closed trial %d.%d", cycle, k), log) {
				n := float64(res.events)
				evps = append(evps, n/res.wall.Seconds())
				cpuUs = append(cpuUs, float64(res.cpu.Microseconds())/n)
				retained = append(retained, float64(res.retained)/n)
			}
		}
		res, err := runTrial(w.Kind, in, ref, open)
		if r.account(res, err, fmt.Sprintf("open trial %d", cycle), log) {
			p50 = append(p50, res.winP50...)
			p99 = append(p99, res.winP99...)
			lag = append(lag, res.genLagP99)
			if res.unsustainable {
				r.Flags = append(r.Flags, fmt.Sprintf("open trial %d unsustainable at %.0f ev/s", cycle, w.Rate))
			}
		}
		// Stop when another cycle would overrun the measuring time.
		if elapsed := time.Since(begin); cycle >= 1 && elapsed+time.Since(cycleStart) > time.Duration(seconds*float64(time.Second)) {
			break
		}
	}
	if len(evps) == 0 || len(p50) == 0 {
		return r, fmt.Errorf("benchmark: %s: no trial completed", w.Name)
	}
	r.Metrics["setup_s"] = of("s", setups)
	r.Metrics["events_per_s"] = bestOf("ev/s", evps, true)
	r.Metrics["cpu_us_per_event"] = bestOf("us", cpuUs, false)
	r.Metrics["retained_bytes_per_event"] = of("B", retained)
	r.Info = map[string]metric{
		"detect_latency_ms_p50": of("ms", p50),
		"detect_latency_ms_p99": of("ms", p99),
		"gen_lag_ms_p99":        of("ms", lag),
	}
	fmt.Fprintf(log, "  open loop at %.0f ev/s: %d windows of %d trials\n", w.Rate, len(p50), len(lag))
	return r, nil
}
