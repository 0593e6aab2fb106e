// Command benchmark is the repository's performance ledger: four
// workloads driven through the real event path, end-to-end metrics with
// a soundness check on every trial, and — with --trace 1 — a per-layer
// run with spans and a cumulative stage ladder. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "all", "workload to run, or all")
		seed    = fs.Int64("seed", 1, "input seed; with -runs n the runs use seed, seed+1, …")
		seconds = fs.Float64("seconds", runSeconds, "measuring time per run")
		trace   = fs.String("trace", "0", "0: end-to-end metrics; 1: per-layer metrics, spans and stage ladder; both: one run of each")
		runs    = fs.Int("runs", 1, "runs per workload")
		out     = fs.String("out", "benchmark/out", "directory for results.json, span files and scratch data")
		compare = fs.Bool("compare", false, "compare two results files: -compare old.json new.json")
		spec    = fs.Bool("spec", false, "print BENCHMARK.json as this package's tables define it")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *spec {
		return printSpec()
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare old.json new.json")
			return 2
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	var selected []*workload
	if *name == "all" {
		selected = workloads
	} else if w := findWorkload(*name); w != nil {
		selected = []*workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}
	var traced []bool
	switch *trace {
	case "0":
		traced = []bool{false}
	case "1":
		traced = []bool{true}
	case "both":
		traced = []bool{false, true}
	default:
		fmt.Fprintf(os.Stderr, "benchmark: -trace wants 0, 1 or both, not %q\n", *trace)
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	path := filepath.Join(*out, "results.json")
	file := resultsFile{Schema: resultsSchema, Host: hostInfo()}
	if len(selected)**runs*len(traced) > 1 {
		// A set of runs is one fresh process per run, which is how the
		// acceptance procedure runs the benchmark: a run must not inherit
		// the heap its predecessors grew.
		for _, w := range selected {
			for i := 0; i < *runs; i++ {
				for _, tr := range traced {
					flag := "0"
					if tr {
						flag = "1"
					}
					cmd := exec.Command(os.Args[0], "--workload", w.Name, "--seed", fmt.Sprint(*seed+int64(i)),
						"--seconds", fmt.Sprint(*seconds), "--trace", flag, "--out", *out)
					cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
					if err := cmd.Run(); err != nil {
						fmt.Fprintf(os.Stderr, "benchmark: run of %s, seed %d: %v\n", w.Name, *seed+int64(i), err)
						return 1
					}
					one, err := readResults(path)
					if err != nil || len(one.Runs) != 1 {
						fmt.Fprintf(os.Stderr, "benchmark: reading the run's results: %v\n", err)
						return 1
					}
					file.Runs = append(file.Runs, one.Runs[0])
				}
			}
		}
		return finish(&file, path)
	}

	scratch, err := os.MkdirTemp(*out, "scratch-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	defer os.RemoveAll(scratch)
	// A wedged stack must not outlive the harness's time limit.
	limit := time.Duration((*seconds + 90) * float64(time.Second))
	watchdog := time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "benchmark: still running after %v; giving up\n", limit)
		os.RemoveAll(scratch)
		os.Exit(3)
	})
	defer watchdog.Stop()

	var r *runResult
	if traced[0] {
		r, err = runLayers(selected[0], *seed, *seconds, scratch, *out, os.Stdout)
	} else {
		r, err = runEndToEnd(selected[0], *seed, *seconds, scratch, os.Stdout)
	}
	if err != nil {
		// No result line: the run did not measure anything.
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	printRun(r)
	file.Runs = []runResult{*r}
	return finish(&file, path)
}

// finish writes the results file and ends standard output with the last
// run's result object, which is what the driver reads. A run that failed
// its soundness check exits non-zero: that is a bug, not a measurement.
func finish(file *resultsFile, path string) int {
	if err := file.write(path); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "benchmark: results written to %s\n", path)
	last := file.Runs[len(file.Runs)-1]
	line, err := json.Marshal(last.driverLine())
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	for _, r := range file.Runs {
		if !r.Correct {
			return 1
		}
	}
	return 0
}

// printRun lists every metric of a run by name, with its unit.
func printRun(r *runResult) {
	printMetrics(r.Metrics)
	if len(r.Info) > 0 {
		fmt.Println("  not gated:")
		printMetrics(r.Info)
	}
	for _, f := range r.Flags {
		fmt.Printf("  flag: %s\n", f)
	}
	fmt.Printf("  ops_attempted %d  ops_failed %d  correct %v\n", r.Attempted, r.Failed, r.Correct)
}

func printMetrics(metrics map[string]metric) {
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := metrics[n]
		if m.Samples > 1 {
			fmt.Printf("  %-44s %16.6g %-6s (%d samples, median %.6g, quartiles %.6g … %.6g)\n", n, m.Value, m.Unit, m.Samples, median(m.Trials), m.Q1, m.Q3)
		} else {
			fmt.Printf("  %-44s %16.6g %-6s\n", n, m.Value, m.Unit)
		}
	}
}

// driverLine is the object the driver reads: exactly these keys, and per
// metric exactly value and unit.
func (r *runResult) driverLine() map[string]any {
	metrics := make(map[string]any, len(r.Metrics))
	for n, m := range r.Metrics {
		metrics[n] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	return map[string]any{
		"correct":   r.Correct,
		"attempted": r.Attempted,
		"failed":    r.Failed,
		"metrics":   metrics,
	}
}

// runSeconds is BENCHMARK.json's run_seconds: how long the driver lets
// one run measure.
const runSeconds = 20

// printSpec writes BENCHMARK.json from the tables the code runs on, so
// the two cannot drift; TestBenchmarkJSONAgrees holds the committed file
// to it.
func printSpec() int {
	type named map[string]any
	better := func(higher bool) string {
		if higher {
			return "higher"
		}
		return "lower"
	}
	spec := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []named  `json:"workloads"`
		EndToEnd   []named  `json:"end_to_end"`
		PerLayer   []named  `json:"per_layer"`
	}{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		spec.Workloads = append(spec.Workloads, named{"name": w.Name, "why": w.Why})
	}
	for _, m := range endToEnd {
		spec.EndToEnd = append(spec.EndToEnd, named{"name": m.Name, "unit": m.Unit, "better": better(m.Higher), "bound": m.Bound})
	}
	for _, m := range perLayer {
		spec.PerLayer = append(spec.PerLayer, named{"name": m.Name, "unit": m.Unit, "better": better(m.Higher)})
	}
	data, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(data))
	return 0
}
