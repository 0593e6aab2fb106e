package main

import (
	"fmt"
	"io"
	"sort"
)

// e2eMetric is an end-to-end metric's contract: its direction and the
// share of the old median by which it may worsen before -compare calls
// it a regression. BENCHMARK.json repeats the table.
type e2eMetric struct {
	Name   string
	Unit   string
	Higher bool // higher is better
	Bound  float64
}

var endToEnd = []e2eMetric{
	{"setup_s", "s", false, 0.25},
	{"events_per_s", "ev/s", true, 0.25},
	{"cpu_us_per_event", "us", false, 0.25},
	{"retained_bytes_per_event", "B", false, 0.05},
}

// samplesOf collects a metric's values over a file's runs of one
// workload: a contract metric, or one of an untraced run's ungated
// measurements.
func samplesOf(f *resultsFile, workload, name string, traced bool) []float64 {
	var vals []float64
	for _, r := range f.Runs {
		if r.Workload != workload || r.Trace != traced {
			continue
		}
		if m, ok := r.Metrics[name]; ok {
			vals = append(vals, m.Value)
		} else if m, ok := r.Info[name]; ok {
			vals = append(vals, m.Value)
		}
	}
	return vals
}

func failureShare(f *resultsFile, workload string) (attempted, failed int) {
	for _, r := range f.Runs {
		if r.Workload == workload {
			attempted += r.Attempted
			failed += r.Failed
		}
	}
	return
}

// compareFiles prints one row per (end-to-end metric, workload) with
// both medians, quartiles and the ratio, and returns non-zero when a
// metric regressed past its bound or a workload's failure share rose.
// A row whose run-to-run spread exceeds the bound is unresolved: the
// data cannot tell a regression from noise. Spread needs several runs
// per file (-runs): a one-run file has none and can only say ok or
// regressed.
func compareFiles(w io.Writer, oldPath, newPath string) int {
	oldF, err := readResults(oldPath)
	if err == nil && oldF.Schema != resultsSchema {
		err = fmt.Errorf("schema %q, want %q", oldF.Schema, resultsSchema)
	}
	if err != nil {
		fmt.Fprintf(w, "benchmark: %s: %v\n", oldPath, err)
		return 2
	}
	newF, err := readResults(newPath)
	if err == nil && newF.Schema != resultsSchema {
		err = fmt.Errorf("schema %q, want %q", newF.Schema, resultsSchema)
	}
	if err != nil {
		fmt.Fprintf(w, "benchmark: %s: %v\n", newPath, err)
		return 2
	}
	if oldF.Host.NProc != newF.Host.NProc || oldF.Host.GoVersion != newF.Host.GoVersion {
		fmt.Fprintf(w, "warning: hosts differ (%d cores %s vs %d cores %s); ratios compare machines, not code\n",
			oldF.Host.NProc, oldF.Host.GoVersion, newF.Host.NProc, newF.Host.GoVersion)
	}
	fmt.Fprintf(w, "old: %s (commit %s)\nnew: %s (commit %s)\n\n", oldPath, oldF.Host.GitCommit, newPath, newF.Host.GitCommit)
	fmt.Fprintf(w, "%-16s %-26s %5s %13s %22s %13s %22s %16s %6s  %s\n",
		"workload", "metric", "unit", "old median", "old quartiles", "new median", "new quartiles", "new/old", "bound", "status")
	regressed, unresolved := 0, 0
	for _, wl := range workloads {
		for _, m := range endToEnd {
			a, b := samplesOf(oldF, wl.Name, m.Name, false), samplesOf(newF, wl.Name, m.Name, false)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma
			if m.Higher {
				worse = -worse
			}
			status := "ok"
			switch {
			case worse > m.Bound:
				status = "regressed"
				regressed++
			case spread(a) > m.Bound || spread(b) > m.Bound:
				status = "unresolved"
				unresolved++
			}
			a1, a3 := quartiles(a)
			b1, b3 := quartiles(b)
			fmt.Fprintf(w, "%-16s %-26s %5s %13.6g %22s %13.6g %22s %16s %5.0f%%  %s\n",
				wl.Name, m.Name, m.Unit, ma, fmt.Sprintf("%.5g…%.5g", a1, a3), mb, fmt.Sprintf("%.5g…%.5g", b1, b3),
				fmt.Sprintf("%.4f (/%.5g)", mb/ma, ma), 100*m.Bound, status)
		}
	}
	rose := 0
	for _, wl := range workloads {
		aa, af := failureShare(oldF, wl.Name)
		ba, bf := failureShare(newF, wl.Name)
		if aa == 0 || ba == 0 {
			continue
		}
		status := "ok"
		if float64(bf)/float64(ba) > float64(af)/float64(aa) {
			status = "rose"
			rose++
		}
		fmt.Fprintf(w, "%-16s %-26s %5s %13s %22s %13s %22s %16s %6s  %s\n", wl.Name, "ops_failed/ops_attempted", "",
			fmt.Sprintf("%d/%d", af, aa), "", fmt.Sprintf("%d/%d", bf, ba), "", "", "", status)
	}
	comparePerLayer(w, oldF, newF)
	fmt.Fprintf(w, "\n%d regressed, %d unresolved, %d failure shares rose\n", regressed, unresolved, rose)
	if regressed > 0 || rose > 0 {
		return 1
	}
	return 0
}

// comparePerLayer lists the ungated measurements both files hold: the
// untraced runs' open-loop latencies and the traced runs' per-layer
// metrics. They carry no bound: they say where a difference sits, not
// whether it counts.
func comparePerLayer(w io.Writer, oldF, newF *resultsFile) {
	for _, traced := range []bool{false, true} {
		compareUngated(w, oldF, newF, traced)
	}
}

func compareUngated(w io.Writer, oldF, newF *resultsFile, traced bool) {
	title := "open loop of the untraced runs"
	if traced {
		title = "per-layer"
	}
	for _, wl := range workloads {
		names := map[string]bool{}
		for _, r := range newF.Runs {
			if r.Workload != wl.Name || r.Trace != traced {
				continue
			}
			source := r.Info
			if traced {
				source = r.Metrics
			}
			for n := range source {
				names[n] = true
			}
		}
		sorted := make([]string, 0, len(names))
		for n := range names {
			sorted = append(sorted, n)
		}
		sort.Strings(sorted)
		header := false
		for _, n := range sorted {
			a, b := samplesOf(oldF, wl.Name, n, traced), samplesOf(newF, wl.Name, n, traced)
			if len(a) == 0 {
				continue
			}
			if !header {
				fmt.Fprintf(w, "\n%s, %s (no bounds):\n", title, wl.Name)
				header = true
			}
			ma, mb := median(a), median(b)
			ratio := "-"
			if ma != 0 {
				ratio = fmt.Sprintf("%.4f", mb/ma)
			}
			fmt.Fprintf(w, "  %-44s %14.6g %14.6g  new/old %s\n", n, ma, mb, ratio)
		}
	}
}
