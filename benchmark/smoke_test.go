package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ocep/internal/core"
	"ocep/internal/event"
)

// TestSmokeEveryWorkload pushes ~2 k events of every workload through
// its full path — closed loop with the recovery step, and open loop —
// and expects the soundness check to pass.
func TestSmokeEveryWorkload(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloads {
		in := w.gen(3, 2000)
		ref, err := computeReference(in, false)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		closed := trialMode{heap: true, recover: true, opts: stackOpts{dir: dir}}
		res, err := runTrial(w.Kind, in, ref, closed)
		if err != nil || res.sound != nil || res.failed != 0 {
			t.Fatalf("%s closed: err %v, soundness %v, %d failed", w.Name, err, res.sound, res.failed)
		}
		if w.Kind == stStandby && res.recovered != len(in.Events) {
			t.Errorf("%s: recovery rebuilt %d of %d events", w.Name, res.recovered, len(in.Events))
		}
		open := trialMode{rate: 5000, tr: newTracer(), trial: 1, opts: stackOpts{dir: dir}}
		res, err = runTrial(w.Kind, in, ref, open)
		if err != nil || res.sound != nil || res.failed != 0 {
			t.Fatalf("%s open: err %v, soundness %v, %d failed", w.Name, err, res.sound, res.failed)
		}
		if len(res.winP99) == 0 || res.winP99[0] <= 0 {
			t.Errorf("%s open: latency windows %v", w.Name, res.winP99)
		}
	}
}

// TestSoundnessCheckCatchesDamage: the check must fail on a stream that
// lost an event, on one delivered against causality, and on a coverage
// that differs from the reference.
func TestSoundnessCheckCatchesDamage(t *testing.T) {
	in := genDeadlock(5, 8, 2000, 0.05)
	ref, err := computeReference(in, true)
	if err != nil {
		t.Fatal(err)
	}
	name := func(id event.TraceID) (string, bool) { return ref.store.TraceName(id), true }
	m := core.NewMatcherOn(ref.pat, ref.store, core.Options{})
	for _, e := range ref.ordered {
		if _, err := m.Feed(e); err != nil {
			t.Fatal(err)
		}
	}
	cov := m.Coverage()
	if len(cov) < 2 {
		t.Fatalf("input covers %d pairs; the test needs some", len(cov))
	}
	if err := checkSound(in, ref, ref.ordered, name, cov); err != nil {
		t.Fatalf("intact stream rejected: %v", err)
	}
	if err := checkSound(in, ref, ref.ordered[1:], name, cov); err == nil {
		t.Error("a stream missing an event passed")
	}
	if err := checkSound(in, ref, ref.ordered, name, cov[1:]); err == nil {
		t.Error("a coverage that differs from the reference passed")
	}
	// Move a receive in front of its send, keeping its own trace in order:
	// a receive whose trace reported nothing between the two.
	moved := false
	for i, e := range ref.ordered {
		if e.Kind != event.KindReceive {
			continue
		}
		j := i - 1
		for j >= 0 && ref.ordered[j].ID != e.Partner && ref.ordered[j].ID.Trace != e.ID.Trace {
			j--
		}
		if j < 0 || ref.ordered[j].ID != e.Partner {
			continue
		}
		damaged := append([]*event.Event(nil), ref.ordered[:j]...)
		damaged = append(damaged, e)
		damaged = append(damaged, ref.ordered[j:i]...)
		damaged = append(damaged, ref.ordered[i+1:]...)
		if err := checkSound(in, ref, damaged, name, cov); err == nil || !strings.Contains(err.Error(), "before its cause") {
			t.Errorf("a receive delivered before its send: %v", err)
		}
		moved = true
		break
	}
	if !moved {
		t.Fatal("no receive found to move")
	}
}

// TestCompareFlagsRegressions builds two results files by hand.
func TestCompareFlagsRegressions(t *testing.T) {
	dir := t.TempDir()
	file := func(name string, evps []float64, failed int) string {
		f := resultsFile{Schema: resultsSchema, Host: hostMeta{NProc: 2, GoVersion: "go"}}
		for i, v := range evps {
			f.Runs = append(f.Runs, runResult{
				Workload: "wire-ring", Seed: int64(i), Correct: true, Attempted: 1000, Failed: failed,
				Metrics: map[string]metric{"events_per_s": {Value: v, Unit: "ev/s", Samples: 1}},
			})
		}
		path := filepath.Join(dir, name)
		if err := f.write(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := file("base.json", []float64{100, 101, 99, 100, 102}, 0)
	var out bytes.Buffer
	if code := compareFiles(&out, base, file("same.json", []float64{98, 100, 101, 99, 100}, 0)); code != 0 || !strings.Contains(out.String(), " ok") {
		t.Errorf("equal sets: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareFiles(&out, base, file("slow.json", []float64{70, 71, 69, 70, 72}, 0)); code == 0 || !strings.Contains(out.String(), "regressed") {
		t.Errorf("a 30%% throughput loss: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareFiles(&out, base, file("noisy.json", []float64{60, 100, 140, 95, 105}, 0)); code != 0 || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("a spread wider than the bound: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareFiles(&out, base, file("failing.json", []float64{100, 101, 99, 100, 102}, 3)); code == 0 || !strings.Contains(out.String(), "rose") {
		t.Errorf("a rise in failures: exit %d\n%s", code, out.String())
	}
}

// TestBenchmarkJSONAgrees keeps BENCHMARK.json and the tables in this
// package — workloads, end-to-end bounds, per-layer names — in step.
func TestBenchmarkJSONAgrees(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	better := func(higher bool) string {
		if higher {
			return "higher"
		}
		return "lower"
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in workloads.go", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.Name || spec.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q", i, spec.Workloads[i].Name, spec.Workloads[i].Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in compare.go", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		if g := spec.EndToEnd[i]; g.Name != m.Name || g.Unit != m.Unit || g.Better != better(m.Higher) || g.Bound != m.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, compare.go %+v", i, g, m)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in layers.go", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if g := spec.PerLayer[i]; g.Name != m.Name || g.Unit != m.Unit || g.Better != better(m.Higher) {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, layers.go %+v", i, g, m)
		}
	}
}
