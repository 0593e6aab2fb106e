package bench

import (
	"bytes"
	"strings"
	"testing"

	"ocep/internal/core"
)

const testEvents = 3_000

func TestGenerateAllCases(t *testing.T) {
	for _, c := range Cases {
		t.Run(string(c), func(t *testing.T) {
			wl, err := Generate(GenConfig{
				Case: c, Traces: 10, TargetEvents: testEvents, Seed: 5,
			})
			if err != nil {
				t.Fatal(err)
			}
			if wl.Collector.Delivered() == 0 {
				t.Fatalf("no events generated")
			}
			// Generated volume is within a factor of two of the target.
			got := wl.Collector.Delivered()
			if got < testEvents/2 || got > testEvents*2 {
				t.Errorf("generated %d events for target %d", got, testEvents)
			}
			if _, err := CompilePattern(wl.Pattern); err != nil {
				t.Fatalf("workload pattern does not compile: %v", err)
			}
		})
	}
}

func TestGenerateUnknownCase(t *testing.T) {
	if _, err := Generate(GenConfig{Case: "nope", Traces: 4}); err == nil {
		t.Fatal("unknown case must fail")
	}
}

func TestReplayCollectsTriggerTimes(t *testing.T) {
	wl, err := Generate(GenConfig{Case: CaseOrdering, Traces: 10, TargetEvents: testEvents, Seed: 6, BugProb: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	r, err := wl.Run(ReplayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Events != wl.Collector.Delivered() {
		t.Fatalf("replayed %d of %d events", r.Events, wl.Collector.Delivered())
	}
	if len(r.TriggerTimes) == 0 {
		t.Fatalf("no trigger samples recorded")
	}
	if len(r.TriggerTimes) != r.Stats.Triggers {
		t.Fatalf("trigger samples %d != stats triggers %d", len(r.TriggerTimes), r.Stats.Triggers)
	}
	box := r.Box()
	if box.N != len(r.TriggerTimes) || box.Median < 0 {
		t.Fatalf("bad box: %+v", box)
	}
}

func TestReplayDetectsMarkers(t *testing.T) {
	wl, err := Generate(GenConfig{Case: CaseOrdering, Traces: 10, TargetEvents: testEvents, Seed: 7, BugProb: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(wl.Result.Markers) == 0 {
		t.Skip("no violations seeded at this seed")
	}
	r, err := wl.Run(ReplayConfig{
		Options:     core.Options{ReportAll: true, DisablePruning: true},
		KeepMatches: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Detected != len(wl.Result.Markers) {
		t.Fatalf("detected %d of %d seeded violations", r.Detected, len(wl.Result.Markers))
	}
}

func TestFigure3Output(t *testing.T) {
	var buf bytes.Buffer
	if err := Figure3(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// The paper's rows: All has four matches, Window three, OCEP two.
	for _, want := range []string{
		"All:     a@P1#3 a@P1#4 a@P1#5 a@P2#1",
		"Window:  a@P1#3 a@P1#4 a@P1#5",
		"OCEP:    a@P1#5 a@P2#1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure 3 output missing %q:\n%s", want, out)
		}
	}
}

func TestFigureBoxplotsSmall(t *testing.T) {
	var buf bytes.Buffer
	cfg := FigureConfig{TargetEvents: testEvents, Seed: 2}
	if err := FigureBoxplots(&buf, CaseAtomicity, cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Figure 8") || !strings.Contains(out, "boxplots") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

func TestFigure10Small(t *testing.T) {
	var buf bytes.Buffer
	if err := Figure10(&buf, FigureConfig{TargetEvents: testEvents, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	for _, c := range Cases {
		if !strings.Contains(buf.String(), string(c)) {
			t.Errorf("Figure 10 table missing case %s", c)
		}
	}
}

func TestCompletenessSmall(t *testing.T) {
	var buf bytes.Buffer
	if err := Completeness(&buf, FigureConfig{TargetEvents: 4_000, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "FalsePositives") {
		t.Fatalf("unexpected output:\n%s", out)
	}
	// Every row must report zero false positives; crude but effective:
	// scan the numeric columns.
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 7 && fields[0] != "Test" && fields[0] != "---------" {
			if fields[6] != "0" {
				t.Errorf("false positives in row: %s", line)
			}
			if fields[2] != fields[3] {
				t.Errorf("seeded != detected in row: %s", line)
			}
		}
	}
}

func TestAblationSmall(t *testing.T) {
	var buf bytes.Buffer
	if err := Ablation(&buf, FigureConfig{TargetEvents: testEvents, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"full (dynamic order)", "static order (paper)",
		"no backjumping", "no causal domains",
		"pruning on (paper)", "pruning off",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("ablation output missing %q", want)
		}
	}
}

// TestAblationRowsDiffer: each ablated search row differs from "static
// order (paper)" in the column that measures what it ablates — the
// median domain size for causal domains, jump skips for backjumping —
// so the table shows each mechanism at work, not only time.
func TestAblationRowsDiffer(t *testing.T) {
	search, jumps, err := searchAblations(FigureConfig{TargetEvents: testEvents, Seed: 2}.norm())
	if err != nil {
		t.Fatal(err)
	}
	row := func(rows []ablationRow, name string) *Replay {
		t.Helper()
		for _, r := range rows {
			if r.name == name {
				return r.r
			}
		}
		t.Fatalf("no %q row", name)
		return nil
	}
	static, noDomains := row(search, "static order (paper)"), row(search, "static, no causal domains")
	if static.DomainSizeP50 >= noDomains.DomainSizeP50 {
		t.Errorf("median domain: %d with causal domains, %d without; want it larger without", static.DomainSizeP50, noDomains.DomainSizeP50)
	}
	static, noJumps := row(jumps, "static order (paper)"), row(jumps, "static, no backjumping")
	if static.Stats.BackjumpSkips == 0 || noJumps.Stats.BackjumpSkips != 0 {
		t.Errorf("jump skips: %d with backjumping, %d without; want some, then none", static.Stats.BackjumpSkips, noJumps.Stats.BackjumpSkips)
	}
}

func TestWindowOmissionSmall(t *testing.T) {
	var buf bytes.Buffer
	if err := WindowOmission(&buf, FigureConfig{Seed: 2}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Oracle") || !strings.Contains(out, "Window") {
		t.Fatalf("unexpected output:\n%s", out)
	}
	// The window must actually miss the long-span matches.
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 6 && fields[0] != "Traces" && !strings.HasPrefix(fields[0], "-") {
			if fields[4] != "0" {
				t.Errorf("window unexpectedly found long-span matches: %s", line)
			}
			if fields[5] == "0" {
				t.Errorf("OCEP found nothing: %s", line)
			}
		}
	}
}

func TestBaselinesSmall(t *testing.T) {
	var buf bytes.Buffer
	cfg := FigureConfig{TargetEvents: testEvents, Seed: 2}
	if err := BaselineDeadlock(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	if err := BaselineRace(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "dependency-graph") || !strings.Contains(out, "race checker") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

func TestScalingSmall(t *testing.T) {
	var buf bytes.Buffer
	if err := Scaling(&buf, FigureConfig{TargetEvents: testEvents, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "us per trace") {
		t.Fatalf("unexpected output:\n%s", buf.String())
	}
}
