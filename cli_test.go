package ocep_test

import (
	"bufio"
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"ocep"
	"ocep/internal/proctest"
)

func TestPatterncCLI(t *testing.T) {
	bin := proctest.BuildTool(t, "patternc")

	t.Run("file", func(t *testing.T) {
		pat := filepath.Join(t.TempDir(), "p.pat")
		src := `A := [*, a, *]; B := [*, b, *]; pattern := A -> B;`
		if err := os.WriteFile(pat, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		out, err := exec.Command(bin, pat).CombinedOutput()
		if err != nil {
			t.Fatalf("patternc: %v\n%s", err, out)
		}
		for _, want := range []string{"leaves (k=2)", "terminating"} {
			if !strings.Contains(string(out), want) {
				t.Errorf("output missing %q:\n%s", want, out)
			}
		}
	})

	t.Run("stdin", func(t *testing.T) {
		cmd := exec.Command(bin, "-")
		cmd.Stdin = strings.NewReader(`A := [*, a, *]; pattern := A;`)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("patternc -: %v\n%s", err, out)
		}
		if !strings.Contains(string(out), "leaves (k=1)") {
			t.Errorf("unexpected output:\n%s", out)
		}
	})

	t.Run("builtin", func(t *testing.T) {
		out, err := exec.Command(bin, "-builtin", "ordering").CombinedOutput()
		if err != nil {
			t.Fatalf("patternc -builtin: %v\n%s", err, out)
		}
		if !strings.Contains(string(out), "Synch") {
			t.Errorf("built-in ordering pattern missing Synch:\n%s", out)
		}
	})

	t.Run("error", func(t *testing.T) {
		cmd := exec.Command(bin, "-")
		cmd.Stdin = strings.NewReader(`pattern := Zed;`)
		out, err := cmd.CombinedOutput()
		if err == nil {
			t.Fatalf("invalid pattern must fail, got:\n%s", out)
		}
		if !strings.Contains(string(out), "undefined class") {
			t.Errorf("error output missing cause:\n%s", out)
		}
	})
}

func TestPoetdAndOcepmonCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping process-spawning test")
	}
	poetd := proctest.BuildTool(t, "poetd")
	ocepmon := proctest.BuildTool(t, "ocepmon")
	addr := proctest.FreePort(t)
	dumpFile := filepath.Join(t.TempDir(), "run.poet")

	// Start the daemon.
	daemon := exec.Command(poetd, "-listen", addr, "-dump", dumpFile)
	daemonOut, err := daemon.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := daemon.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = daemon.Process.Kill()
		_, _ = daemon.Process.Wait()
	}()
	// Wait for "listening".
	scanner := bufio.NewScanner(daemonOut)
	ready := false
	for scanner.Scan() {
		if strings.Contains(scanner.Text(), "listening") {
			ready = true
			break
		}
	}
	if !ready {
		t.Fatalf("poetd did not report listening")
	}
	go func() { // drain remaining daemon output
		for scanner.Scan() {
		}
	}()

	// Start a monitor on the race pattern.
	pat := filepath.Join(t.TempDir(), "race.pat")
	src := `
		W := [primary, write, $key];
		R := [replica, read,  $key];
		pattern := W || R;
	`
	if err := os.WriteFile(pat, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	mon := exec.Command(ocepmon, "-addr", addr, "-pattern", pat, "-stats")
	monOut := &proctest.SyncBuffer{}
	mon.Stdout = monOut
	mon.Stderr = monOut
	if err := mon.Start(); err != nil {
		t.Fatal(err)
	}

	// Report a stale-read scenario as a target.
	rep, err := ocep.DialReporter(addr)
	if err != nil {
		t.Fatal(err)
	}
	raws := []ocep.RawEvent{
		{Trace: "primary", Seq: 1, Kind: ocep.KindInternal, Type: "write", Text: "k"},
		{Trace: "replica", Seq: 1, Kind: ocep.KindInternal, Type: "read", Text: "k"},
	}
	for _, r := range raws {
		if err := rep.Report(r); err != nil {
			t.Fatal(err)
		}
	}
	_ = rep.Close()

	// Give the pipeline a moment, then stop everything gracefully.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if strings.Contains(monOut.String(), "match #1") {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := daemon.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	if err := daemon.Wait(); err != nil {
		t.Fatalf("poetd exit: %v", err)
	}
	if err := mon.Wait(); err != nil {
		t.Fatalf("ocepmon exit: %v\n%s", err, monOut)
	}
	out := monOut.String()
	if !strings.Contains(out, "match #1") {
		t.Fatalf("monitor reported no match:\n%s", out)
	}
	if !strings.Contains(out, "complete matches: 1") {
		t.Errorf("stats missing:\n%s", out)
	}

	// The daemon dumped the trace; reload it into a fresh collector.
	c := ocep.NewCollector()
	n, err := c.ReloadFile(dumpFile)
	if err != nil {
		t.Fatalf("reloading dump: %v", err)
	}
	if n != len(raws) {
		t.Fatalf("dump holds %d events, want %d", n, len(raws))
	}
}

// TestFullPipelineCLI runs the complete distributed demo: poetd serving,
// ocepgen generating the ordering-bug workload over TCP, and ocepmon
// matching the built-in pattern — three separate processes.
func TestFullPipelineCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping process-spawning test")
	}
	poetd := proctest.BuildTool(t, "poetd")
	ocepmon := proctest.BuildTool(t, "ocepmon")
	ocepgen := proctest.BuildTool(t, "ocepgen")
	addr := proctest.FreePort(t)

	daemon := exec.Command(poetd, "-listen", addr, "-quiet")
	daemonOut, err := daemon.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := daemon.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = daemon.Process.Kill()
		_, _ = daemon.Process.Wait()
	}()
	scanner := bufio.NewScanner(daemonOut)
	for scanner.Scan() {
		if strings.Contains(scanner.Text(), "listening") {
			break
		}
	}
	go func() {
		for scanner.Scan() {
		}
	}()

	mon := exec.Command(ocepmon, "-addr", addr, "-builtin", "ordering", "-stats")
	monOut := &proctest.SyncBuffer{}
	mon.Stdout = monOut
	mon.Stderr = monOut
	if err := mon.Start(); err != nil {
		t.Fatal(err)
	}

	gen := exec.Command(ocepgen, "-addr", addr, "-case", "ordering",
		"-traces", "8", "-events", "2000", "-bug", "0.5", "-seed", "6")
	genOut, err := gen.CombinedOutput()
	if err != nil {
		t.Fatalf("ocepgen: %v\n%s", err, genOut)
	}
	if !strings.Contains(string(genOut), "violations seeded") {
		t.Fatalf("generator output unexpected:\n%s", genOut)
	}

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if strings.Contains(monOut.String(), "match #1") {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := daemon.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	if err := daemon.Wait(); err != nil {
		t.Fatalf("poetd: %v", err)
	}
	if err := mon.Wait(); err != nil {
		t.Fatalf("ocepmon: %v\n%s", err, monOut)
	}
	if !strings.Contains(monOut.String(), "match #1") {
		t.Fatalf("monitor found no ordering violations:\n%s", monOut)
	}
}

// TestPoetdRejectedFlagCombinations runs every flag combination poetd
// still refuses and checks each exits non-zero, before listening, with a
// message that names both flags. The -retain-events rows are refused by
// the library (only the delivered-event index can trim: see
// TestRetentionConflictsBothOrders in internal/poet); the rest are
// poetd's own.
func TestPoetdRejectedFlagCombinations(t *testing.T) {
	poetd := proctest.BuildTool(t, "poetd")
	dir := t.TempDir()
	const tier = "127.0.0.1:1;127.0.0.1:2"
	for _, tc := range []struct {
		args  []string
		wants []string
	}{
		{[]string{"-retain-events", "100", "-dump", filepath.Join(dir, "x.poet")}, []string{"-retain-events", "-dump", "incompatible with the journal"}},
		{[]string{"-retain-events", "100", "-data-dir", filepath.Join(dir, "data")}, []string{"-retain-events", "-data-dir", "incompatible with the journal"}},
		{[]string{"-retain-events", "100", "-shard-id", "0", "-peers", tier}, []string{"-retain-events", "-shard-id", "incompatible with sharding"}},
		{[]string{"-follow", "127.0.0.1:1", "-reload", filepath.Join(dir, "x.poet")}, []string{"-follow is incompatible with -reload"}},
		{[]string{"-shard-id", "0", "-peers", tier, "-reload", filepath.Join(dir, "x.poet")}, []string{"-shard-id is incompatible with -reload"}},
		{[]string{"-mem-limit", "1G"}, []string{"-mem-limit", "-retain-events"}},
		{[]string{"-peers", tier}, []string{"-peers", "-shard-id"}},
		{[]string{"-peers", ";"}, []string{"-peers", "-shard-id"}},
		{[]string{"-shard-id", "0"}, []string{"-shard-id", "-peers"}},
		{[]string{"-shard-id", "2", "-peers", tier}, []string{"-shard-id", "-peers"}},
		{[]string{"-data-dir", filepath.Join(dir, "data"), "-monitor-policy", "bogus"}, []string{"-monitor-policy", "bogus"}},
		{[]string{"-data-dir", filepath.Join(dir, "data"), "-fsync", "bogus"}, []string{"-fsync", "bogus"}},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			args := append([]string{"-listen", "127.0.0.1:0"}, tc.args...)
			out, err := exec.CommandContext(ctx, poetd, args...).CombinedOutput()
			if err == nil || ctx.Err() != nil {
				t.Fatalf("poetd %v must exit non-zero on its own (err %v):\n%s", tc.args, err, out)
			}
			if strings.Contains(string(out), "listening on") {
				t.Fatalf("poetd %v started serving before refusing:\n%s", tc.args, out)
			}
			for _, want := range tc.wants {
				if !strings.Contains(string(out), want) {
					t.Errorf("poetd %v: message does not name %q:\n%s", tc.args, want, out)
				}
			}
			if _, err := os.Stat(filepath.Join(dir, "data")); err == nil {
				t.Errorf("poetd %v created its data directory before refusing", tc.args)
			}
		})
	}
}

// TestPoetdDependencySet pins what the daemon links from this module to
// the collector tier, so the matcher, the baselines and the experiment
// code cannot drift back into it unnoticed — and keeps encoding/gob out:
// the wire and the disk speak one encoding, the frame/record codec.
func TestPoetdDependencySet(t *testing.T) {
	cmd := exec.Command("go", "list", "-deps", "./cmd/poetd")
	cmd.Dir = proctest.ModuleRoot(t)
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list -deps ./cmd/poetd: %v", err)
	}
	var got []string
	for _, pkg := range strings.Fields(string(out)) {
		if pkg == "encoding/gob" {
			t.Errorf("cmd/poetd links encoding/gob")
		}
		if name, ok := strings.CutPrefix(pkg, "ocep/internal/"); ok {
			got = append(got, name)
		}
	}
	sort.Strings(got)
	const want = "backoff event fifo poet pool shard telemetry vclock wal"
	if strings.Join(got, " ") != want {
		t.Fatalf("cmd/poetd links internal packages [%s], want [%s]", strings.Join(got, " "), want)
	}
}

func TestOcepbenchCLI(t *testing.T) {
	bench := proctest.BuildTool(t, "ocepbench")

	out, err := exec.Command(bench, "-fig", "3").CombinedOutput()
	if err != nil {
		t.Fatalf("ocepbench -fig 3: %v\n%s", err, out)
	}
	for _, want := range []string{"All:", "Window:", "OCEP:"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("fig 3 output missing %q:\n%s", want, out)
		}
	}

	if out, err := exec.Command(bench, "-fig", "99").CombinedOutput(); err == nil {
		t.Fatalf("unknown figure must fail:\n%s", out)
	}
	if out, err := exec.Command(bench).CombinedOutput(); err == nil {
		t.Fatalf("no flags must fail with usage:\n%s", out)
	}
	out, err = exec.Command(bench, "-lattice").CombinedOutput()
	if err != nil {
		t.Fatalf("ocepbench -lattice: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "Lattice cuts") {
		t.Errorf("lattice output wrong:\n%s", out)
	}
}

func TestOcepviewCLI(t *testing.T) {
	ocepview := proctest.BuildTool(t, "ocepview")

	// Build a small dump with a stale read in it.
	collector := ocep.NewCollector()
	if err := collector.EnableReplicationLog(); err != nil { // the journal Dump writes
		t.Fatal(err)
	}
	raws := []ocep.RawEvent{
		{Trace: "primary", Seq: 1, Kind: ocep.KindInternal, Type: "write", Text: "k"},
		{Trace: "primary", Seq: 2, Kind: ocep.KindSend, Type: "replicate", Text: "k", MsgID: 1},
		{Trace: "replica", Seq: 1, Kind: ocep.KindInternal, Type: "read", Text: "k"},
		{Trace: "replica", Seq: 2, Kind: ocep.KindReceive, Type: "apply", Text: "k", MsgID: 1},
	}
	for _, r := range raws {
		if err := collector.Report(r); err != nil {
			t.Fatal(err)
		}
	}
	dump := filepath.Join(t.TempDir(), "view.poet")
	if err := collector.DumpFile(dump); err != nil {
		t.Fatal(err)
	}
	pat := filepath.Join(t.TempDir(), "stale.pat")
	src := `W := [primary, write, $k]; R := [replica, read, $k]; pattern := W || R;`
	if err := os.WriteFile(pat, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}

	out, err := exec.Command(ocepview, "-dump", dump, "-arrows", "-pattern", pat).CombinedOutput()
	if err != nil {
		t.Fatalf("ocepview: %v\n%s", err, out)
	}
	s := string(out)
	for _, want := range []string{"primary |", "replica |", "matched 1 reported", "#", "messages:"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}

	// Causal slice extraction: the stale-read match involves only the
	// write and the read, so the slice excludes the replication pair.
	sliceFile := filepath.Join(t.TempDir(), "slice.poet.gz")
	out, err = exec.Command(ocepview, "-dump", dump, "-pattern", pat, "-slice", sliceFile).CombinedOutput()
	if err != nil {
		t.Fatalf("ocepview -slice: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "causal slice: 2 of 4 events") {
		t.Errorf("slice summary wrong:\n%s", out)
	}
	rc := ocep.NewCollector()
	if n, err := rc.ReloadFile(sliceFile); err != nil || n != 2 {
		t.Fatalf("slice reload = %d, %v", n, err)
	}

	// Errors: missing dump flag, window too wide, slice without pattern.
	if out, err := exec.Command(ocepview).CombinedOutput(); err == nil {
		t.Fatalf("missing -dump must fail:\n%s", out)
	}
	if out, err := exec.Command(ocepview, "-dump", dump, "-width", "2").CombinedOutput(); err == nil {
		t.Fatalf("too-narrow width must fail:\n%s", out)
	}
	if out, err := exec.Command(ocepview, "-dump", dump, "-slice", sliceFile).CombinedOutput(); err == nil {
		t.Fatalf("-slice without a pattern must fail:\n%s", out)
	}
}

func TestOcepmonBuiltinFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping process-spawning test")
	}
	ocepmon := proctest.BuildTool(t, "ocepmon")
	// Unknown builtin fails fast (no server needed: flag parsing first).
	out, err := exec.Command(ocepmon, "-builtin", "nope", "-addr", "127.0.0.1:1").CombinedOutput()
	if err == nil {
		t.Fatalf("unknown builtin must fail:\n%s", out)
	}
	if !strings.Contains(string(out), "unknown built-in") {
		t.Errorf("error output:\n%s", out)
	}
}

// TestREADMENamesEveryFlag runs the two deployed tools' -h, takes the
// flag names the flag package registered, and requires README.md to
// mention each one: a flag added without a word of documentation, or
// documented after it is gone from the help text, fails here.
func TestREADMENamesEveryFlag(t *testing.T) {
	readme, err := os.ReadFile(filepath.Join(proctest.ModuleRoot(t), "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	flagLine := regexp.MustCompile(`(?m)^  -([a-z][a-z0-9-]*)`)
	for _, tool := range []string{"poetd", "ocepmon"} {
		// -h prints the registered flags and exits 0 (flag.ErrHelp).
		out, err := exec.Command(proctest.BuildTool(t, tool), "-h").CombinedOutput()
		if err != nil {
			t.Fatalf("%s -h: %v\n%s", tool, err, out)
		}
		names := flagLine.FindAllStringSubmatch(string(out), -1)
		if len(names) < 5 {
			t.Fatalf("%s -h lists %d flags; the help format changed?\n%s", tool, len(names), out)
		}
		for _, m := range names {
			mention := regexp.MustCompile(`(^|[^\w-])-` + regexp.QuoteMeta(m[1]) + `([^\w-]|$)`)
			if !mention.Match(readme) {
				t.Errorf("README.md never mentions %s -%s", tool, m[1])
			}
		}
	}
}
