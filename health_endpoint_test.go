package ocep_test

// Live-poetd probe tests: a real poetd child must serve /healthz 200
// from the moment its metrics listener is up (liveness), while /readyz
// flips to 503 during WAL recovery and while the collector is shedding
// load, and back to 200 otherwise.

import (
	"fmt"
	"net/http"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"ocep"
	"ocep/internal/proctest"
)

func TestPoetdReadyzDuringOverload(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping process-spawning test")
	}
	poetd := proctest.BuildTool(t, "poetd")
	addr := proctest.FreePort(t)
	metricsAddr := proctest.FreePort(t)

	out := &proctest.SyncBuffer{}
	cmd := exec.Command(poetd,
		"-listen", addr,
		"-metrics-addr", metricsAddr,
		"-max-pending", "2",
		"-quiet")
	cmd.Stdout = out
	cmd.Stderr = out
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting poetd: %v", err)
	}
	defer func() {
		if cmd.ProcessState == nil {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
		}
	}()

	readyz := "http://" + metricsAddr + "/readyz"
	healthz := "http://" + metricsAddr + "/healthz"
	proctest.WaitForStatus(t, readyz, http.StatusOK)

	// A head receive waiting on a send nobody reported, plus enough
	// events behind it to overflow -max-pending: the collector refuses
	// the excess, the server parks the connection, and readiness drops.
	rep, err := ocep.DialReporter(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	if err := rep.Report(ocep.RawEvent{Trace: "p0", Seq: 1, Kind: ocep.KindReceive, Type: "r", MsgID: 1}); err != nil {
		t.Fatal(err)
	}
	for seq := 2; seq <= 5; seq++ {
		if err := rep.Report(ocep.RawEvent{Trace: "p0", Seq: seq, Kind: ocep.KindInternal, Type: "x"}); err != nil {
			t.Fatal(err)
		}
	}
	body := proctest.WaitForStatus(t, readyz, http.StatusServiceUnavailable)
	if !strings.Contains(body, "overload") {
		t.Fatalf("/readyz 503 body does not name the overload check: %q", body)
	}
	// Liveness is unaffected by shedding.
	if code, _, err := proctest.ProbeURL(healthz); err != nil || code != http.StatusOK {
		t.Fatalf("/healthz while shedding = %d, %v; want 200", code, err)
	}

	// A second reporter supplies the missing send: the backlog drains,
	// the parked connection resumes, and readiness recovers.
	rep2, err := ocep.DialReporter(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rep2.Close()
	if err := rep2.Report(ocep.RawEvent{Trace: "p1", Seq: 1, Kind: ocep.KindSend, Type: "s", MsgID: 1}); err != nil {
		t.Fatal(err)
	}
	proctest.WaitForStatus(t, readyz, http.StatusOK)
	if err := rep.Flush(); err != nil {
		t.Fatalf("parked reporter failed: %v", err)
	}
	// Connected reporters would hold the drain for its whole timeout.
	rep.Close()
	rep2.Close()
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("poetd shutdown: %v\noutput:\n%s", err, out.String())
	}
}

func TestPoetdReadyzDuringRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping process-spawning test")
	}
	poetd := proctest.BuildTool(t, "poetd")
	dataDir := t.TempDir()

	// Seed the data directory with a WAL big enough that replaying it
	// takes a visible amount of time: events across 4 traces, flushed
	// but not closed, as a crash leaves them.
	c := ocep.NewCollector()
	d, err := ocep.OpenDurable(c, ocep.DurableOptions{
		Dir: dataDir, Fsync: ocep.SyncNone,
	})
	if err != nil {
		t.Fatal(err)
	}
	const perTrace = 50_000
	for seq := 1; seq <= perTrace; seq++ {
		for tr := 0; tr < 4; tr++ {
			if err := c.Report(ocep.RawEvent{
				Trace: fmt.Sprintf("p%d", tr), Seq: seq, Kind: ocep.KindInternal, Type: "e",
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}

	addr := proctest.FreePort(t)
	metricsAddr := proctest.FreePort(t)
	out := &proctest.SyncBuffer{}
	cmd := exec.Command(poetd,
		"-listen", addr,
		"-metrics-addr", metricsAddr,
		"-data-dir", dataDir,
		"-quiet")
	cmd.Stdout = out
	cmd.Stderr = out
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting poetd: %v", err)
	}
	defer func() {
		if cmd.ProcessState == nil {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
		}
	}()

	// The health listener comes up before recovery starts, so there is
	// a window where the daemon is alive but not ready. Poll tightly
	// and require that we observe it.
	readyz := "http://" + metricsAddr + "/readyz"
	saw503 := false
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		code, body, err := proctest.ProbeURL(readyz)
		if err != nil {
			time.Sleep(time.Millisecond)
			continue
		}
		if code == http.StatusServiceUnavailable {
			saw503 = true
			if !strings.Contains(body, "startup") {
				t.Fatalf("/readyz 503 body does not name the startup check: %q", body)
			}
		}
		if code == http.StatusOK {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if !saw503 {
		t.Fatal("never observed /readyz 503 during WAL recovery")
	}

	// The whole WAL was replayed once ready. (The traffic counters
	// deliberately exclude the recovered prefix — instruments attach
	// after recovery — so check the recovery gauge, which counts the
	// replayed records: one per event plus one per trace registration.)
	m := proctest.ParsePromText(t, proctest.Scrape(t, "http://"+metricsAddr+"/metrics"))
	if got := m["poet_recovery_wal_records"]; got < 4*perTrace {
		t.Fatalf("recovered daemon replayed %v WAL records, want >= %d", got, 4*perTrace)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("poetd shutdown: %v\noutput:\n%s", err, out.String())
	}
}

// TestPoetdSIGTERMAtFirstReadyDrains signals poetd the moment /readyz
// first answers 200: the daemon must already handle SIGTERM, draining
// and exiting 0, rather than die of the signal.
func TestPoetdSIGTERMAtFirstReadyDrains(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping process-spawning test")
	}
	poetd := proctest.BuildTool(t, "poetd")
	metricsAddr := proctest.FreePort(t)
	out := &proctest.SyncBuffer{}
	cmd := exec.Command(poetd, "-listen", proctest.FreePort(t), "-metrics-addr", metricsAddr,
		"-data-dir", t.TempDir(), "-drain-timeout", "1s")
	cmd.Stdout = out
	cmd.Stderr = out
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting poetd: %v", err)
	}
	defer proctest.KillIfAlive(cmd)

	readyz := "http://" + metricsAddr + "/readyz"
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	deadline := time.After(20 * time.Second)
	for {
		if code, _, err := proctest.ProbeURL(readyz); err == nil && code == http.StatusOK {
			break
		}
		select {
		case <-tick.C:
		case <-deadline:
			t.Fatalf("/readyz never answered 200; output:\n%s", out.String())
		}
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("poetd exit after SIGTERM at first ready: %v\noutput:\n%s", err, out.String())
	}
	if got := out.String(); !strings.Contains(got, "draining") || !strings.Contains(got, "write-ahead log synced and closed") {
		t.Fatalf("poetd did not drain and close its log on SIGTERM; output:\n%s", got)
	}
}
