package ocep_test

// Crash-recovery differential test: a monitored workload during which a
// real poetd child process is SIGKILLed and restarted against the same
// data directory several times mid-stream must report exactly the match
// set and coverage of an uninterrupted in-process run. This is the
// end-to-end proof that the durability subsystem (WAL + snapshots +
// recovery) composes with the fault-tolerant wire layer: under
// `-fsync always` no acknowledged event is ever lost, the reporter's
// retransmitted suffix lands as idempotent no-ops against the recovered
// ack watermarks, and the monitor's resume offset stays valid against
// the recovered stream.

import (
	"os/exec"
	"sync"
	"syscall"
	"testing"
	"time"

	"ocep"
	"ocep/internal/proctest"
	"ocep/internal/workload"
)

// startPoetd launches a durable poetd child and waits until it accepts
// connections (after a restart, that means recovery has finished).
func startPoetd(t *testing.T, bin, addr, dataDir string, out *proctest.SyncBuffer) *exec.Cmd {
	t.Helper()
	return proctest.StartServer(t, bin, out, addr,
		"-listen", addr,
		"-data-dir", dataDir,
		"-fsync", "always",
		"-snapshot-every", "64",
		// Acks follow every burst; the ticker is the server's heartbeat to
		// an idle reporter, which must beat inside the reporters' 100 ms
		// peer timeout (5 × their 20 ms heartbeat).
		"-ack-interval", "5ms",
		"-heartbeat", "25ms",
		"-quiet")
}

func TestCrashKilledPoetdMatchesCrashFreeRun(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping process-killing soak")
	}
	poetd := proctest.BuildTool(t, "poetd")
	addr := proctest.FreePort(t)
	dataDir := t.TempDir()

	// One captured workload drives both runs.
	sink := &captureSink{}
	if _, err := workload.GenMsgRace(workload.MsgRaceConfig{Ranks: 4, Waves: 30, Sink: sink}); err != nil {
		t.Fatal(err)
	}
	events := sink.events
	if len(events) < 100 {
		t.Fatalf("workload too small (%d events) for a meaningful kill schedule", len(events))
	}
	patternSrc := workload.MsgRacePattern()
	cleanMatches, cleanCov := runCleanBaseline(t, patternSrc, events)
	if len(cleanMatches) == 0 {
		t.Fatal("crash-free run reported no matches; the differential comparison is vacuous")
	}

	out := &proctest.SyncBuffer{}
	daemon := startPoetd(t, poetd, addr, dataDir, out)
	defer func() { proctest.KillIfAlive(daemon) }()

	rep, err := ocep.DialReporter(addr,
		ocep.WithSessionBackoff(5*time.Millisecond, 200*time.Millisecond),
		ocep.WithSessionHeartbeat(20*time.Millisecond),
		ocep.WithSessionReconnect(60*time.Second),
		ocep.WithSessionLog(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	cli, err := ocep.DialMonitor(addr,
		ocep.WithSessionBackoff(5*time.Millisecond, 200*time.Millisecond),
		ocep.WithSessionReconnect(60*time.Second),
		ocep.WithSessionLog(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	var mu sync.Mutex
	var matches []ocep.Match
	reg := ocep.NewRegistry()
	mon, err := ocep.NewMonitor(patternSrc,
		ocep.WithReportAll(),
		ocep.WithMetrics(reg),
		ocep.WithMatchHandler(func(m ocep.Match) {
			mu.Lock()
			matches = append(matches, m)
			mu.Unlock()
		}))
	if err != nil {
		t.Fatal(err)
	}
	runDone := make(chan error, 1)
	go func() { runDone <- mon.Run(cli) }()

	// SIGKILL the daemon at three points mid-stream and restart it
	// against the same data directory. The reporter and monitor are never
	// told: their reconnect loops must ride out each outage on their own.
	killAt := map[int]bool{len(events) / 4: true, len(events) / 2: true, 3 * len(events) / 4: true}
	kills := 0
	for i, e := range events {
		if killAt[i] {
			if err := daemon.Process.Signal(syscall.SIGKILL); err != nil {
				t.Fatalf("kill %d: %v", kills, err)
			}
			_ = daemon.Wait()
			kills++
			daemon = startPoetd(t, poetd, addr, dataDir, out)
		}
		if err := rep.Report(e); err != nil {
			t.Fatalf("report event %d: %v", i, err)
		}
	}
	if kills < 3 {
		t.Fatalf("only %d kills landed; the acceptance criterion wants >= 3", kills)
	}
	if err := rep.Flush(); err != nil {
		t.Fatalf("flush after %d kills: %v", kills, err)
	}
	waitCounter(t, "monitor to consume the full recovered stream",
		reg.FindCounter("ocep_monitor_events_total"), int64(len(events)))

	// Clean shutdown of the final incarnation: SIGTERM snapshots, sends
	// End to the monitor, and Run returns nil.
	if err := daemon.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := daemon.Wait(); err != nil {
		t.Fatalf("poetd clean shutdown: %v\noutput:\n%s", err, out.String())
	}
	if err := <-runDone; err != nil {
		t.Fatalf("monitor run across %d crashes: %v", kills, err)
	}

	repStats, monStats := rep.Stats(), cli.Stats()
	t.Logf("crash run: %d kills, reporter %+v, monitor %+v", kills, repStats, monStats)
	if monStats.Received != len(events) {
		t.Fatalf("monitor received %d events, want exactly %d (no loss, no duplication)", monStats.Received, len(events))
	}
	if repStats.Reconnects == 0 || monStats.Reconnects == 0 {
		t.Fatal("no session ever reconnected; the kills proved nothing")
	}

	name := func(tr ocep.TraceID) string {
		n, _ := cli.TraceName(tr)
		return n
	}
	crashMatches := matchSignatures(matches, name)
	crashCov := coverageSignatures(mon.Coverage(), name)
	if !equalStrings(cleanMatches, crashMatches) {
		t.Errorf("match sets differ:\ncrash-free (%d): %v\ncrash-killed (%d): %v",
			len(cleanMatches), cleanMatches, len(crashMatches), crashMatches)
	}
	if !equalStrings(cleanCov, crashCov) {
		t.Errorf("coverage differs:\ncrash-free: %v\ncrash-killed: %v", cleanCov, crashCov)
	}
}
