package ocep_test

// Failover chaos differential: each case study runs against a real
// primary/standby poetd pair — the standby tails the primary with
// -follow — while the clients dial the two addresses as one endpoint
// pool. Mid-workload the primary is SIGKILLed; the standby promotes
// itself once the primary stays unreachable past its reconnect budget,
// the pooled reporter and monitor fail over to it, and the run must
// report exactly the match set and coverage of a fault-free in-process
// run. This is the end-to-end proof of the HA tentpole: acknowledged
// events are always replicated before the ack is released, the
// monitor's delivery never runs ahead of the replica's confirmation,
// and the retransmitted suffix lands as idempotent no-ops on the
// promoted standby — so a primary crash is invisible in the output.

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

// startPoetdHA launches a poetd child with a telemetry listener and any
// extra flags (the standby adds -follow), and waits until it accepts
// protocol connections. A standby listens immediately — its session
// gate rejects hellos retriably, but the socket answers — so the same
// probe works for both roles.
func startPoetdHA(t *testing.T, bin, addr, dataDir, metricsAddr string, out *proctest.SyncBuffer, extra ...string) *exec.Cmd {
	t.Helper()
	args := []string{
		"-listen", addr,
		"-data-dir", dataDir,
		"-metrics-addr", metricsAddr,
		"-fsync", "always",
		"-snapshot-every", "64",
		// The idle reporters' heartbeat, as in startPoetd.
		"-ack-interval", "5ms",
		"-heartbeat", "25ms",
		"-quiet",
	}
	args = append(args, extra...)
	return proctest.StartServer(t, bin, out, addr, args...)
}

// failoverCase is one case study for the kill-the-primary differential.
type failoverCase struct {
	name     string
	pattern  string
	generate func(sink *captureSink) error
}

func failoverCases() []failoverCase {
	return []failoverCase{
		{
			name:    "msgrace",
			pattern: workload.MsgRacePattern(),
			generate: func(sink *captureSink) error {
				_, err := workload.GenMsgRace(workload.MsgRaceConfig{
					Ranks: 4, Waves: 20, Sink: sink,
				})
				return err
			},
		},
		{
			name:    "deadlock",
			pattern: workload.DeadlockPattern(2),
			generate: func(sink *captureSink) error {
				_, err := workload.GenDeadlock(workload.DeadlockConfig{
					Ranks: 4, CycleLen: 2, Rounds: 60, BugProb: 0.2, Seed: 7, Sink: sink,
				})
				return err
			},
		},
		{
			name:    "atomicity",
			pattern: workload.AtomicityPattern(),
			generate: func(sink *captureSink) error {
				_, err := workload.GenAtomicity(workload.AtomicityConfig{
					Threads: 3, Iterations: 30, BugProb: 0.15, Seed: 7, Sink: sink,
				})
				return err
			},
		},
		{
			name:    "ordering",
			pattern: workload.OrderingPattern(),
			generate: func(sink *captureSink) error {
				_, err := workload.GenReplication(workload.ReplicationConfig{
					Followers: 6, UpdatesPerSession: 8, BugProb: 0.5, Seed: 7, Sink: sink,
				})
				return err
			},
		},
	}
}

func TestFailoverKilledPrimaryMatchesFaultFreeRun(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping process-killing failover differential")
	}
	poetd := proctest.BuildTool(t, "poetd")
	for _, tc := range failoverCases() {
		t.Run(tc.name, func(t *testing.T) { runFailoverCase(t, poetd, tc) })
	}
}

func runFailoverCase(t *testing.T, poetd string, tc failoverCase) {
	// One captured workload drives both the fault-free baseline and the
	// killed-primary run.
	sink := &captureSink{}
	if err := tc.generate(sink); err != nil {
		t.Fatal(err)
	}
	events := sink.events
	if len(events) < 100 {
		t.Fatalf("workload too small (%d events) for a meaningful mid-stream kill", len(events))
	}
	cleanMatches, cleanCov, cleanStats := runCleanBaselineStats(t, tc.pattern, events)
	if len(cleanMatches) == 0 {
		t.Fatal("fault-free run reported no matches; the differential comparison is vacuous")
	}

	addrP, addrS := proctest.FreePort(t), proctest.FreePort(t)
	metricsP, metricsS := proctest.FreePort(t), proctest.FreePort(t)
	out := &proctest.SyncBuffer{}
	primary := startPoetdHA(t, poetd, addrP, t.TempDir(), metricsP, out)
	defer func() {
		if primary.ProcessState == nil {
			_ = primary.Process.Kill()
			_ = primary.Wait()
		}
	}()
	standby := startPoetdHA(t, poetd, addrS, t.TempDir(), metricsS, out,
		"-follow", addrP,
		"-follow-reconnect", "2s")
	defer func() {
		if standby.ProcessState == nil {
			_ = standby.Process.Kill()
			_ = standby.Wait()
		}
	}()
	// Replication must be attached before events flow: from then on every
	// acknowledgement is gated on the replica's confirmation, so anything
	// the reporter considers delivered survives the primary.
	proctest.WaitMetric(t, "the standby's replication session",
		metricsP, "poet_wire_replica_sessions_total", 1)

	pool := addrP + "," + addrS
	rep, err := ocep.DialReporter(pool,
		ocep.WithSessionBackoff(5*time.Millisecond, 200*time.Millisecond),
		ocep.WithSessionHeartbeat(20*time.Millisecond),
		ocep.WithSessionReconnect(60*time.Second),
		ocep.WithSessionLog(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	cli, err := ocep.DialMonitor(pool,
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
	mon, err := ocep.NewMonitor(tc.pattern,
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

	// SIGKILL the primary halfway through the stream. The clients are
	// never told: the reporter's pool must fail over and retransmit its
	// unacknowledged suffix, the monitor must resume at its exact offset,
	// and both must ride out the standby's promotion window (its 2s
	// reconnect budget) on retriable rejections.
	for i, e := range events {
		if i == len(events)/2 {
			if err := rep.Flush(); err != nil {
				t.Fatalf("flush before kill: %v", err)
			}
			if err := primary.Process.Signal(syscall.SIGKILL); err != nil {
				t.Fatalf("killing primary: %v", err)
			}
			_ = primary.Wait()
		}
		if err := rep.Report(e); err != nil {
			t.Fatalf("report event %d: %v", i, err)
		}
	}
	if err := rep.Flush(); err != nil {
		t.Fatalf("flush after failover: %v", err)
	}
	waitCounter(t, "monitor to consume the full stream across the failover",
		reg.FindCounter("ocep_monitor_events_total"), int64(len(events)))

	// SIGINT ends the promoted standby immediately and cleanly: monitor
	// queues are flushed and End frames sent, so Run returns nil.
	if err := standby.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	if err := standby.Wait(); err != nil {
		t.Fatalf("standby clean shutdown: %v\noutput:\n%s", err, out.String())
	}
	if err := <-runDone; err != nil {
		t.Fatalf("monitor run across the failover: %v", err)
	}

	repStats, monStats := rep.Stats(), cli.Stats()
	t.Logf("failover run: reporter %+v, monitor %+v", repStats, monStats)
	if monStats.Received != len(events) {
		t.Fatalf("monitor received %d events, want exactly %d (no loss, no duplication)", monStats.Received, len(events))
	}
	if repStats.Failovers == 0 || monStats.Failovers == 0 {
		t.Fatalf("no session failed over (reporter %d, monitor %d); the kill proved nothing",
			repStats.Failovers, monStats.Failovers)
	}

	name := func(tr ocep.TraceID) string {
		n, _ := cli.TraceName(tr)
		return n
	}
	gotMatches := matchSignatures(matches, name)
	gotCov := coverageSignatures(mon.Coverage(), name)
	if !equalStrings(cleanMatches, gotMatches) {
		t.Errorf("match sets differ:\nfault-free (%d): %v\nkilled-primary (%d): %v",
			len(cleanMatches), cleanMatches, len(gotMatches), gotMatches)
	}
	if !equalStrings(cleanCov, gotCov) {
		t.Errorf("coverage differs:\nfault-free: %v\nkilled-primary: %v", cleanCov, gotCov)
	}
	// The matcher's semantic accounting must agree too — the failover
	// run saw the same stream, so it triggered the same searches and
	// classified every completion identically. (Search-effort counters
	// like backtracks are excluded: they are deterministic in the stream
	// but not part of the observable contract.)
	cs, fs := cleanStats, mon.Stats()
	if cs.EventsSeen != fs.EventsSeen || cs.EventsMatched != fs.EventsMatched ||
		cs.Triggers != fs.Triggers || cs.CompleteMatches != fs.CompleteMatches ||
		cs.Reported != fs.Reported || cs.Redundant != fs.Redundant ||
		cs.TriggersAborted != fs.TriggersAborted {
		t.Errorf("matcher stats differ:\nfault-free:     %+v\nkilled-primary: %+v", cs, fs)
	}
}
