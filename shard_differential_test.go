package ocep_test

// Sharded-tier differential: each case study runs against a tier of
// real poetd shard processes — every shard striping its own trace-ID
// space, exchanging cross-shard send records with its peers, and
// serving its slice of the stream — while a merged monitor client
// weaves the per-shard streams back into one causally consistent
// linearization. The run must report exactly the match set, coverage,
// and semantic matcher statistics of a fault-free single-collector run
// over the same captured event sequence. A second scenario SIGKILLs one
// shard's primary mid-stream with a warm standby attached: the shard's
// clients and every peer follower fail over, the promoted standby
// re-streams its export log from zero, and the output must still be
// identical — a shard crash is invisible in the tier's answer.

import (
	"os/exec"
	"strconv"
	"sync"
	"syscall"
	"testing"
	"time"

	"ocep"
	"ocep/internal/proctest"
	"ocep/internal/shard"
)

// startPoetdShard launches one shard of a collector tier: a poetd child
// with -shard-id/-peers plus any extra flags (a warm standby adds
// -follow), waiting until it accepts protocol connections.
func startPoetdShard(t *testing.T, bin, addr, metricsAddr string, shardID int, peers string, out *proctest.SyncBuffer, extra ...string) *exec.Cmd {
	t.Helper()
	args := []string{
		"-listen", addr,
		"-metrics-addr", metricsAddr,
		"-shard-id", strconv.Itoa(shardID),
		"-peers", peers,
		// The idle reporters' heartbeat, as in startPoetd.
		"-ack-interval", "5ms",
		"-heartbeat", "25ms",
		"-quiet",
	}
	args = append(args, extra...)
	return proctest.StartServer(t, bin, out, addr, args...)
}

// runShardedTier pushes the captured events through a router over
// per-shard pooled reporters, matches the merged monitor stream, and
// returns the run's signatures and stats. kill, when non-nil, is called
// once halfway through the stream (after a flush) to injure the tier.
func runShardedTier(t *testing.T, tc failoverCase, events []ocep.RawEvent, pools []string, kill func()) (matchSigs, covSigs []string, stats ocep.MatcherStats) {
	t.Helper()
	spec := ""
	for i, p := range pools {
		if i > 0 {
			spec += ";"
		}
		spec += p
	}

	// One pooled reporter per shard; the router assigns each trace a
	// home shard by rendezvous hash and keeps it there.
	reporters := make(map[string]*ocep.Reporter, len(pools))
	tier := make(map[string]shard.TraceReporter[ocep.RawEvent], len(pools))
	for _, p := range pools {
		rep, err := ocep.DialReporter(p,
			ocep.WithSessionBackoff(5*time.Millisecond, 200*time.Millisecond),
			ocep.WithSessionHeartbeat(20*time.Millisecond),
			ocep.WithSessionReconnect(60*time.Second),
			ocep.WithSessionLog(t.Logf))
		if err != nil {
			t.Fatal(err)
		}
		defer rep.Close()
		reporters[p] = rep
		tier[p] = rep
	}
	router, err := shard.NewRouter(tier, func(e ocep.RawEvent) string { return e.Trace })
	if err != nil {
		t.Fatal(err)
	}

	merged, err := shard.DialMergedMonitor(spec, nil,
		ocep.WithSessionBackoff(5*time.Millisecond, 200*time.Millisecond),
		ocep.WithSessionReconnect(60*time.Second),
		ocep.WithSessionLog(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	defer merged.Close()

	var mu sync.Mutex
	collected := sync.NewCond(&mu) // a match was appended, or the wait below timed out
	var matches []ocep.Match
	reg := ocep.NewRegistry()
	mon, err := ocep.NewMonitor(tc.pattern,
		ocep.WithReportAll(),
		ocep.WithMetrics(reg),
		ocep.WithMatchHandler(func(m ocep.Match) {
			mu.Lock()
			matches = append(matches, m)
			collected.Broadcast()
			mu.Unlock()
		}))
	if err != nil {
		t.Fatal(err)
	}
	runDone := make(chan error, 1)
	go func() { runDone <- mon.Run(merged) }()

	flushAll := func(stage string) {
		for _, rep := range reporters {
			if err := rep.Flush(); err != nil {
				t.Fatalf("flush %s: %v", stage, err)
			}
		}
	}
	for i, e := range events {
		if kill != nil && i == len(events)/2 {
			flushAll("before kill")
			kill()
		}
		if err := router.Report(e); err != nil {
			t.Fatalf("route event %d: %v", i, err)
		}
	}
	flushAll("at end of stream")
	waitCounter(t, "monitor to consume the full merged stream",
		reg.FindCounter("ocep_monitor_events_total"), int64(len(events)))

	// The caller shuts the shards down; Run must return nil on their
	// End frames.
	t.Cleanup(func() {
		select {
		case err := <-runDone:
			if err != nil {
				t.Errorf("monitor run over the sharded tier: %v", err)
			}
		case <-time.After(15 * time.Second):
			t.Error("monitor run never ended after the tier shut down")
		}
	})

	name := func(tr ocep.TraceID) string {
		n, _ := merged.TraceName(tr)
		return n
	}
	// The counter wait above guarantees the stream is fully consumed, so
	// the match count and the stats below are final even though Run is
	// still blocked waiting for the shards' End frames. The monitor counts
	// an event's matches before the event itself, and both before it hands
	// the matches to the handler: wait for the handler to have collected
	// them all.
	want := reg.FindCounter("ocep_monitor_matches_total").Value()
	timedOut := false
	timer := time.AfterFunc(15*time.Second, func() {
		mu.Lock()
		timedOut = true
		collected.Broadcast()
		mu.Unlock()
	})
	defer timer.Stop()
	mu.Lock()
	defer mu.Unlock()
	for int64(len(matches)) < want && !timedOut {
		collected.Wait()
	}
	if int64(len(matches)) != want {
		t.Fatalf("the match handler collected %d of the %d matches the monitor counted", len(matches), want)
	}
	return matchSignatures(matches, name), coverageSignatures(mon.Coverage(), name), mon.Stats()
}

func TestShardedTierMatchesSingleCollector(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping process-level sharded differential")
	}
	poetd := proctest.BuildTool(t, "poetd")
	for _, tc := range failoverCases() {
		t.Run(tc.name, func(t *testing.T) {
			sink := &captureSink{}
			if err := tc.generate(sink); err != nil {
				t.Fatal(err)
			}
			events := sink.events
			if len(events) < 100 {
				t.Fatalf("workload too small (%d events) for a meaningful differential", len(events))
			}
			cleanMatches, cleanCov, cleanStats := runCleanBaselineStats(t, tc.pattern, events)
			if len(cleanMatches) == 0 {
				t.Fatal("single-collector run reported no matches; the differential comparison is vacuous")
			}

			addr0, addr1 := proctest.FreePort(t), proctest.FreePort(t)
			m0, m1 := proctest.FreePort(t), proctest.FreePort(t)
			spec := addr0 + ";" + addr1
			out := &proctest.SyncBuffer{}
			s0 := startPoetdShard(t, poetd, addr0, m0, 0, spec, out)
			defer proctest.KillIfAlive(s0)
			s1 := startPoetdShard(t, poetd, addr1, m1, 1, spec, out)
			defer proctest.KillIfAlive(s1)

			gotMatches, gotCov, gotStats := runShardedTier(t, tc, events, []string{addr0, addr1}, nil)

			// SIGINT ends both shards immediately and cleanly: monitor
			// queues are flushed and End frames sent, so the merged Run
			// (checked in a cleanup) returns nil.
			for _, s := range []*exec.Cmd{s0, s1} {
				if err := s.Process.Signal(syscall.SIGINT); err != nil {
					t.Fatal(err)
				}
			}
			for _, s := range []*exec.Cmd{s0, s1} {
				if err := s.Wait(); err != nil {
					t.Fatalf("shard clean shutdown: %v\noutput:\n%s", err, out.String())
				}
			}

			compareDifferential(t, "sharded", cleanMatches, cleanCov, cleanStats, gotMatches, gotCov, gotStats)
		})
	}
}

// TestShardedTierSurvivesShardFailover SIGKILLs shard 1's primary
// mid-stream with a warm standby attached. The shard's pooled clients
// fail over, the peer shard's export follower redials through the same
// pool, the promoted standby re-streams shard 1's export log from
// record zero (absorbed idempotently by shard 0), and the tier's output
// must still be identical to the single-collector run.
func TestShardedTierSurvivesShardFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping process-killing sharded differential")
	}
	poetd := proctest.BuildTool(t, "poetd")
	tc := failoverCases()[0] // msgrace: the densest cross-trace messaging

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
		t.Fatal("single-collector run reported no matches; the differential comparison is vacuous")
	}

	addr0 := proctest.FreePort(t)
	addr1p, addr1s := proctest.FreePort(t), proctest.FreePort(t)
	m0, m1p, m1s := proctest.FreePort(t), proctest.FreePort(t), proctest.FreePort(t)
	pool1 := addr1p + "," + addr1s
	spec := addr0 + ";" + pool1
	out := &proctest.SyncBuffer{}

	s0 := startPoetdShard(t, poetd, addr0, m0, 0, spec, out)
	defer proctest.KillIfAlive(s0)
	s1p := startPoetdShard(t, poetd, addr1p, m1p, 1, spec, out,
		"-data-dir", t.TempDir(), "-fsync", "always")
	defer proctest.KillIfAlive(s1p)
	s1s := startPoetdShard(t, poetd, addr1s, m1s, 1, spec, out,
		"-follow", addr1p,
		"-follow-reconnect", "2s")
	defer proctest.KillIfAlive(s1s)
	// The standby must be replicating before traffic flows: from then on
	// shard 1 acks nothing its standby has not confirmed.
	proctest.WaitMetric(t, "the standby's replication session",
		m1p, "poet_wire_replica_sessions_total", 1)

	killed := false
	gotMatches, gotCov, gotStats := runShardedTier(t, tc, events, []string{addr0, pool1}, func() {
		if err := s1p.Process.Signal(syscall.SIGKILL); err != nil {
			t.Fatalf("killing shard 1 primary: %v", err)
		}
		_ = s1p.Wait()
		killed = true
	})
	if !killed {
		t.Fatal("the kill hook never ran; the scenario proved nothing")
	}

	// Clean shutdown: shard 0 and the promoted standby.
	for _, s := range []*exec.Cmd{s0, s1s} {
		if err := s.Process.Signal(syscall.SIGINT); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range []*exec.Cmd{s0, s1s} {
		if err := s.Wait(); err != nil {
			t.Fatalf("shard clean shutdown: %v\noutput:\n%s", err, out.String())
		}
	}

	compareDifferential(t, "killed-shard", cleanMatches, cleanCov, cleanStats, gotMatches, gotCov, gotStats)
}

// compareDifferential requires the sharded run's observable output —
// match set, coverage, and semantic matcher accounting — to equal the
// single-collector baseline's. (Search-effort counters like backtracks
// are excluded: deterministic in the stream but not part of the
// observable contract.)
func compareDifferential(t *testing.T, label string, cleanMatches, cleanCov []string, cleanStats ocep.MatcherStats, gotMatches, gotCov []string, gotStats ocep.MatcherStats) {
	t.Helper()
	if !equalStrings(cleanMatches, gotMatches) {
		t.Errorf("match sets differ:\nsingle-collector (%d): %v\n%s (%d): %v",
			len(cleanMatches), cleanMatches, label, len(gotMatches), gotMatches)
	}
	if !equalStrings(cleanCov, gotCov) {
		t.Errorf("coverage differs:\nsingle-collector: %v\n%s: %v", cleanCov, label, gotCov)
	}
	cs, fs := cleanStats, gotStats
	if cs.EventsSeen != fs.EventsSeen || cs.EventsMatched != fs.EventsMatched ||
		cs.Triggers != fs.Triggers || cs.CompleteMatches != fs.CompleteMatches ||
		cs.Reported != fs.Reported || cs.Redundant != fs.Redundant ||
		cs.TriggersAborted != fs.TriggersAborted {
		t.Errorf("matcher stats differ:\nsingle-collector: %+v\n%s: %+v", cs, label, fs)
	}
}
