package ocep_test

// Shard chaos suite: the partition-tolerance proof for the sharded
// collector tier. Every cross-shard dependency — the peer export links
// and the merged monitor's per-shard streams — is routed through
// faultnet proxies and abused mid-workload: one direction blackholed,
// connections flapped with RSTs, the link slowed to a trickle, then
// healed. A partitioned-then-healed 2-shard tier must report exactly
// the fault-free match set, coverage, and matcher stats on all four
// case studies, with the stall surfacing loudly while it lasts (a
// /readyz 503 naming the stalled peer; WedgeErrors from the merge that
// a wait-and-retry caller absorbs). An unhealed partition must produce
// a named wedge diagnosis within the configured bound — never an
// indefinite hang.

import (
	"errors"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"ocep"
	"ocep/internal/faultnet"
	"ocep/internal/proctest"
	"ocep/internal/shard"
)

// chaosTier is a 2-shard poetd tier whose cross-shard and monitor links
// all pass through fault proxies. Reporter (ingest) links stay direct:
// the faults under test are the tier's internal dependencies.
type chaosTier struct {
	addr0, addr1 string          // direct shard protocol addresses
	m0, m1       string          // metrics/health listeners
	px0, px1     *faultnet.Proxy // peer export links toward shard 0 / shard 1
	mpx0, mpx1   *faultnet.Proxy // merged-monitor links toward shard 0 / shard 1
	s0, s1       *exec.Cmd
	out          *proctest.SyncBuffer
}

// monitorSpec is the merged-monitor tier spec routed through the fault
// proxies.
func (ct *chaosTier) monitorSpec() string { return ct.mpx0.Addr() + ";" + ct.mpx1.Addr() }

func (ct *chaosTier) readyz(shardID int) string {
	m := ct.m0
	if shardID == 1 {
		m = ct.m1
	}
	return "http://" + m + "/readyz"
}

// startChaosTier launches both shards. Each shard's -peers spec routes
// the link toward its peer through a proxy (its own entry stays its
// direct address — a shard never dials itself), so one proxy fault
// partitions exactly one direction of the exchange.
func startChaosTier(t *testing.T, poetd string, extra ...string) *chaosTier {
	t.Helper()
	ct := &chaosTier{
		addr0: proctest.FreePort(t), addr1: proctest.FreePort(t),
		m0: proctest.FreePort(t), m1: proctest.FreePort(t),
		out: &proctest.SyncBuffer{},
	}
	var err error
	for _, p := range []struct {
		dst    **faultnet.Proxy
		target string
	}{
		{&ct.px0, ct.addr0}, {&ct.px1, ct.addr1},
		{&ct.mpx0, ct.addr0}, {&ct.mpx1, ct.addr1},
	} {
		if *p.dst, err = faultnet.Listen(p.target); err != nil {
			t.Fatal(err)
		}
		proxy := *p.dst
		t.Cleanup(func() { _ = proxy.Close() })
	}
	spec0 := ct.addr0 + ";" + ct.px1.Addr()
	spec1 := ct.px0.Addr() + ";" + ct.addr1
	ct.s0 = startPoetdShard(t, poetd, ct.addr0, ct.m0, 0, spec0, ct.out, extra...)
	t.Cleanup(func() { proctest.KillIfAlive(ct.s0) })
	ct.s1 = startPoetdShard(t, poetd, ct.addr1, ct.m1, 1, spec1, ct.out, extra...)
	t.Cleanup(func() { proctest.KillIfAlive(ct.s1) })
	return ct
}

// wedgeRetrySource is the wait-and-retry caller of the merge: each
// WedgeError is counted and Next simply retried (the merge waits a
// fresh bound per call), so a transient stall costs diagnoses, not the
// stream. Terminal all-streams-ended wedges pass through.
type wedgeRetrySource struct {
	m *shard.MergedClient

	mu      sync.Mutex
	retries int
}

func (r *wedgeRetrySource) Next() (*ocep.Event, error) {
	for {
		e, err := r.m.Next()
		var w *shard.WedgeError
		if err != nil && errors.As(err, &w) && !w.StreamsEnded {
			r.mu.Lock()
			r.retries++
			r.mu.Unlock()
			continue
		}
		return e, err
	}
}

func (r *wedgeRetrySource) TraceName(tr ocep.TraceID) (string, bool) { return r.m.TraceName(tr) }

func (r *wedgeRetrySource) Retries() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.retries
}

// TestShardChaosPartitionHealsToCleanRun is the healing differential on
// all four case studies: mid-workload, the shard-1→shard-0 export
// direction and the shard-0 monitor stream are blackholed (the
// asymmetric partition a real network produces), the stall is verified
// loud — shard 0's /readyz flips 503 naming peer 1, the merge reports
// wedges that the wait-and-retry consumer absorbs — then the partition
// heals, every proxied link is flapped with RSTs and slowed to a
// trickle, and the tier must still reproduce the fault-free match set,
// coverage, and matcher stats exactly.
func TestShardChaosPartitionHealsToCleanRun(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping process-level shard chaos suite")
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
				t.Fatalf("workload too small (%d events) for a meaningful chaos differential", len(events))
			}
			cleanMatches, cleanCov, cleanStats := runCleanBaselineStats(t, tc.pattern, events)
			if len(cleanMatches) == 0 {
				t.Fatal("single-collector run reported no matches; the differential comparison is vacuous")
			}

			ct := startChaosTier(t, poetd, "-peer-stall-timeout", "250ms")

			// Reporters dial the shards directly: ingest is not under test.
			reporters := make(map[string]*ocep.Reporter, 2)
			tier := make(map[string]shard.TraceReporter[ocep.RawEvent], 2)
			for _, p := range []string{ct.addr0, ct.addr1} {
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

			reg := ocep.NewRegistry()
			merged, err := shard.DialMergedMonitor(ct.monitorSpec(),
				[]shard.MergeOption{
					shard.WithWedgeTimeout(300 * time.Millisecond),
					shard.WithMergeMetrics(reg),
					shard.WithMergeLog(t.Logf),
				},
				ocep.WithSessionBackoff(5*time.Millisecond, 200*time.Millisecond),
				ocep.WithSessionReconnect(60*time.Second),
				ocep.WithSessionLog(t.Logf))
			if err != nil {
				t.Fatal(err)
			}
			defer merged.Close()
			src := &wedgeRetrySource{m: merged}

			var mu sync.Mutex
			var matches []ocep.Match
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
			go func() { runDone <- mon.Run(src) }()

			flushAll := func(stage string) {
				for _, rep := range reporters {
					if err := rep.Flush(); err != nil {
						t.Fatalf("flush %s: %v", stage, err)
					}
				}
			}

			partition := func() {
				flushAll("before partition")
				// One-directional partition: shard 1's exports stop reaching
				// shard 0, and shard 0's monitor stream stops reaching the
				// merge, while the reverse directions stay up.
				ct.px1.SetBlackholeDir(faultnet.ServerToClient, true)
				ct.mpx0.SetBlackholeDir(faultnet.ServerToClient, true)
				// The stall must be loud, not silent: shard 0's readiness
				// flips 503 naming the stalled peer by ID...
				body := proctest.WaitForStatus(t, ct.readyz(0), 503)
				if !strings.Contains(body, "peer 1") || !strings.Contains(body, "shard-peers") {
					t.Fatalf("503 readyz body does not name the stalled peer:\n%s", body)
				}
				// ...with the per-peer info line present even in failure.
				if !strings.Contains(body, "shard-peer-1:") {
					t.Fatalf("readyz body lost the per-peer info line:\n%s", body)
				}
			}
			heal := func() {
				// Heal the partition, then keep abusing the links: flap every
				// proxied connection with a mid-stream RST, and slow the
				// monitor streams to a trickle (latency + 64-byte chunks) for
				// the rest of the workload. That chunk size cuts frames
				// mid-header and mid-varint; the poet package asserts it at
				// the same setting (TestTrickleCutsFramesMidHeaderAndMidVarint)
				// where the frame boundaries are visible.
				ct.px1.SetBlackholeDir(faultnet.ServerToClient, false)
				ct.mpx0.SetBlackholeDir(faultnet.ServerToClient, false)
				for _, p := range []*faultnet.Proxy{ct.px0, ct.px1, ct.mpx0, ct.mpx1} {
					p.CutAll()
				}
				for _, p := range []*faultnet.Proxy{ct.mpx0, ct.mpx1} {
					p.SetLatencyDir(faultnet.ServerToClient, time.Millisecond)
					p.SetChunk(64, 50*time.Microsecond)
				}
			}

			for i, e := range events {
				switch i {
				case len(events) / 3:
					partition()
				case 2 * len(events) / 3:
					heal()
				}
				if err := router.Report(e); err != nil {
					t.Fatalf("route event %d: %v", i, err)
				}
			}
			flushAll("at end of stream")
			// Let the tail of the stream drain at full speed.
			for _, p := range []*faultnet.Proxy{ct.mpx0, ct.mpx1} {
				p.SetLatency(0)
				p.SetChunk(0, 0)
			}
			waitCounter(t, "monitor to consume the full merged stream",
				reg.FindCounter("ocep_monitor_events_total"), int64(len(events)))

			// The healed tier is ready again, and the merge accounted the
			// stall without ever degrading: events were held, diagnosed,
			// retried — never reordered or waived.
			proctest.WaitForStatus(t, ct.readyz(0), 200)
			if st := merged.MergeStats(); st.Incomplete != 0 || st.ShardsLost != 0 {
				t.Fatalf("healed run must not degrade: %+v", st)
			}

			t.Cleanup(func() {
				select {
				case err := <-runDone:
					if err != nil {
						t.Errorf("monitor run over the chaos tier: %v", err)
					}
				case <-time.After(15 * time.Second):
					t.Error("monitor run never ended after the tier shut down")
				}
			})

			for _, s := range []*exec.Cmd{ct.s0, ct.s1} {
				if err := s.Process.Signal(syscall.SIGINT); err != nil {
					t.Fatal(err)
				}
			}
			for _, s := range []*exec.Cmd{ct.s0, ct.s1} {
				if err := s.Wait(); err != nil {
					t.Fatalf("shard clean shutdown: %v\noutput:\n%s", err, ct.out.String())
				}
			}

			name := func(tr ocep.TraceID) string {
				n, _ := merged.TraceName(tr)
				return n
			}
			mu.Lock()
			gotMatches, gotCov, gotStats := matchSignatures(matches, name), coverageSignatures(mon.Coverage(), name), mon.Stats()
			mu.Unlock()
			compareDifferential(t, "partitioned-then-healed", cleanMatches, cleanCov, cleanStats, gotMatches, gotCov, gotStats)
		})
	}
}

// TestShardChaosUnhealedPartitionWedges pins msgrace's receiving rank
// to shard 0 and its senders to shard 1, then blackholes shard 1's
// monitor stream forever (and the peer export link toward shard 1, so
// the shard-level watchdog fires too). Shard 0's stream keeps flowing
// — full of receives whose senders' clocks shard 1 will never emit —
// so the merge queues them blocked. The run must end with a structured
// WedgeError naming shard 1 and the blocking (trace, clock) frontier
// entry within the configured bound — never hang.
func TestShardChaosUnhealedPartitionWedges(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping process-level shard chaos suite")
	}
	poetd := proctest.BuildTool(t, "poetd")
	tc := failoverCases()[0] // msgrace: the densest cross-trace messaging

	sink := &captureSink{}
	if err := tc.generate(sink); err != nil {
		t.Fatal(err)
	}
	events := sink.events
	ct := startChaosTier(t, poetd, "-peer-stall-timeout", "250ms")

	merged, err := shard.DialMergedMonitor(ct.monitorSpec(),
		[]shard.MergeOption{
			shard.WithWedgeTimeout(time.Second),
			shard.WithMergeLog(t.Logf),
		},
		ocep.WithSessionBackoff(5*time.Millisecond, 200*time.Millisecond),
		ocep.WithSessionReconnect(60*time.Second),
		ocep.WithSessionLog(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	defer merged.Close()

	// The unhealed partition, one-directional, applied after the merged
	// monitor's handshakes so the established streams stall mid-flight:
	// shard 0's exports never reach shard 1's follower (watchdog food),
	// and shard 1's monitor stream never reaches the merge (wedge food).
	// The shard1→shard0 export link stays up so shard 0 can release its
	// receives into the stream the merge *can* read.
	ct.px0.SetBlackholeDir(faultnet.ServerToClient, true)
	ct.mpx1.SetBlackholeDir(faultnet.ServerToClient, true)

	reporters := make(map[string]*ocep.Reporter, 2)
	for _, p := range []string{ct.addr0, ct.addr1} {
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
	}
	// Deterministic placement instead of the rendezvous router: the
	// receiving rank p0 on shard 0, every sending rank on shard 1, so
	// the blocked cross-shard dependency's direction is known up front.
	for i, e := range events {
		rep := reporters[ct.addr1]
		if e.Trace == "p0" {
			rep = reporters[ct.addr0]
		}
		if err := rep.Report(e); err != nil {
			t.Fatalf("report event %d: %v", i, err)
		}
	}
	for _, rep := range reporters {
		if err := rep.Flush(); err != nil {
			t.Fatalf("flush: %v", err)
		}
	}

	mon, err := ocep.NewMonitor(tc.pattern)
	if err != nil {
		t.Fatal(err)
	}

	// Fail-fast caller: the first WedgeError ends the run. It must
	// arrive within the bound plus stream latency, not "eventually".
	start := time.Now()
	runDone := make(chan error, 1)
	go func() { runDone <- mon.Run(merged) }()
	var runErr error
	select {
	case runErr = <-runDone:
	case <-time.After(30 * time.Second):
		t.Fatal("wedged merge never surfaced an error: the indefinite hang this PR exists to prevent")
	}
	elapsed := time.Since(start)

	var w *shard.WedgeError
	if !errors.As(runErr, &w) {
		t.Fatalf("run over an unhealed partition = %v, want a *shard.WedgeError", runErr)
	}
	if w.StreamsEnded {
		t.Fatalf("live partition diagnosed as an ended-streams wedge: %v", w)
	}
	if w.Shard != 1 {
		t.Fatalf("wedge names shard %d, want 1 (the blackholed stream): %v", w.Shard, w)
	}
	if int(w.Trace)%2 != 1 {
		t.Fatalf("blocking frontier trace %d is not homed on shard 1: %v", w.Trace, w)
	}
	if w.Need <= w.Have {
		t.Fatalf("blocking frontier entry not ahead of emission (need %d, have %d): %v", w.Need, w.Have, w)
	}
	if len(w.QueueDepths) != 2 || w.QueueDepths[0] == 0 {
		t.Fatalf("queue depths %v do not show shard 0's blocked backlog: %v", w.QueueDepths, w)
	}
	if w.Waited < time.Second {
		t.Fatalf("Waited = %v, want >= the 1s bound", w.Waited)
	}
	// "Within the bound": one wedge bound plus generous slack for
	// process startup and stream latency — nowhere near the 30s hang
	// backstop above.
	if elapsed > 20*time.Second {
		t.Fatalf("diagnosis took %v; the bound is 1s", elapsed)
	}
	if !strings.Contains(runErr.Error(), "shard 1") {
		t.Fatalf("diagnosis does not name the stalled shard: %v", runErr)
	}

	// The shard-level watchdog agrees: shard 1's export follower has
	// heard nothing from shard 0 past the stall bound.
	body := proctest.WaitForStatus(t, ct.readyz(1), 503)
	if !strings.Contains(body, "peer 0") {
		t.Fatalf("shard 1 readyz does not name peer 0:\n%s", body)
	}
	if !strings.Contains(body, "receives held") {
		t.Fatalf("shard 1 readyz does not report its held-event debt:\n%s", body)
	}
}
