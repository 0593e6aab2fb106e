package ocep_test

// Differential fault test: a monitored run whose every TCP session is
// degraded by a fault-injection proxy (mid-stream resets, partial
// writes, added latency) must report exactly the match set and coverage
// of a fault-free in-process run over the same event sequence — the
// wire layer's exactly-once contract, end to end.

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"ocep"
	"ocep/internal/faultnet"
	"ocep/internal/workload"
)

// captureSink records the raw events of one workload run, freezing a
// sequence that both the clean and the faulty paths then replay: the
// generators schedule goroutines nondeterministically, so the capture —
// not the generator — is the common input.
type captureSink struct {
	mu     sync.Mutex
	events []ocep.RawEvent
}

func (s *captureSink) Report(e ocep.RawEvent) error {
	s.mu.Lock()
	s.events = append(s.events, e)
	s.mu.Unlock()
	return nil
}

// matchSignatures canonicalizes a match set for comparison: each match
// becomes its sorted "trace#index" leaf list, and the set is sorted.
// Trace names, not trace IDs, anchor the comparison so it is
// independent of either side's registration order.
func matchSignatures(matches []ocep.Match, name func(ocep.TraceID) string) []string {
	sigs := make([]string, 0, len(matches))
	for _, m := range matches {
		parts := make([]string, 0, len(m.Events))
		for _, e := range m.Events {
			parts = append(parts, fmt.Sprintf("%s#%d", name(e.ID.Trace), e.ID.Index))
		}
		sigs = append(sigs, strings.Join(parts, " "))
	}
	sort.Strings(sigs)
	return sigs
}

func coverageSignatures(pairs []ocep.CoveredPair, name func(ocep.TraceID) string) []string {
	sigs := make([]string, 0, len(pairs))
	for _, p := range pairs {
		sigs = append(sigs, fmt.Sprintf("leaf%d@%s", p.Leaf, name(p.Trace)))
	}
	sort.Strings(sigs)
	return sigs
}

// waitCounter blocks until a telemetry counter reaches target — the
// event-driven replacement for sleep-polling on pipeline state: the
// counter wakes the waiter on the increment that crosses the target,
// so convergence is detected microseconds after it happens instead of
// at the next poll tick.
func waitCounter(t *testing.T, what string, c *ocep.MetricCounter, target int64) {
	t.Helper()
	if !c.WaitAtLeast(target, 15*time.Second) {
		t.Fatalf("timed out waiting for %s (counter at %d, want %d)", what, c.Value(), target)
	}
}

// runCleanBaseline feeds the captured sequence to an in-process
// collector with a synchronously attached monitor — no wire, no faults.
func runCleanBaseline(t *testing.T, patternSrc string, events []ocep.RawEvent) (matchSigs, covSigs []string) {
	t.Helper()
	matchSigs, covSigs, _ = runCleanBaselineStats(t, patternSrc, events)
	return matchSigs, covSigs
}

// runCleanBaselineStats is runCleanBaseline plus the baseline matcher's
// final Stats, for differentials that also compare search accounting.
func runCleanBaselineStats(t *testing.T, patternSrc string, events []ocep.RawEvent) (matchSigs, covSigs []string, stats ocep.MatcherStats) {
	t.Helper()
	reg := ocep.NewRegistry()
	collector := ocep.NewCollector()
	collector.InstrumentMetrics(reg)
	var mu sync.Mutex
	var matches []ocep.Match
	mon, err := ocep.NewMonitor(patternSrc,
		ocep.WithReportAll(),
		ocep.WithMatchHandler(func(m ocep.Match) {
			mu.Lock()
			matches = append(matches, m)
			mu.Unlock()
		}))
	if err != nil {
		t.Fatal(err)
	}
	mon.Attach(collector)
	for _, e := range events {
		if err := collector.Report(e); err != nil {
			t.Fatalf("clean report: %v", err)
		}
	}
	waitCounter(t, "clean delivery", reg.FindCounter("poet_delivered_events_total"), int64(len(events)))
	if err := mon.Err(); err != nil {
		t.Fatalf("clean monitor: %v", err)
	}
	name := collector.Store().TraceName
	return matchSignatures(matches, name), coverageSignatures(mon.Coverage(), name), mon.Stats()
}

// runFaultyWire replays the same sequence over TCP with both sessions
// proxied through faultnet: the reporter's and the monitor's links are
// chunked into tiny partial writes and repeatedly reset mid-stream
// while the events flow.
func runFaultyWire(t *testing.T, patternSrc string, events []ocep.RawEvent) (matchSigs, covSigs []string) {
	t.Helper()
	reg := ocep.NewRegistry()
	collector := ocep.NewCollector()
	collector.InstrumentMetrics(reg)
	srv := ocep.NewServer(collector, t.Logf)
	srv.SetWireTiming(10*time.Millisecond, 20*time.Millisecond, 2*time.Second)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	repProxy, err := faultnet.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer repProxy.Close()
	monProxy, err := faultnet.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer monProxy.Close()
	// Partial writes on both links; enough of a gap that resets land
	// while frames are in flight.
	repProxy.SetChunk(16, 20*time.Microsecond)
	monProxy.SetChunk(16, 20*time.Microsecond)

	rep, err := ocep.DialReporter(repProxy.Addr(),
		ocep.WithSessionBackoff(2*time.Millisecond, 50*time.Millisecond),
		ocep.WithSessionHeartbeat(20*time.Millisecond),
		ocep.WithSessionReconnect(15*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	cli, err := ocep.DialMonitor(monProxy.Addr(),
		ocep.WithSessionReconnect(15*time.Second),
		ocep.WithSessionBackoff(2*time.Millisecond, 50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	var mu sync.Mutex
	var matches []ocep.Match
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

	// Fault injection is interleaved with the traffic itself: every 40
	// events both live sessions are reset mid-stream, with a short pause
	// first so frames are genuinely in flight when the cut lands. (A
	// wall-clock injector is too coarse here — a small run finishes
	// between ticks and the test proves nothing.)
	for i, e := range events {
		if i > 0 && i%40 == 0 {
			time.Sleep(15 * time.Millisecond)
			repProxy.CutAll()
			monProxy.CutAll()
		}
		if err := rep.Report(e); err != nil {
			t.Fatalf("faulty report: %v", err)
		}
	}
	// No more cuts past this point, so the drain is not racing a fault:
	// require full convergence — every event ingested exactly once and
	// matched.
	if err := rep.Flush(); err != nil {
		t.Fatalf("faulty flush: %v", err)
	}
	waitCounter(t, "faulty delivery", reg.FindCounter("poet_delivered_events_total"), int64(len(events)))
	waitCounter(t, "monitor to consume the stream", reg.FindCounter("ocep_monitor_events_total"), int64(len(events)))

	// Graceful shutdown: the server drains and sends End, the monitor's
	// Run returns nil. An error here means the faults leaked out.
	if err := srv.Close(); err != nil {
		t.Fatalf("server close: %v", err)
	}
	if err := <-runDone; err != nil {
		t.Fatalf("monitor run under faults: %v", err)
	}

	repStats, monStats := rep.Stats(), cli.Stats()
	t.Logf("faulty run: reporter %+v, monitor %+v, proxies rep=%+v mon=%+v",
		repStats, monStats, repProxy.Stats(), monProxy.Stats())
	if monStats.Received != len(events) {
		t.Fatalf("monitor received %d events, want exactly %d", monStats.Received, len(events))
	}
	if repStats.Reconnects == 0 && monStats.Reconnects == 0 {
		t.Fatal("no session was ever interrupted; the fault injection proved nothing")
	}

	name := collector.Store().TraceName
	return matchSignatures(matches, name), coverageSignatures(mon.Coverage(), name)
}

// TestFaultyWireRunMatchesFaultFreeRun is the differential acceptance
// test for the fault-tolerant wire layer: one captured workload, two
// runs — in-process fault-free versus TCP-with-injected-faults — and
// the reported match sets and coverage footprints must be identical.
func TestFaultyWireRunMatchesFaultFreeRun(t *testing.T) {
	sink := &captureSink{}
	if _, err := workload.GenMsgRace(workload.MsgRaceConfig{Ranks: 5, Waves: 20, Sink: sink}); err != nil {
		t.Fatal(err)
	}
	events := sink.events
	if len(events) == 0 {
		t.Fatal("workload produced no events")
	}
	patternSrc := workload.MsgRacePattern()

	cleanMatches, cleanCov := runCleanBaseline(t, patternSrc, events)
	faultMatches, faultCov := runFaultyWire(t, patternSrc, events)

	if len(cleanMatches) == 0 {
		t.Fatal("fault-free run reported no matches; the differential comparison is vacuous")
	}
	if !equalStrings(cleanMatches, faultMatches) {
		t.Errorf("match sets differ:\nfault-free (%d): %v\nfaulty (%d): %v",
			len(cleanMatches), cleanMatches, len(faultMatches), faultMatches)
	}
	if !equalStrings(cleanCov, faultCov) {
		t.Errorf("coverage differs:\nfault-free: %v\nfaulty: %v", cleanCov, faultCov)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
