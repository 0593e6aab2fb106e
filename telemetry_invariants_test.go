package ocep_test

// Metrics-invariant suite: every layer's telemetry must agree with the
// pipeline's ground truth and with the other layers' counters. Each
// test runs a real workload (in-process, over a fault-injected wire,
// or through crash-durable recovery) and asserts cross-layer accounting
// identities — events ingested equal WAL records appended, delivered
// equals enqueued equals handled at quiescence, wire frames decompose
// into ingested plus stale retransmits, matcher backtracks bound
// backjumps — so a counter that drifts, double-counts, or misses a
// code path fails loudly against an independent source of truth.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ocep"
	"ocep/internal/faultnet"
	"ocep/internal/workload"
)

// metricEq asserts one series' scalar value.
func metricEq(t *testing.T, reg *ocep.Registry, name string, want int64) {
	t.Helper()
	if got := reg.Value(name); got != want {
		t.Errorf("%s = %d, want %d", name, got, want)
	}
}

// captureDeadlock freezes a deadlock workload as a raw-event sequence.
func captureDeadlock(t *testing.T) ([]ocep.RawEvent, string) {
	t.Helper()
	sink := &captureSink{}
	if _, err := workload.GenDeadlock(workload.DeadlockConfig{
		Ranks: 4, CycleLen: 2, Rounds: 40, BugProb: 0.05, Seed: 5, Sink: sink,
	}); err != nil {
		t.Fatal(err)
	}
	if len(sink.events) == 0 {
		t.Fatal("workload produced no events")
	}
	return sink.events, workload.DeadlockPattern(2)
}

// TestTelemetryInvariantsMatchesCountedBeforeEvent: the monitor counts
// an event's matches before the event itself, so a reader that sees
// ocep_monitor_events_total at k sees ocep_monitor_matches_total final
// for those k events — what a test waiting on the event counter relies
// on before it reads the match counter. Every event here is a match, so
// a sample (events read first) must never find fewer matches than
// events. A watcher samples the pair while the monitor is fed directly,
// then in one-event batches through an async attachment. The window it
// looks for is a few instructions wide: on one CPU the watcher seldom
// lands in it, on two it does thousands of times a run.
func TestTelemetryInvariantsMatchesCountedBeforeEvent(t *testing.T) {
	const n = 50000
	raw := func(k int) ocep.RawEvent {
		return ocep.RawEvent{Trace: "p", Seq: k, Kind: ocep.KindInternal, Type: "ping"}
	}
	for _, async := range []bool{false, true} {
		reg := ocep.NewRegistry()
		opts := []ocep.Option{ocep.WithMetrics(reg)}
		if async {
			opts = append(opts, ocep.WithAsyncDelivery(), ocep.WithMaxBatch(1))
		}
		mon, err := ocep.NewMonitor(`A := [*, ping, *]; pattern := A;`, opts...)
		if err != nil {
			t.Fatal(err)
		}
		events := reg.FindCounter("ocep_monitor_events_total")
		matches := reg.FindCounter("ocep_monitor_matches_total")
		var stop atomic.Bool
		var samples, behind int
		watched := make(chan struct{})
		go func() {
			defer close(watched)
			for !stop.Load() {
				e := events.Value()
				if matches.Value() < e {
					behind++
				}
				samples++
			}
		}()
		if async {
			c := ocep.NewCollector()
			mon.Attach(c)
			for k := 1; k <= n; k++ {
				if err := c.Report(raw(k)); err != nil {
					t.Fatal(err)
				}
			}
			mon.Flush()
			mon.Detach()
		} else {
			tid := mon.RegisterTrace("p")
			for k := 1; k <= n; k++ {
				r := raw(k)
				e := &ocep.Event{ID: ocep.EventID{Trace: tid, Index: k}, Kind: r.Kind, Type: r.Type, VC: ocep.VC{int32(k)}.Stamp(int(tid))}
				if ms, err := mon.Feed(e); err != nil || len(ms) != 1 {
					t.Fatalf("event %d: %d matches, %v", k, len(ms), err)
				}
			}
		}
		stop.Store(true)
		<-watched
		if behind > 0 {
			t.Errorf("async=%v: %d of %d samples saw the event counter ahead of the match counter", async, behind, samples)
		}
		metricEq(t, reg, "ocep_monitor_events_total", n)
		metricEq(t, reg, "ocep_monitor_matches_total", n)
	}
}

// TestTelemetryInvariantsInProcess drives an instrumented collector
// with an async instrumented monitor and checks every accounting
// identity the in-process pipeline promises.
func TestTelemetryInvariantsInProcess(t *testing.T) {
	events, patternSrc := captureDeadlock(t)

	reg := ocep.NewRegistry()
	collector := ocep.NewCollector()
	collector.InstrumentMetrics(reg)
	mon, err := ocep.NewMonitor(patternSrc,
		ocep.WithReportAll(),
		ocep.WithAsyncDelivery(),
		ocep.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	mon.Attach(collector)
	for _, e := range events {
		if err := collector.Report(e); err != nil {
			t.Fatalf("report: %v", err)
		}
	}
	collector.Flush()
	if err := mon.Err(); err != nil {
		t.Fatalf("monitor: %v", err)
	}

	n := int64(len(events))
	// The counter-wait primitive must agree that the stream is fully
	// consumed (Flush already guarantees it; WaitAtLeast must not block).
	if !reg.FindCounter("ocep_monitor_events_total").WaitAtLeast(n, 10*time.Second) {
		t.Fatal("monitor events counter never reached the delivered total")
	}

	// Collector ingest accounting against ground truth.
	metricEq(t, reg, "poet_ingested_events_total", n)
	metricEq(t, reg, "poet_stale_reports_total", 0)
	metricEq(t, reg, "poet_rejected_reports_total", 0)
	metricEq(t, reg, "poet_delivered_events_total", n)
	metricEq(t, reg, "poet_pending_events", 0)

	// Stamp accounting: a join clock is materialised at every delivered
	// receive or acquire and nowhere else; every other event shares one.
	var joins int64
	for _, e := range collector.Ordered() {
		if e.Kind == ocep.KindReceive || e.Kind == ocep.KindSyncAcquire {
			joins++
		}
	}
	metricEq(t, reg, "poet_stamp_bases_total", joins)
	if joins == 0 || joins > reg.Value("poet_delivered_events_total") {
		t.Errorf("%d join clocks for %d delivered events", joins, reg.Value("poet_delivered_events_total"))
	}

	// Delivery-queue accounting: one async subscriber, block policy, so
	// at quiescence enqueued == handled == delivered and nothing dropped.
	metricEq(t, reg, "poet_delivery_enqueued_total", n)
	metricEq(t, reg, "poet_delivery_handled_total", n)
	metricEq(t, reg, "poet_delivery_dropped_total", 0)
	metricEq(t, reg, "poet_delivery_queue_depth", 0)
	bh := reg.FindHistogram("poet_delivery_batch_size")
	if bh == nil {
		t.Fatal("batch-size histogram not registered")
	}
	if bh.Sum() != reg.Value("poet_delivery_handled_total") {
		t.Errorf("batch-size histogram sum %d != handled %d",
			bh.Sum(), reg.Value("poet_delivery_handled_total"))
	}
	if bh.Count() != reg.Value("poet_delivery_batches_total") {
		t.Errorf("batch-size histogram count %d != batches %d",
			bh.Count(), reg.Value("poet_delivery_batches_total"))
	}

	// Monitor/matcher accounting.
	stats := mon.Stats()
	if stats.Reported == 0 {
		t.Fatal("no matches reported; the identities below would be vacuous")
	}
	metricEq(t, reg, "ocep_monitor_events_total", n)
	metricEq(t, reg, "ocep_monitor_matches_total", int64(stats.Reported))
	metricEq(t, reg, "ocep_monitor_triggers_total", int64(stats.Triggers))
	metricEq(t, reg, "ocep_monitor_backtracks_total", int64(stats.Backtracks))
	metricEq(t, reg, "ocep_monitor_backjumps_total", int64(stats.Backjumps))
	if stats.CompleteMatches != stats.Reported+stats.Redundant {
		t.Errorf("CompleteMatches %d != Reported %d + Redundant %d",
			stats.CompleteMatches, stats.Reported, stats.Redundant)
	}
	if stats.Backtracks < stats.Backjumps {
		t.Errorf("Backtracks %d < Backjumps %d: every backjump must follow a failed candidate",
			stats.Backtracks, stats.Backjumps)
	}
	dh := reg.FindHistogram("ocep_monitor_domain_size")
	if dh == nil {
		t.Fatal("domain-size histogram not registered")
	}
	if dh.Count() != int64(stats.DomainsComputed) {
		t.Errorf("domain histogram count %d != DomainsComputed %d",
			dh.Count(), stats.DomainsComputed)
	}

	mon.Detach()
	collector.Close()
}

// TestTelemetryInvariantsFaultyWire runs the faultnet chaos workload —
// both TCP sessions chunked and repeatedly reset mid-stream — against
// an instrumented server and collector, then checks that the wire
// counters decompose exactly: every event frame the server ever
// received was either ingested once or absorbed as a stale retransmit,
// and the stale count is bounded by the reporter's retransmissions.
func TestTelemetryInvariantsFaultyWire(t *testing.T) {
	sink := &captureSink{}
	if _, err := workload.GenMsgRace(workload.MsgRaceConfig{Ranks: 5, Waves: 20, Sink: sink}); err != nil {
		t.Fatal(err)
	}
	events := sink.events

	reg := ocep.NewRegistry()
	collector := ocep.NewCollector()
	collector.InstrumentMetrics(reg)
	srv := ocep.NewServer(collector, t.Logf)
	srv.InstrumentMetrics(reg)
	srv.SetWireTiming(10*time.Millisecond, 20*time.Millisecond, 2*time.Second)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	proxy, err := faultnet.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	proxy.SetChunk(16, 20*time.Microsecond)

	// Count the reconnects that retransmitted, from the reporter's log:
	// only their hellos must name traces.
	var logMu sync.Mutex
	retransmitted := 0
	logf := func(format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		var n int
		if _, err := fmt.Sscanf(msg, "poet reporter: retransmitting %d unacked events to", &n); err == nil && n > 0 {
			logMu.Lock()
			retransmitted++
			logMu.Unlock()
		}
	}
	rep, err := ocep.DialReporter(proxy.Addr(),
		ocep.WithSessionBackoff(2*time.Millisecond, 50*time.Millisecond),
		ocep.WithSessionHeartbeat(20*time.Millisecond),
		ocep.WithSessionReconnect(15*time.Second),
		ocep.WithSessionLog(logf))
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()

	for i, e := range events {
		if i > 0 && i%40 == 0 {
			time.Sleep(15 * time.Millisecond)
			proxy.CutAll()
		}
		if err := rep.Report(e); err != nil {
			t.Fatalf("report: %v", err)
		}
	}
	if err := rep.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	// Flush means every event is acked, and acks follow ingestion, so
	// the ingest counters are final; delivery is synchronous with it.
	n := int64(len(events))
	metricEq(t, reg, "poet_ingested_events_total", n)
	metricEq(t, reg, "poet_delivered_events_total", n)
	metricEq(t, reg, "poet_rejected_reports_total", 0)

	repStats := rep.Stats()
	if repStats.Reconnects == 0 {
		t.Fatal("the reporter never reconnected; the chaos run proved nothing")
	}

	// Wire decomposition: every event frame was ingested or stale.
	frames := reg.Value("poet_wire_target_events_total")
	stale := reg.Value("poet_stale_reports_total")
	if frames != n+stale {
		t.Errorf("wire frames %d != ingested %d + stale %d", frames, n, stale)
	}
	metricEq(t, reg, "poet_wire_stale_retransmits_total", stale)
	// A stale frame can only come from a retransmitted event.
	if stale > int64(repStats.Retransmits) {
		t.Errorf("server absorbed %d stale frames but the reporter only retransmitted %d",
			stale, repStats.Retransmits)
	}
	// Each reconnect landed one more target connection. A resume is a
	// hello that names traces, which a reporter whose window is empty at
	// the reconnect has none of; one that retransmits always names some.
	conns := reg.Value("poet_wire_target_conns_total")
	if conns < int64(repStats.Reconnects)+1 {
		t.Errorf("target connections %d < reporter reconnects %d + 1", conns, repStats.Reconnects)
	}
	resumes := reg.Value("poet_wire_target_resumes_total")
	if resumes > int64(repStats.Reconnects) {
		t.Errorf("target resumes %d > reporter reconnects %d", resumes, repStats.Reconnects)
	}
	logMu.Lock()
	t.Logf("%d reconnects, %d of them retransmitting, %d resumes", repStats.Reconnects, retransmitted, resumes)
	if resumes < int64(retransmitted) {
		t.Errorf("target resumes %d < reporter reconnects that retransmitted %d", resumes, retransmitted)
	}
	logMu.Unlock()
	if reg.Value("poet_wire_acks_sent_total") == 0 {
		t.Error("no acks were ever sent, yet the reporter flushed")
	}

	if err := srv.Close(); err != nil {
		t.Fatalf("server close: %v", err)
	}
	collector.Close()
}

// TestTelemetryInvariantsDurableRecovery checks WAL and recovery
// accounting: during ingestion every accepted event appends exactly one
// WAL event record (fsynced under SyncAlways); after a simulated crash
// (the Durability is abandoned un-Closed), reopening the directory
// replays exactly those records, reports zero discards, and does not
// leak the replay into the new incarnation's ingest counters.
func TestTelemetryInvariantsDurableRecovery(t *testing.T) {
	events, _ := captureDeadlock(t)
	dir := t.TempDir()
	n := int64(len(events))

	// First incarnation: durable ingestion and no Close, so the WAL
	// alone carries the state.
	reg1 := ocep.NewRegistry()
	c1 := ocep.NewCollector()
	d1, err := ocep.OpenDurable(c1, ocep.DurableOptions{
		Dir: dir, Fsync: ocep.SyncAlways,
	})
	if err != nil {
		t.Fatal(err)
	}
	c1.InstrumentMetrics(reg1) // instruments the attached durability too
	for _, e := range events {
		if err := c1.Report(e); err != nil {
			t.Fatalf("durable report: %v", err)
		}
	}
	metricEq(t, reg1, "poet_ingested_events_total", n)
	metricEq(t, reg1, "poet_wal_event_records_total", n)
	walAppends := reg1.Value("wal_appends_total")
	wantAppends := n + reg1.Value("poet_wal_trace_records_total")
	if walAppends != wantAppends {
		t.Errorf("wal_appends_total %d != event records %d + trace records %d",
			walAppends, n, reg1.Value("poet_wal_trace_records_total"))
	}
	if got := reg1.FindHistogram("wal_append_ns").Count(); got != walAppends {
		t.Errorf("append latency histogram count %d != appends %d", got, walAppends)
	}
	fsyncs := reg1.Value("wal_fsyncs_total")
	if fsyncs < 1 {
		t.Error("SyncAlways ingestion recorded no fsyncs")
	}
	if got := reg1.FindHistogram("wal_fsync_ns").Count(); got != fsyncs {
		t.Errorf("fsync latency histogram count %d != fsyncs %d", got, fsyncs)
	}
	// Crash: d1 is abandoned without Close. Its file handle leaks for
	// the remainder of the test process, exactly like a SIGKILL.
	_ = d1

	// Second incarnation: recovery must rebuild everything from the WAL.
	reg2 := ocep.NewRegistry()
	c2 := ocep.NewCollector()
	d2, err := ocep.OpenDurable(c2, ocep.DurableOptions{
		Dir: dir, Fsync: ocep.SyncAlways,
	})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	// Instrumenting after OpenDurable is the documented order: the
	// replay must not count as live ingestion.
	c2.InstrumentMetrics(reg2)
	metricEq(t, reg2, "poet_ingested_events_total", 0)
	metricEq(t, reg2, "poet_recovery_wal_records", walAppends)
	metricEq(t, reg2, "poet_recovery_discarded_records", 0)
	metricEq(t, reg2, "poet_recovery_stale_records", 0)
	metricEq(t, reg2, "poet_recovery_delivered_events", n)
	if got := c2.Delivered(); int64(got) != n {
		t.Errorf("recovered collector delivered %d, want %d", got, n)
	}

	// Clean shutdown appends nothing: Close flushes and fsyncs the log.
	fsyncs = reg2.Value("wal_fsyncs_total")
	if err := d2.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	metricEq(t, reg2, "wal_appends_total", 0)
	if got := reg2.Value("wal_fsyncs_total"); got != fsyncs+1 {
		t.Errorf("wal_fsyncs_total = %d after Close, want %d", got, fsyncs+1)
	}
}
