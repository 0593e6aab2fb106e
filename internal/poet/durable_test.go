package poet

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"ocep/internal/event"
	"ocep/internal/faultnet"
)

// durWorkload builds a deterministic two-trace message workload. Every
// third round the receive arrives before its send, exercising the
// buffering path; all events are deliverable by the end.
func durWorkload(rounds int) []RawEvent {
	var evs []RawEvent
	for i := 0; i < rounds; i++ {
		msg := uint64(i + 1)
		send := RawEvent{Trace: "alpha", Seq: i*2 + 1, Kind: event.KindSend, Type: "req", Text: fmt.Sprintf("r%d", i), MsgID: msg}
		note := RawEvent{Trace: "alpha", Seq: i*2 + 2, Kind: event.KindInternal, Type: "logged"}
		recv := RawEvent{Trace: "beta", Seq: i + 1, Kind: event.KindReceive, Type: "resp", MsgID: msg}
		if i%3 == 0 {
			evs = append(evs, recv, send, note)
		} else {
			evs = append(evs, send, recv, note)
		}
	}
	return evs
}

// stateSig canonicalizes the full recovered state — delivery order,
// trace names, kinds, and vector clocks — for differential comparison.
func stateSig(c *Collector) []string {
	out := make([]string, 0, len(c.Ordered()))
	for _, e := range c.Ordered() {
		out = append(out, fmt.Sprintf("%s#%d k=%d vc=%v p=%v",
			c.Store().TraceName(e.ID.Trace), e.ID.Index, e.Kind, e.VC, e.Partner))
	}
	return out
}

func reportAll(t *testing.T, c *Collector, evs []RawEvent) {
	t.Helper()
	for _, e := range evs {
		if err := c.Report(e); err != nil {
			t.Fatalf("report %v: %v", e, err)
		}
	}
}

func openDurable(t *testing.T, dir string, opts DurableOptions) (*Collector, *Durability) {
	t.Helper()
	opts.Dir = dir
	c := NewCollector()
	d, err := OpenDurable(c, opts)
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	return c, d
}

// walSegments returns the data directory's WAL segment paths, sorted.
func walSegments(t *testing.T, dir string) []string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(segs)
	return segs
}

func TestDurableCleanShutdownRecovery(t *testing.T) {
	dir := t.TempDir()
	evs := durWorkload(40)
	c1, d1 := openDurable(t, dir, DurableOptions{Fsync: SyncAlways, SnapshotEvery: -1})
	reportAll(t, c1, evs)
	want := stateSig(c1)
	wantAlpha, wantBeta := c1.AckFor("alpha"), c1.AckFor("beta")
	if err := d1.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	c2, d2 := openDurable(t, dir, DurableOptions{Fsync: SyncAlways})
	defer d2.Close()
	rec := d2.Recovery()
	// A clean shutdown leaves a complete snapshot and an empty WAL.
	if rec.WALRecords != 0 || rec.SnapshotEvents != len(evs) {
		t.Fatalf("clean-shutdown recovery read %+v, want pure snapshot of %d events", rec, len(evs))
	}
	if got := stateSig(c2); !equalSlices(got, want) {
		t.Fatalf("recovered state differs:\nwant %v\ngot  %v", want, got)
	}
	if a, b := c2.AckFor("alpha"), c2.AckFor("beta"); a != wantAlpha || b != wantBeta {
		t.Fatalf("recovered ack watermarks alpha=%d beta=%d, want %d/%d", a, b, wantAlpha, wantBeta)
	}
}

func TestDurableCrashRecoveryReplaysWAL(t *testing.T) {
	dir := t.TempDir()
	evs := durWorkload(40)
	// Withhold the final round's send so a receive stays buffered: the
	// pending event is acked state and must survive the crash.
	var held RawEvent
	kept := make([]RawEvent, 0, len(evs))
	for _, e := range evs {
		if e.Kind == event.KindSend && e.MsgID == 40 {
			held = e
			continue
		}
		kept = append(kept, e)
	}
	c1, d1 := openDurable(t, dir, DurableOptions{Fsync: SyncAlways, SnapshotEvery: -1})
	reportAll(t, c1, kept)
	if c1.Pending() == 0 {
		t.Fatal("workload should leave a buffered receive")
	}
	wantDelivered, wantPending := c1.Delivered(), c1.Pending()
	wantAlpha, wantBeta := c1.AckFor("alpha"), c1.AckFor("beta")
	want := stateSig(c1)
	// Crash: no snapshot, no clean close. Everything must come from the
	// WAL alone.
	if err := d1.log.Close(); err != nil {
		t.Fatal(err)
	}

	c2, d2 := openDurable(t, dir, DurableOptions{Fsync: SyncAlways, SnapshotEvery: -1})
	defer d2.Close()
	rec := d2.Recovery()
	if rec.WALRecords != len(kept) || rec.SnapshotEvents != 0 {
		t.Fatalf("crash recovery read %+v, want %d WAL records and no snapshot", rec, len(kept))
	}
	if c2.Delivered() != wantDelivered || c2.Pending() != wantPending {
		t.Fatalf("recovered %d delivered + %d pending, want %d + %d",
			c2.Delivered(), c2.Pending(), wantDelivered, wantPending)
	}
	if got := stateSig(c2); !equalSlices(got, want) {
		t.Fatalf("recovered linearization differs:\nwant %v\ngot  %v", want, got)
	}
	if a, b := c2.AckFor("alpha"), c2.AckFor("beta"); a != wantAlpha || b != wantBeta {
		t.Fatalf("recovered ack watermarks alpha=%d beta=%d, want %d/%d", a, b, wantAlpha, wantBeta)
	}
	// The recovered collector keeps working: the missing send releases
	// the buffered receive.
	if err := c2.Report(held); err != nil {
		t.Fatalf("report into recovered collector: %v", err)
	}
	if c2.Pending() != 0 {
		t.Fatalf("%d events still pending after the held send arrived", c2.Pending())
	}
}

func TestDurablePeriodicSnapshotTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	evs := durWorkload(200)
	c1, d1 := openDurable(t, dir, DurableOptions{Fsync: SyncAlways, SnapshotEvery: 100})
	reportAll(t, c1, evs)
	deadline := time.Now().Add(10 * time.Second)
	for d1.Snapshots() == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if d1.Snapshots() == 0 {
		t.Fatal("no periodic snapshot was ever written")
	}
	want := stateSig(c1)
	if err := d1.log.Close(); err != nil { // crash, not clean close
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, SnapshotFile)); err != nil {
		t.Fatalf("snapshot file missing: %v", err)
	}

	c2, d2 := openDurable(t, dir, DurableOptions{Fsync: SyncAlways})
	defer d2.Close()
	rec := d2.Recovery()
	if rec.SnapshotEvents == 0 {
		t.Fatalf("recovery ignored the periodic snapshot: %+v", rec)
	}
	if rec.SnapshotEvents+rec.SnapshotPending+rec.WALRecords-rec.StaleRecords != len(evs) {
		t.Fatalf("snapshot+WAL do not cover the run exactly: %+v (want %d events)", rec, len(evs))
	}
	if got := stateSig(c2); !equalSlices(got, want) {
		t.Fatalf("recovered state differs after snapshot+WAL recovery")
	}
}

func TestDurableTornTailDiscardsLastRecord(t *testing.T) {
	dir := t.TempDir()
	evs := durWorkload(20)
	c1, d1 := openDurable(t, dir, DurableOptions{Fsync: SyncAlways, SnapshotEvery: -1})
	reportAll(t, c1, evs)
	if err := d1.log.Close(); err != nil {
		t.Fatal(err)
	}
	segs := walSegments(t, dir)
	if len(segs) == 0 {
		t.Fatal("no WAL segment written")
	}
	last := segs[len(segs)-1]
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	c2, d2 := openDurable(t, dir, DurableOptions{Fsync: SyncAlways, SnapshotEvery: -1})
	defer d2.Close()
	rec := d2.Recovery()
	if rec.WALRecords != len(evs)-1 || rec.DiscardedRecords != 1 {
		t.Fatalf("torn tail recovery %+v, want %d records and 1 discarded", rec, len(evs)-1)
	}
	total := c2.Delivered() + c2.Pending()
	if total != len(evs)-1 {
		t.Fatalf("recovered %d events, want %d", total, len(evs)-1)
	}
	// The discard counter is visible to operators through WireStats.
	s := NewServer(c2, t.Logf)
	if ws := s.WireStats(); ws.RecoveryDiscarded != 1 {
		t.Fatalf("WireStats.RecoveryDiscarded = %d, want 1", ws.RecoveryDiscarded)
	}
	// The repaired log accepts new appends at the truncation point.
	next := RawEvent{Trace: "gamma", Seq: 1, Kind: event.KindInternal, Type: "post-repair"}
	if err := c2.Report(next); err != nil {
		t.Fatalf("report after repair: %v", err)
	}
}

func TestDurableFlippedByteDiscardsSuffix(t *testing.T) {
	dir := t.TempDir()
	evs := durWorkload(30)
	c1, d1 := openDurable(t, dir, DurableOptions{Fsync: SyncAlways, SnapshotEvery: -1})
	reportAll(t, c1, evs)
	if err := d1.log.Close(); err != nil {
		t.Fatal(err)
	}
	segs := walSegments(t, dir)
	last := segs[len(segs)-1]
	data, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF // CRC mismatch mid-log
	if err := os.WriteFile(last, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, d2 := openDurable(t, dir, DurableOptions{Fsync: SyncAlways, SnapshotEvery: -1})
	defer d2.Close()
	rec := d2.Recovery()
	if rec.DiscardedRecords == 0 {
		t.Fatalf("flipped byte not detected: %+v", rec)
	}
	if rec.WALRecords == 0 {
		t.Fatalf("no valid prefix recovered: %+v", rec)
	}
	if rec.WALRecords+int(rec.DiscardedRecords) != len(evs) {
		t.Fatalf("prefix (%d) + discarded (%d) should cover all %d records",
			rec.WALRecords, rec.DiscardedRecords, len(evs))
	}
}

func TestDurableTruncatedSnapshotRecovers(t *testing.T) {
	dir := t.TempDir()
	evs := durWorkload(50)
	c1, d1 := openDurable(t, dir, DurableOptions{Fsync: SyncAlways, SnapshotEvery: -1})
	reportAll(t, c1, evs)
	if err := d1.Close(); err != nil { // clean: snapshot written, WAL truncated
		t.Fatal(err)
	}
	snap := filepath.Join(dir, SnapshotFile)
	fi, err := os.Stat(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(snap, fi.Size()*2/3); err != nil {
		t.Fatal(err)
	}

	c2, d2 := openDurable(t, dir, DurableOptions{Fsync: SyncAlways, SnapshotEvery: -1})
	defer d2.Close()
	rec := d2.Recovery()
	if !rec.SnapshotTruncated {
		t.Fatalf("truncated snapshot not reported: %+v", rec)
	}
	total := c2.Delivered() + c2.Pending()
	if total == 0 || total >= len(evs) {
		t.Fatalf("recovered %d events from a 2/3 snapshot of %d; want a proper nonempty prefix", total, len(evs))
	}
	// The recovered prefix remains a working collector.
	if err := c2.Report(RawEvent{Trace: "gamma", Seq: 1, Kind: event.KindInternal, Type: "x"}); err != nil {
		t.Fatalf("report after truncated-snapshot recovery: %v", err)
	}
}

func TestDurableExplicitTraceOrderSurvives(t *testing.T) {
	dir := t.TempDir()
	c1, d1 := openDurable(t, dir, DurableOptions{Fsync: SyncAlways, SnapshotEvery: -1})
	// Register in an order no event stream would imply: zeta first, and
	// "mute" never reports at all.
	c1.RegisterTrace("zeta")
	c1.RegisterTrace("mute")
	reportAll(t, c1, durWorkload(5))
	wantNames := traceNames(c1)
	if err := d1.log.Close(); err != nil { // crash
		t.Fatal(err)
	}

	c2, d2 := openDurable(t, dir, DurableOptions{Fsync: SyncAlways, SnapshotEvery: -1})
	defer d2.Close()
	if gotNames := traceNames(c2); !equalSlices(gotNames, wantNames) {
		t.Fatalf("trace numbering changed across recovery: want %v, got %v", wantNames, gotNames)
	}
}

// A journal that misses the start of the run would make every dump
// silently partial; the refusal comes when it is turned on, not at Dump.
func TestDumpNeedsJournalFromTheStart(t *testing.T) {
	c := NewCollector()
	if err := c.Report(RawEvent{Trace: "a", Seq: 1, Kind: event.KindInternal, Type: "x"}); err != nil {
		t.Fatal(err)
	}
	err := c.EnableReplicationLog() // too late: one event already ingested unjournaled
	if err == nil || !strings.Contains(err.Error(), "before any event is ingested") {
		t.Fatalf("late journal must be refused loudly, got %v", err)
	}
	if err := c.Dump(&strings.Builder{}); err == nil {
		t.Fatal("dump of an unjournaled collector must fail")
	}
}

func TestReloadDirMatchesLiveRecovery(t *testing.T) {
	dir := t.TempDir()
	evs := durWorkload(30)
	c1, d1 := openDurable(t, dir, DurableOptions{Fsync: SyncAlways, SnapshotEvery: -1})
	reportAll(t, c1, evs)
	want := stateSig(c1)
	if err := d1.log.Close(); err != nil { // crash
		t.Fatal(err)
	}

	// Offline reload (poetd -reload <datadir>): same state, no
	// durability attached.
	c2 := NewCollector()
	stats, err := ReloadDir(c2, dir)
	if err != nil {
		t.Fatalf("ReloadDir: %v", err)
	}
	if stats.WALRecords != len(evs) {
		t.Fatalf("ReloadDir replayed %d records, want %d", stats.WALRecords, len(evs))
	}
	if got := stateSig(c2); !equalSlices(got, want) {
		t.Fatal("ReloadDir state differs from the durable original")
	}
	if c2.Durable() != nil {
		t.Fatal("ReloadDir must not attach durability")
	}
	// ReloadFile routes directories to ReloadDir.
	c3 := NewCollector()
	n, err := c3.ReloadFile(dir)
	if err != nil || n != c2.Delivered()+c2.Pending() {
		t.Fatalf("ReloadFile(dir) = %d, %v", n, err)
	}
}

func equalSlices(a, b []string) bool {
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

// --- recovery × resume interplay over the wire ---

func TestCrashRecoveryReporterRetransmitExactlyOnce(t *testing.T) {
	dir := t.TempDir()
	evs := durWorkload(60)
	half := len(evs) / 2

	c1, d1 := openDurable(t, dir, DurableOptions{Fsync: SyncAlways, SnapshotEvery: -1})
	s1 := NewServer(c1, t.Logf)
	s1.SetWireTiming(3*time.Millisecond, 10*time.Millisecond, 2*time.Second)
	addr, err := s1.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := DialReporter(addr,
		WithSessionBackoff(2*time.Millisecond, 50*time.Millisecond),
		WithSessionReconnect(15*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	for _, e := range evs[:half] {
		if err := rep.Report(e); err != nil {
			t.Fatalf("report: %v", err)
		}
	}
	waitFor(t, func() bool { return c1.Delivered()+c1.Pending() >= half })

	// Crash the server mid-session. The reporter's unacked suffix (and
	// possibly some already-ingested events whose acks were lost) will be
	// retransmitted against the recovered watermarks.
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d1.log.Close(); err != nil {
		t.Fatal(err)
	}
	c2, d2 := openDurable(t, dir, DurableOptions{Fsync: SyncAlways, SnapshotEvery: -1})
	defer d2.Close()
	if got := c2.Delivered() + c2.Pending(); got != half {
		// SyncAlways: Report fsyncs before returning, so every event the
		// server ingested is recovered — no more, no less.
		t.Fatalf("recovered %d events, want %d", got, half)
	}
	s2 := NewServer(c2, t.Logf)
	s2.SetWireTiming(3*time.Millisecond, 10*time.Millisecond, 2*time.Second)
	if _, err := s2.Listen(addr); err != nil {
		t.Fatalf("rebinding %s: %v", addr, err)
	}
	defer s2.Close()

	for _, e := range evs[half:] {
		if err := rep.Report(e); err != nil {
			t.Fatalf("report after crash: %v", err)
		}
	}
	if err := rep.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	waitFor(t, func() bool { return c2.Delivered() == len(evs) })
	// Exactly-once: every event delivered once, none duplicated (the
	// collector would have rejected a duplicate as stale, and a missing
	// event would leave Delivered short forever).
	if c2.Pending() != 0 {
		t.Fatalf("%d events pending after full replay", c2.Pending())
	}
	fresh := NewCollector()
	reportAll(t, fresh, evs)
	if !equalSlices(stateSig(c2), stateSig(fresh)) {
		t.Fatal("post-crash state differs from an uninterrupted run")
	}
	t.Logf("reporter %+v, server stale=%d", rep.Stats(), s2.WireStats().StaleEvents)
}

func TestMonitorResumeBeyondRecoveredStreamRejected(t *testing.T) {
	dir := t.TempDir()
	evs := durWorkload(30)

	c1, d1 := openDurable(t, dir, DurableOptions{Fsync: SyncAlways, SnapshotEvery: -1})
	s1 := NewServer(c1, t.Logf)
	s1.SetWireTiming(3*time.Millisecond, 10*time.Millisecond, 2*time.Second)
	addr, err := s1.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	reportAll(t, c1, evs)
	// The monitor dials through a fault proxy so the "crash" can cut the
	// session mid-stream — Server.Close alone would send a graceful End
	// frame, which is exactly what a SIGKILL never does.
	proxy, err := faultnet.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	cli, err := DialMonitor(proxy.Addr(),
		WithSessionBackoff(2*time.Millisecond, 50*time.Millisecond),
		WithSessionReconnect(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	for i := 0; i < len(evs); i++ {
		if _, err := cli.Next(); err != nil {
			t.Fatalf("next %d: %v", i, err)
		}
	}

	// Crash, then lose the WAL tail (as a weaker fsync policy would):
	// the recovered stream is shorter than what the monitor consumed.
	proxy.CutAll()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d1.log.Close(); err != nil {
		t.Fatal(err)
	}
	segs := walSegments(t, dir)
	last := segs[len(segs)-1]
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, fi.Size()-40); err != nil {
		t.Fatal(err)
	}
	c2, d2 := openDurable(t, dir, DurableOptions{Fsync: SyncAlways, SnapshotEvery: -1})
	defer d2.Close()
	if c2.Delivered() >= len(evs) {
		t.Fatalf("truncation lost nothing (delivered %d); test is vacuous", c2.Delivered())
	}
	s2 := NewServer(c2, t.Logf)
	s2.SetWireTiming(3*time.Millisecond, 10*time.Millisecond, 2*time.Second)
	if _, err := s2.Listen(addr); err != nil {
		t.Fatal(err)
	}
	defer s2.Close()

	// The client's next read hits the dead connection and tries to
	// resume at an offset the recovered server cannot serve. That must
	// surface promptly as a terminal rejection — not hang, and not spin
	// through the whole 10s reconnect budget.
	done := make(chan error, 1)
	go func() {
		_, err := cli.Next()
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrSessionRejected) {
			t.Fatalf("Next = %v, want an ErrSessionRejected-wrapping error", err)
		}
		if !errors.Is(err, ErrStreamInterrupted) {
			t.Fatalf("Next = %v, must also wrap ErrStreamInterrupted", err)
		}
		if !strings.Contains(err.Error(), "crash recovery rebuilt only") {
			t.Fatalf("rejection should explain the recovery context, got: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Next hung instead of surfacing the rejected resume")
	}
}
