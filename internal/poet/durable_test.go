package poet

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"ocep/internal/event"
	"ocep/internal/faultnet"
	"ocep/internal/telemetry"
	"ocep/internal/vclock"
	"ocep/internal/wal"
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
	c1, d1 := openDurable(t, dir, DurableOptions{Fsync: SyncAlways})
	reportAll(t, c1, evs)
	want := stateSig(c1)
	wantAlpha, wantBeta := c1.AckFor("alpha"), c1.AckFor("beta")
	if err := d1.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	c2, d2 := openDurable(t, dir, DurableOptions{Fsync: SyncAlways})
	defer d2.Close()
	rec := d2.Recovery()
	if rec.WALRecords != len(evs) || rec.SnapshotEvents != 0 {
		t.Fatalf("clean-shutdown recovery read %+v, want the WAL's %d events", rec, len(evs))
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
	c1, d1 := openDurable(t, dir, DurableOptions{Fsync: SyncAlways})
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

	c2, d2 := openDurable(t, dir, DurableOptions{Fsync: SyncAlways})
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

// TestDurableDirectoryIsItsWAL: a data directory opened with the
// default options (SyncNone only to spare 100 k fsyncs) holds nothing
// but its write-ahead log after a run and a clean Close — every byte on
// disk is a segment header or an appended record — and the next open
// replays every event from it.
func TestDurableDirectoryIsItsWAL(t *testing.T) {
	dir := t.TempDir()
	evs := durWorkload(33334)
	c1, d1 := openDurable(t, dir, DurableOptions{Fsync: SyncNone})
	reg := telemetry.NewRegistry()
	c1.InstrumentMetrics(reg)
	reportAll(t, c1, evs)
	want := stateSig(c1)
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var size int64
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil || filepath.Ext(e.Name()) != ".wal" {
			t.Fatalf("the data directory holds %s (%v), want only *.wal", e.Name(), err)
		}
		size += fi.Size()
	}
	// A 16-byte header per segment and an 8-byte frame per record.
	if want := 16*int64(len(entries)) + 8*reg.Value("wal_appends_total") + reg.Value("wal_append_bytes_total"); size != want {
		t.Fatalf("the data directory holds %d bytes, want the WAL's %d", size, want)
	}

	c2, d2 := openDurable(t, dir, DurableOptions{Fsync: SyncNone})
	defer d2.Close()
	if rec := d2.Recovery(); rec.WALRecords != len(evs) || rec.SnapshotEvents+rec.SnapshotPending+rec.StaleRecords != 0 {
		t.Fatalf("recovery read %+v, want all %d events from the WAL", rec, len(evs))
	}
	if got := stateSig(c2); !equalSlices(got, want) {
		t.Fatal("recovered state differs from the closed collector's")
	}
}

func TestDurableTornTailDiscardsLastRecord(t *testing.T) {
	dir := t.TempDir()
	evs := durWorkload(20)
	c1, d1 := openDurable(t, dir, DurableOptions{Fsync: SyncAlways})
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

	c2, d2 := openDurable(t, dir, DurableOptions{Fsync: SyncAlways})
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
	c1, d1 := openDurable(t, dir, DurableOptions{Fsync: SyncAlways})
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

	_, d2 := openDurable(t, dir, DurableOptions{Fsync: SyncAlways})
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

// TestDurableTruncatedSnapshotRecovers: a legacy snapshot torn by a
// crash mid-write recovers its valid prefix.
func TestDurableTruncatedSnapshotRecovers(t *testing.T) {
	dir := t.TempDir()
	evs := durWorkload(50)
	snap := legacySnapshot(t, evs)
	if err := os.WriteFile(filepath.Join(dir, SnapshotFile), snap[:len(snap)*2/3], 0o644); err != nil {
		t.Fatal(err)
	}

	c2, d2 := openDurable(t, dir, DurableOptions{Fsync: SyncAlways})
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

// legacySnapshot is the snapshot.poet an earlier build wrote of evs: a
// dump of a journaled collector that ingested them.
func legacySnapshot(t *testing.T, evs []RawEvent) []byte {
	t.Helper()
	c := journaled(t)
	reportAll(t, c, evs)
	var b bytes.Buffer
	if err := c.Dump(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestLegacySnapshotOverlapRecoversAsWAL: a directory an earlier build
// left between writing a snapshot and removing the segments it covers —
// a snapshot.poet of a prefix, and a WAL of the whole run — recovers the
// linearization, stamps, trace IDs and event stream the WAL alone
// rebuilds, and counts the prefix's WAL records as stale.
func TestLegacySnapshotOverlapRecoversAsWAL(t *testing.T) {
	evs := append(jumbledWorkload(600), RawEvent{Trace: "beta", Seq: 99999, Kind: event.KindInternal, Type: "stranded"})
	a := len(evs) / 2
	dir, walOnly := t.TempDir(), t.TempDir()
	c1, d1 := openDurable(t, walOnly, DurableOptions{Fsync: SyncNone})
	c1.RegisterTrace("zeta")
	reportAll(t, c1, evs[:a])
	var snap bytes.Buffer
	if err := c1.Dump(&snap); err != nil {
		t.Fatal(err)
	}
	reportAll(t, c1, evs[a:])
	if err := d1.log.Close(); err != nil { // crash
		t.Fatal(err)
	}
	for _, seg := range walSegments(t, walOnly) {
		b, err := os.ReadFile(seg)
		if err == nil {
			err = os.WriteFile(filepath.Join(dir, filepath.Base(seg)), b, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, SnapshotFile), snap.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	cw, dw := openDurable(t, walOnly, DurableOptions{Fsync: SyncNone})
	defer dw.Close()
	cl, dl := openDurable(t, dir, DurableOptions{Fsync: SyncNone})
	defer dl.Close()
	if rec := dl.Recovery(); rec.SnapshotEvents+rec.SnapshotPending != a || rec.StaleRecords != a || rec.RejectedRecords != 0 {
		t.Fatalf("legacy recovery %+v, want %d snapshot events and as many stale WAL records", rec, a)
	}
	if rec := dw.Recovery(); rec.WALRecords != len(evs)+1 || rec.StaleRecords != 0 {
		t.Fatalf("WAL-only recovery %+v, want %d records", rec, len(evs)+1)
	}
	for _, sig := range []func(*Collector) []string{stateSig, traceNames, journalEvents} {
		if got, want := sig(cl), sig(cw); !equalSlices(got, want) || !equalSlices(want, sig(c1)) {
			t.Fatalf("legacy and WAL-only recovery differ:\nlegacy   %v\nWAL-only %v", got, want)
		}
	}
	if cl.Pending() != c1.Pending() || cl.Pending() == 0 {
		t.Fatalf("legacy recovery holds %d pending, want the writer's %d", cl.Pending(), c1.Pending())
	}

	// The upgrade most directories see: an earlier build's clean shutdown
	// left the snapshot alone; this build appends the rest of the run to
	// a fresh WAL, crashes, and recovers the snapshot and that suffix.
	t.Run("snapshot-then-wal", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, SnapshotFile), snap.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		c2, d2 := openDurable(t, dir, DurableOptions{Fsync: SyncNone})
		if rec := d2.Recovery(); rec.SnapshotEvents+rec.SnapshotPending != a || rec.WALRecords != 0 {
			t.Fatalf("snapshot-only recovery %+v, want %d snapshot events", rec, a)
		}
		reportAll(t, c2, evs[a:])
		if err := d2.log.Close(); err != nil { // crash
			t.Fatal(err)
		}
		c3, d3 := openDurable(t, dir, DurableOptions{Fsync: SyncNone})
		defer d3.Close()
		if rec := d3.Recovery(); rec.SnapshotEvents+rec.SnapshotPending != a || rec.WALRecords != len(evs)-a ||
			rec.StaleRecords != 0 || rec.RejectedRecords != 0 {
			t.Fatalf("recovery %+v, want %d snapshot events, %d WAL records, none stale", rec, a, len(evs)-a)
		}
		for _, sig := range []func(*Collector) []string{stateSig, traceNames, journalEvents} {
			if got, want := sig(c3), sig(c1); !equalSlices(got, want) {
				t.Fatalf("snapshot+WAL recovery differs from the uncrashed run:\ngot  %v\nwant %v", got, want)
			}
		}
		if c3.Pending() != c1.Pending() {
			t.Fatalf("recovery holds %d pending, want the uncrashed run's %d", c3.Pending(), c1.Pending())
		}
	})
}

func TestDurableExplicitTraceOrderSurvives(t *testing.T) {
	dir := t.TempDir()
	c1, d1 := openDurable(t, dir, DurableOptions{Fsync: SyncAlways})
	// Register in an order no event stream would imply: zeta first, and
	// "mute" never reports at all.
	c1.RegisterTrace("zeta")
	c1.RegisterTrace("mute")
	reportAll(t, c1, durWorkload(5))
	wantNames := traceNames(c1)
	if err := d1.log.Close(); err != nil { // crash
		t.Fatal(err)
	}

	c2, d2 := openDurable(t, dir, DurableOptions{Fsync: SyncAlways})
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

// TestReloadFileDirMatchesLiveRecovery: ReloadFile on a data directory
// (poetd -reload <datadir>) rebuilds the crashed writer's state
// read-only, as OpenDurable's recovery does.
func TestReloadFileDirMatchesLiveRecovery(t *testing.T) {
	dir := t.TempDir()
	evs := durWorkload(30)
	c1, d1 := openDurable(t, dir, DurableOptions{Fsync: SyncAlways})
	reportAll(t, c1, evs)
	want := stateSig(c1)
	if err := d1.log.Close(); err != nil { // crash
		t.Fatal(err)
	}
	segs := walSegments(t, dir)
	before, err := os.ReadFile(segs[len(segs)-1])
	if err != nil {
		t.Fatal(err)
	}

	c2 := NewCollector()
	n, err := c2.ReloadFile(dir)
	if err != nil || n != len(evs) {
		t.Fatalf("ReloadFile(dir) = %d, %v; want %d events", n, err, len(evs))
	}
	if got := stateSig(c2); !equalSlices(got, want) {
		t.Fatal("ReloadFile(dir) state differs from the durable original")
	}
	if c2.Durable() != nil {
		t.Fatal("ReloadFile(dir) must not attach durability")
	}
	// Read-only: the directory is as the crash left it.
	after, err := os.ReadFile(segs[len(segs)-1])
	if err != nil || !bytes.Equal(before, after) || !equalSlices(walSegments(t, dir), segs) {
		t.Fatalf("ReloadFile(dir) changed the data directory (%v)", err)
	}
	if _, err := os.Stat(filepath.Join(dir, SnapshotFile)); !os.IsNotExist(err) {
		t.Fatalf("ReloadFile(dir) wrote a snapshot (%v)", err)
	}
}

// admissionBacklog leaves trace p0 holding six out-of-order events: its
// head, a receive, waits on a send nobody has reported, and five more
// queue behind it. p1 delivers two events in between.
func admissionBacklog() []RawEvent {
	evs := []RawEvent{{Trace: "p0", Seq: 1, Kind: event.KindReceive, Type: "r", MsgID: 9}}
	for s := 2; s <= 6; s++ {
		evs = append(evs, RawEvent{Trace: "p0", Seq: s, Kind: event.KindInternal, Type: "x"})
		if s%3 == 0 {
			evs = append(evs, RawEvent{Trace: "p1", Seq: s / 3, Kind: event.KindInternal, Type: "y"})
		}
	}
	return evs
}

// TestRecoveryAndReloadIgnoreAdmissionLimit: a record the writer
// accepted is never refused for load on the way back in. Recovery, a
// dump's Reload and ReloadFile of a data directory each rebuild the
// writer's out-of-order backlog into a collector whose admission limit
// is below the writer's, with the writer's ingest count and acks.
func TestRecoveryAndReloadIgnoreAdmissionLimit(t *testing.T) {
	dir := t.TempDir()
	w, d := openDurable(t, dir, DurableOptions{Fsync: SyncAlways})
	w.SetAdmissionLimit(8)
	w.RegisterTrace("idle")
	evs := admissionBacklog()
	reportAll(t, w, evs)
	if w.Pending() != 6 || w.AckFor("p0") != 6 {
		t.Fatalf("writer holds %d pending, p0 acked to %d; want 6 and 6", w.Pending(), w.AckFor("p0"))
	}
	want := stateSig(w)
	var dump bytes.Buffer
	if err := w.Dump(&dump); err != nil {
		t.Fatal(err)
	}
	if err := d.log.Close(); err != nil { // crash
		t.Fatal(err)
	}
	// The data directory is reloaded read-only before recovery opens it
	// for appending (and Close snapshots into it).
	for _, tc := range []struct {
		name string
		load func(c *Collector) (int, error)
	}{
		{"dump", func(c *Collector) (int, error) { return c.Reload(bytes.NewReader(dump.Bytes())) }},
		{"datadir", func(c *Collector) (int, error) { return c.ReloadFile(dir) }},
		{"recover", func(c *Collector) (int, error) {
			d, err := OpenDurable(c, DurableOptions{Dir: dir, Fsync: SyncAlways})
			if err != nil {
				return 0, err
			}
			t.Cleanup(func() { _ = d.Close() })
			if st := d.Recovery(); st.RejectedRecords != 0 || st.WALRecords != len(evs)+1 {
				t.Errorf("recovery stats %+v, want %d WAL records and none rejected", st, len(evs)+1)
			}
			return c.IngestCount(), nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCollector()
			c.SetAdmissionLimit(2)
			n, err := tc.load(c)
			if err != nil || n != len(evs) {
				t.Fatalf("rebuilt %d events (%v), want all %d", n, err, len(evs))
			}
			if c.IngestCount() != w.IngestCount() || c.Pending() != w.Pending() {
				t.Fatalf("ingested %d with %d pending, want %d with %d", c.IngestCount(), c.Pending(), w.IngestCount(), w.Pending())
			}
			for _, tr := range []string{"p0", "p1", "idle"} {
				if got, want := c.AckFor(tr), w.AckFor(tr); got != want {
					t.Fatalf("AckFor(%s) = %d, want the writer's %d", tr, got, want)
				}
			}
			if got := stateSig(c); !equalSlices(got, want) {
				t.Fatalf("rebuilt state differs:\nwant %v\ngot  %v", want, got)
			}
			// The send the backlog waits on drains all of it.
			if err := c.Report(RawEvent{Trace: "p2", Seq: 1, Kind: event.KindSend, Type: "s", MsgID: 9}); err != nil {
				t.Fatal(err)
			}
			if !c.Drained() || c.Delivered() != len(evs)+1 {
				t.Fatalf("delivered %d of %d after the send", c.Delivered(), len(evs)+1)
			}
		})
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

	spec := Spec{DataDir: dir, Fsync: "always", AckInterval: 3 * time.Millisecond, Heartbeat: 10 * time.Millisecond}
	n1 := openNode(t, spec)
	c1, addr := n1.Collector, n1.Addr
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
	if err := n1.Server.Close(); err != nil {
		t.Fatal(err)
	}
	if err := n1.durable.log.Close(); err != nil {
		t.Fatal(err)
	}
	spec.Listen = addr
	n2 := openNode(t, spec)
	c2 := n2.Collector
	if got := c2.Delivered() + c2.Pending(); got != half {
		// SyncAlways: Report fsyncs before returning, so every event the
		// server ingested is recovered — no more, no less.
		t.Fatalf("recovered %d events, want %d", got, half)
	}

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
	t.Logf("reporter %+v, server stale=%d", rep.Stats(), n2.Server.WireStats().StaleEvents)
}

func TestMonitorResumeBeyondRecoveredStreamRejected(t *testing.T) {
	dir := t.TempDir()
	evs := durWorkload(30)

	spec := Spec{DataDir: dir, Fsync: "always", AckInterval: 3 * time.Millisecond, Heartbeat: 10 * time.Millisecond}
	n1 := openNode(t, spec)
	addr := n1.Addr
	reportAll(t, n1.Collector, evs)
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
	if err := n1.Server.Close(); err != nil {
		t.Fatal(err)
	}
	if err := n1.durable.log.Close(); err != nil {
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
	spec.Listen = addr
	if c2 := openNode(t, spec).Collector; c2.Delivered() >= len(evs) {
		t.Fatalf("truncation lost nothing (delivered %d); test is vacuous", c2.Delivered())
	}

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

// TestRecoveredHeapPerEvent: a collector that OpenDurable recovers keeps
// one copy of each trace, type and text string, as the live collector
// that wrote the log does, though each WAL chunk spells its strings
// afresh. Recovered from the WAL after a crash, and from an earlier
// build's snapshot.poet through the dump reader, it retains at most 2 B
// an event more than the live one.
func TestRecoveredHeapPerEvent(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes heap sizes")
	}
	const traces, n = 32, 100000
	dir := t.TempDir()
	opts := DurableOptions{Fsync: SyncNone}
	heapOf := func(open func() (*Collector, *Durability)) (float64, *Collector, *Durability) {
		before := liveHeap()
		c, d := open()
		return float64(liveHeap()-before) / n, c, d
	}
	live, c, d := heapOf(func() (*Collector, *Durability) {
		c, d := openDurable(t, dir, opts)
		for i := 0; i < n; i++ {
			raw := RawEvent{Trace: fmt.Sprintf("p%d", i%traces), Seq: i/traces + 1, Kind: event.KindInternal, Type: "walk_step", Text: "critical"}
			if err := c.Report(raw); err != nil {
				t.Fatal(err)
			}
		}
		return c, d
	})
	// Crash: no Close.
	if err := d.log.Close(); err != nil {
		t.Fatal(err)
	}
	c, d = nil, nil
	fromWAL, c, d := heapOf(func() (*Collector, *Durability) { return openDurable(t, dir, opts) })
	if rec := d.Recovery(); rec.WALRecords != n || c.Delivered() != n {
		t.Fatalf("recovered %d events from %d WAL records, want %d", c.Delivered(), rec.WALRecords, n)
	}
	// A legacy directory: the run as an earlier build's snapshot.poet.
	legacy := t.TempDir()
	f, err := os.Create(filepath.Join(legacy, SnapshotFile))
	if err == nil {
		err = c.Dump(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err == nil {
		err = d.Close()
	}
	if err != nil {
		t.Fatal(err)
	}
	c, d = nil, nil
	fromSnap, c, d := heapOf(func() (*Collector, *Durability) { return openDurable(t, legacy, opts) })
	defer d.Close()
	if rec := d.Recovery(); rec.SnapshotEvents != n || rec.WALRecords != 0 || c.Delivered() != n {
		t.Fatalf("recovered %d events, %+v, want %d from the snapshot", c.Delivered(), rec, n)
	}
	t.Logf("B retained per event: live %.1f, recovered from the WAL %.1f, from a legacy snapshot %.1f", live, fromWAL, fromSnap)
	if fromWAL > live+2 || fromSnap > live+2 {
		t.Fatalf("a recovered collector retains %.1f (WAL) and %.1f (legacy snapshot) B an event, the live one %.1f: want at most 2 more",
			fromWAL, fromSnap, live)
	}
}

// journalRecords lists c's journal records as the WAL holds them: every
// record and marker in journal order, the peer-shard sends left out.
func journalRecords(c *Collector) (out [][]byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for sp, cur := c.journal.span(journalCursor{}); len(sp.b) > 0; sp, cur = c.journal.span(cur) {
		for p := sp.next(); p != nil; p = sp.next() {
			if p[0] != recRemote {
				out = append(out, slices.Clone(p))
			}
		}
	}
	return out
}

// walRecords reads the data directory's WAL, segment by segment, and
// fails unless each segment opens with a chunk marker.
func walRecords(t *testing.T, dir string) (out [][]byte) {
	t.Helper()
	for _, seg := range walSegments(t, dir) {
		f, err := os.Open(seg)
		if err != nil {
			t.Fatal(err)
		}
		first := len(out)
		_, err = wal.Read(f, func(p []byte) error {
			out = append(out, slices.Clone(p))
			return nil
		})
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(out) > first && out[first][0] != recChunk {
			t.Fatalf("WAL segment %s opens with a kind-%d record, not a chunk marker", filepath.Base(seg), out[first][0])
		}
	}
	return out
}

// TestWALIsTheJournalLessRemoteSends: the WAL appends the bytes the
// journal stores — markers, registrations and events, in journal order —
// and only the peer-shard sends stay off it. The log opens with a
// marker, and so does the run a recovered collector appends after its
// attach, whose records are the recovered journal's from its attach
// marker on.
func TestWALIsTheJournalLessRemoteSends(t *testing.T) {
	dir := t.TempDir()
	open := func() (*Collector, *Durability) {
		c := NewCollector()
		if err := c.EnableSharding(0, 2); err != nil {
			t.Fatal(err)
		}
		d, err := OpenDurable(c, DurableOptions{Dir: dir, Fsync: SyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		return c, d
	}
	// drive reports rounds of sends, remote sends and texts that repeat
	// and that do not, past a journal chunk's worth.
	msg := uint64(0)
	drive := func(c *Collector, from, rounds int) {
		for r := from; r < from+rounds; r++ {
			for k := 0; k < 20; k++ { // the receive takes the last; a run of them can open a chunk
				msg++
				if err := c.SupplyRemoteSend(1<<40+msg, event.ID{Trace: 1, Index: int(msg)}, vclock.VC{0, int32(msg)}.Stamp(1)); err != nil {
					t.Fatal(err)
				}
			}
			reportAll(t, c, []RawEvent{
				{Trace: "p0", Seq: 2*r + 1, Kind: event.KindReceive, Type: "recv", MsgID: 1<<40 + msg},
				{Trace: "p0", Seq: 2*r + 2, Kind: event.KindInternal, Type: "step", Text: fmt.Sprintf("unique-%d", r)},
				{Trace: "p2", Seq: r + 1, Kind: event.KindInternal, Type: "step", Text: "same"},
			})
		}
	}
	c1, d1 := open()
	c1.RegisterTrace("explicit")
	drive(c1, 0, 2000)
	if got, want := walRecords(t, dir), journalRecords(c1); len(want) < 4000 || !slices.EqualFunc(got, want, bytes.Equal) {
		t.Fatalf("the WAL holds %d records, want the journal's %d less its remote sends", len(got), len(want))
	}
	if err := d1.log.Close(); err != nil { // crash
		t.Fatal(err)
	}
	before := len(walRecords(t, dir))
	c2, d2 := open()
	defer d2.Close()
	attach := len(journalRecords(c2)) // the record that will carry the attach's marker
	if rec := d2.Recovery(); rec.RejectedRecords != 0 || c2.IngestCount() != c1.IngestCount() {
		t.Fatalf("recovery: %+v, %d events of %d", rec, c2.IngestCount(), c1.IngestCount())
	}
	drive(c2, 2000, 500)
	if got, want := walRecords(t, dir)[before:], journalRecords(c2)[attach:]; want[0][0] != recChunk || !slices.EqualFunc(got, want, bytes.Equal) {
		t.Fatalf("after recovery the WAL appended %d records, want the journal's %d from its attach marker on", len(got), len(want))
	}
	// A chunk a remote send opens hands its marker on to its first
	// record that spells a string, which the WAL keeps.
	opened := 0
	for _, c := range []*Collector{c1, c2} {
		for _, chunk := range c.journal.chunks {
			sp := journalSpan{b: chunk}
			p := sp.next()
			if p[0] != recRemote {
				continue
			}
			for ; p != nil && p[0] == recRemote; p = sp.next() {
			}
			if p != nil && p[0] != recChunk {
				t.Fatalf("a chunk opened by a remote send continues with an unmarked kind-%d record", p[0])
			}
			opened++
		}
	}
	if opened == 0 {
		t.Fatal("no remote send opened a journal chunk: the workload misses the case")
	}
}

// TestRecoveryTwiceMatchesUncrashedTwin: recover, report more, crash
// with a torn tail, recover again — the log then holds runs from before
// and after an attach, each read through its own chunk's table — and
// the collector is its uncrashed twin: delivery order, stamps, acks and
// the buffered backlog.
func TestRecoveryTwiceMatchesUncrashedTwin(t *testing.T) {
	dir := t.TempDir()
	opts := DurableOptions{Fsync: SyncAlways}
	evs := append(jumbledWorkload(3000), RawEvent{Trace: "beta", Seq: 99999, Kind: event.KindInternal, Type: "stranded"})
	a := len(evs) / 3
	twin := NewCollector()
	reportAll(t, twin, evs)

	c1, d1 := openDurable(t, dir, opts)
	reportAll(t, c1, evs[:a])
	if err := d1.log.Close(); err != nil { // crash
		t.Fatal(err)
	}
	c2, d2 := openDurable(t, dir, opts)
	if got, want := stateSig(c2), stateSig(c1); !equalSlices(got, want) {
		t.Fatalf("first recovery: %d events delivered, want %d", len(got), len(want))
	}
	reportAll(t, c2, evs[a:])
	if err := d2.log.Close(); err != nil { // crash, mid-append: half a record header
		t.Fatal(err)
	}
	segs := walSegments(t, dir)
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{40, 0, 0}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	c3, d3 := openDurable(t, dir, opts)
	defer d3.Close()
	if rec := d3.Recovery(); rec.RejectedRecords != 0 || rec.DiscardedBytes == 0 {
		t.Fatalf("second recovery: %+v, want no rejected record and the torn tail discarded", rec)
	}
	if got, want := stateSig(c3), stateSig(twin); !equalSlices(got, want) {
		t.Fatalf("twice-recovered linearization differs: %d events, want %d", len(got), len(want))
	}
	for _, name := range traceNames(twin) {
		if got, want := c3.AckFor(name), twin.AckFor(name); got != want {
			t.Fatalf("ack for %s is %d, want the twin's %d", name, got, want)
		}
	}
	if c3.Pending() != twin.Pending() || c3.Pending() == 0 || c3.IngestCount() != twin.IngestCount() {
		t.Fatalf("pending %d of %d ingested, want the twin's %d of %d", c3.Pending(), c3.IngestCount(), twin.Pending(), twin.IngestCount())
	}
}
