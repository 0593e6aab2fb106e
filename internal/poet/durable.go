// Durability subsystem: write-ahead logging and snapshots for the
// collector, so a crash-killed poetd restarted against the same data
// directory recovers to exactly the state its peers expect.
//
// Layout of a data directory:
//
//	<dir>/snapshot.poet   last complete snapshot: a dump (see dump.go)
//	<dir>/NNNNNNNN.wal    write-ahead log segments (see internal/wal)
//
// The WAL is the collector's journal (journal.go) on disk: every
// ingested RawEvent — delivered or still buffered awaiting causal
// partners — and every explicit trace registration is encoded once under
// the collector lock, and the WAL appends the bytes the journal stores.
// So WAL order is ingestion order, and recovery rebuilds the identical
// linearization (delivery order, vector clocks, ack watermarks, monitor
// stream offsets) and the identical journal (replica offsets survive).
//
// Snapshots bound recovery time: every SnapshotEvery ingested events the
// registered traces and a verbatim copy of the journal's event records
// go, in ingestion order, to snapshot.poet (temp file + fsync + rename)
// and the WAL segments older than the rotation cut are removed. A
// snapshot is a standalone WAL segment in the same record encoding, read
// and applied as the log itself is. A crash anywhere in that protocol is
// safe: a stale snapshot plus a longer WAL replays extra records that
// land as idempotent stale no-ops.
package poet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"ocep/internal/event"
	"ocep/internal/telemetry"
	"ocep/internal/wal"
)

// SnapshotFile is the name of the snapshot inside a data directory.
const SnapshotFile = "snapshot.poet"

// Sync policies, re-exported so callers do not import internal/wal.
type SyncPolicy = wal.SyncPolicy

const (
	SyncAlways   = wal.SyncAlways
	SyncInterval = wal.SyncInterval
	SyncNone     = wal.SyncNone
)

// ParseSyncPolicy parses "always", "interval", or "none".
func ParseSyncPolicy(s string) (SyncPolicy, error) { return wal.ParseSyncPolicy(s) }

// DurableOptions configures OpenDurable.
type DurableOptions struct {
	// Dir is the data directory, created if missing.
	Dir string
	// Fsync is the WAL fsync policy (default SyncAlways).
	Fsync SyncPolicy
	// FsyncInterval is the flush cadence for SyncInterval/SyncNone.
	FsyncInterval time.Duration
	// SnapshotEvery triggers a snapshot each time this many events have
	// been appended since the last one. 0 means the default (8192);
	// negative disables periodic snapshots (Close still writes one).
	SnapshotEvery int
	// Logf, when non-nil, receives recovery and snapshot progress lines.
	Logf func(format string, args ...any)
}

const defaultSnapshotEvery = 8192

// RecoveryStats describes what startup recovery found and rebuilt.
type RecoveryStats struct {
	// SnapshotEvents and SnapshotPending count the snapshot's events that
	// were delivered on replay and those left buffered.
	SnapshotEvents, SnapshotPending int
	// SnapshotTruncated reports a snapshot cut short by a crash
	// mid-write; the valid prefix was kept and the WAL filled the rest.
	SnapshotTruncated bool
	// WALRecords counts WAL records replayed into the collector.
	WALRecords int
	// StaleRecords counts WAL records that were already covered by the
	// snapshot (a crash between snapshot and truncation leaves them
	// behind; they replay as idempotent no-ops).
	StaleRecords int
	// RejectedRecords counts well-formed WAL records the collector
	// refused for reasons other than staleness (e.g. a duplicate message
	// id). Nonzero values indicate a corrupt-but-CRC-valid log.
	RejectedRecords int
	// DiscardedRecords and DiscardedBytes count the torn/corrupt WAL
	// suffix dropped by crash recovery (see wal.ReplayStats).
	DiscardedRecords, DiscardedBytes int64
	// Delivered and Pending are the collector's state after recovery.
	Delivered, Pending int
	// Elapsed is the wall time recovery took.
	Elapsed time.Duration
}

// Durability write-ahead-logs a collector's ingestion and manages its
// snapshots. Create one with OpenDurable; the zero value is not usable.
type Durability struct {
	c   *Collector
	log *wal.Log
	dir string

	policy        SyncPolicy
	snapshotEvery int
	logf          func(format string, args ...any)
	recovery      RecoveryStats

	// snapMu serializes snapshot writes (periodic vs Close).
	snapMu sync.Mutex
	// snapping guards against overlapping background snapshot triggers.
	snapping  atomic.Bool
	sinceSnap atomic.Int64
	snapshots atomic.Int64
	closed    atomic.Bool
}

// OpenDurable opens (or creates) a data directory, recovers its
// snapshot and write-ahead log into c, and attaches write-ahead logging
// to c's ingestion path. The collector must be fresh: recovery rebuilds
// its entire state. The journal is turned on implicitly (snapshots are
// written from it), so a retaining collector is refused.
func OpenDurable(c *Collector, opts DurableOptions) (*Durability, error) {
	if c.Delivered() > 0 || c.Pending() > 0 {
		return nil, fmt.Errorf("poet: OpenDurable requires a fresh collector")
	}
	if err := c.EnableReplicationLog(); err != nil {
		return nil, err
	}
	if opts.Dir == "" {
		return nil, fmt.Errorf("poet: OpenDurable requires a data directory")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("poet: creating data directory: %w", err)
	}
	d := &Durability{
		c:             c,
		dir:           opts.Dir,
		policy:        opts.Fsync,
		snapshotEvery: opts.SnapshotEvery,
		logf:          opts.Logf,
	}
	if d.snapshotEvery == 0 {
		d.snapshotEvery = defaultSnapshotEvery
	}
	if d.logf == nil {
		d.logf = func(string, ...any) {}
	}
	// Replay happens before d is attached to c, so it does not re-log.
	var err error
	d.recovery, err = recoverInto(c, opts.Dir, d.logf, func(fn func([]byte) error) (st wal.ReplayStats, err error) {
		d.log, st, err = wal.Open(opts.Dir, wal.Options{Policy: opts.Fsync, Interval: opts.FsyncInterval}, fn)
		return st, err
	})
	if err != nil {
		return nil, err
	}
	// The replayed backlog counts toward the next snapshot trigger, so a
	// crash loop cannot grow the WAL without bound.
	d.sinceSnap.Store(int64(d.recovery.WALRecords))

	c.mu.Lock()
	c.durable = d
	c.mu.Unlock()
	if d.recovery.SnapshotEvents+d.recovery.SnapshotPending+d.recovery.WALRecords > 0 {
		d.logf("poet: recovered %d delivered + %d pending events (snapshot %d+%d, wal %d, stale %d, discarded %d) in %v",
			d.recovery.Delivered, d.recovery.Pending,
			d.recovery.SnapshotEvents, d.recovery.SnapshotPending,
			d.recovery.WALRecords, d.recovery.StaleRecords,
			d.recovery.DiscardedRecords, d.recovery.Elapsed.Round(time.Millisecond))
	}
	return d, nil
}

// Recovery returns what startup recovery found.
func (d *Durability) Recovery() RecoveryStats { return d.recovery }

// InstrumentMetrics registers the durability subsystem's metrics with
// reg: snapshot and recovery counters here, plus the underlying WAL's
// append/fsync counters and latency histograms. Call it at wiring
// time — after OpenDurable (recovery itself is not metered) and before
// reporting begins. A nil registry is a no-op. Collector
// InstrumentMetrics calls this automatically for an attached
// durability, so poetd only instruments the collector.
func (d *Durability) InstrumentMetrics(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	d.log.SetMetrics(wal.NewMetrics(reg))
	reg.CounterFunc("poet_snapshots_total", "Snapshots written (including the final one on Close).", d.Snapshots)
	reg.GaugeFunc("poet_recovery_wal_records", "WAL records replayed by the last startup recovery.", func() int64 {
		return int64(d.recovery.WALRecords)
	})
	reg.GaugeFunc("poet_recovery_stale_records", "Replayed WAL records already covered by the snapshot (idempotent no-ops).", func() int64 {
		return int64(d.recovery.StaleRecords)
	})
	reg.GaugeFunc("poet_recovery_discarded_records", "Torn or corrupt WAL records discarded by the last startup recovery.", func() int64 {
		return d.recovery.DiscardedRecords
	})
	reg.GaugeFunc("poet_recovery_delivered_events", "Delivered events rebuilt by the last startup recovery.", func() int64 {
		return int64(d.recovery.Delivered)
	})
}

// Snapshots returns how many snapshots have been written (including the
// final one on Close).
func (d *Durability) Snapshots() int64 { return d.snapshots.Load() }

// Sync flushes and fsyncs the write-ahead log regardless of the
// configured policy — an explicit durability barrier for callers on the
// weaker policies.
func (d *Durability) Sync() error { return d.log.Sync() }

// appendLocked logs one record — an ingested event, or an explicit trace
// registration — in the journal's bytes. Caller holds c.mu.
func (d *Durability) appendLocked(rec []byte) (int64, error) {
	seq, err := d.log.Append(rec)
	if err == nil && rec[0] == recEvent {
		d.sinceSnap.Add(1)
	}
	return seq, err
}

// commit makes the given append durable per policy and triggers a
// background snapshot when the interval has elapsed.
func (d *Durability) commit(seq int64) error {
	err := d.log.Commit(seq)
	if err == nil && d.snapshotEvery > 0 &&
		d.sinceSnap.Load() >= int64(d.snapshotEvery) &&
		!d.closed.Load() && d.snapping.CompareAndSwap(false, true) {
		go func() {
			defer d.snapping.Store(false)
			if d.closed.Load() { // Close snapshots on its own
				return
			}
			if serr := d.Snapshot(); serr != nil {
				d.logf("poet: background snapshot failed: %v", serr)
			}
		}()
	}
	return err
}

// Snapshot writes the collector's current state to the data directory
// and truncates the WAL segments the snapshot makes redundant. Safe to
// call concurrently with ingestion: the state cut and the WAL rotation
// happen atomically under the collector lock, so every event is in
// exactly one of {snapshot, post-cut WAL}.
func (d *Durability) Snapshot() error {
	d.snapMu.Lock()
	defer d.snapMu.Unlock()

	c := d.c
	c.mu.Lock()
	cut, err := d.log.Rotate()
	if err != nil {
		c.mu.Unlock()
		return fmt.Errorf("poet: rotating WAL for snapshot: %w", err)
	}
	st, err := c.snapshotStateLocked()
	d.sinceSnap.Store(0)
	c.mu.Unlock()
	if err != nil {
		return err
	}

	err = writeFileAtomic(filepath.Join(d.dir, SnapshotFile), func(w io.Writer) error { return encodeSnapshot(w, st) })
	if err != nil {
		return err
	}
	// Only now is the pre-cut WAL redundant. A crash before this line
	// replays those segments as stale no-ops against the new snapshot.
	if err := d.log.RemoveSegmentsBefore(cut); err != nil {
		return fmt.Errorf("poet: truncating WAL after snapshot: %w", err)
	}
	d.snapshots.Add(1)
	d.logf("poet: snapshot: %d events, WAL truncated below segment %d", st.journal.events(), cut)
	return nil
}

// Close writes a final snapshot (so restart recovery is a pure snapshot
// load), truncates the WAL, detaches from the collector, and closes the
// log. Safe to call once; the collector remains usable in memory-only
// mode afterwards.
func (d *Durability) Close() error {
	if d.closed.Swap(true) {
		return nil
	}
	snapErr := d.Snapshot()
	c := d.c
	c.mu.Lock()
	if c.durable == d {
		c.durable = nil
	}
	c.mu.Unlock()
	closeErr := d.log.Close()
	if snapErr != nil {
		return snapErr
	}
	return closeErr
}

// ReloadDir replays a durability data directory — snapshot plus WAL —
// into a collector without attaching durability, for offline inspection
// of a recovered state (`poetd -reload <datadir>`).
func ReloadDir(c *Collector, dir string) (RecoveryStats, error) {
	return recoverInto(c, dir, func(string, ...any) {}, func(fn func([]byte) error) (wal.ReplayStats, error) {
		return wal.Replay(dir, fn)
	})
}

// recoverInto replays dir's snapshot and then its write-ahead log into
// c through the normal ingestion path. replay is wal.Open for a
// directory that will be appended to (it repairs a torn tail) and
// wal.Replay for a read-only look.
func recoverInto(c *Collector, dir string, logf func(string, ...any), replay func(func([]byte) error) (wal.ReplayStats, error)) (RecoveryStats, error) {
	var st RecoveryStats
	start := time.Now()
	if f, err := os.Open(filepath.Join(dir, SnapshotFile)); err == nil {
		n, truncated, err := c.reloadSnapshot(f, true)
		f.Close()
		if err != nil {
			return st, err
		}
		st.SnapshotTruncated = truncated
		st.SnapshotEvents = c.Delivered()
		st.SnapshotPending = n - st.SnapshotEvents
		if truncated {
			logf("poet: snapshot torn mid-write; recovered %d-event prefix", n)
		}
	} else if !os.IsNotExist(err) {
		return st, fmt.Errorf("poet: opening snapshot: %w", err)
	}
	walStats, err := replay(func(p []byte) error {
		st.WALRecords++
		// A record the collector refuses is a recovery observation, not a
		// reason to refuse to start: staleness is the expected
		// snapshot/WAL overlap, anything else is counted loudly.
		if err := c.replayRecord(p); errors.Is(err, ErrStaleEvent) {
			st.StaleRecords++
		} else if err != nil {
			st.RejectedRecords++
			logf("poet: recovery rejected WAL record %d: %v", st.WALRecords, err)
		}
		return nil
	})
	if err != nil {
		return st, fmt.Errorf("poet: replaying write-ahead log: %w", err)
	}
	st.DiscardedRecords = int64(walStats.DiscardedRecords)
	st.DiscardedBytes = walStats.DiscardedBytes
	st.Delivered = c.Delivered()
	st.Pending = c.Pending()
	st.Elapsed = time.Since(start)
	return st, nil
}

// Record encoding: one leading kind byte, then varint-framed fields.
// The WAL, dumps and snapshots, the replica stream, and the target
// stream share it (see frame.go); the only difference is how the
// repeating strings are spelled — literally on disk, where every record
// must stand alone, through the connection's string table on the wire.
// Only the first two kinds double as frame kinds.
const (
	recEvent = 1 // trace, seq, kind, msgid, type, text
	recTrace = 2 // name
	recEnd   = 3 // the count of records before it: a dump's last record, never in the log
)

func appendString[S string | []byte](b []byte, s S) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// stringTable is the writing half of a connection's string table: the
// reference (index+1) of every string already spelled out on it. The
// nil table of a WAL record spells every string literally.
type stringTable map[string]uint64

// append spells s as a reference when the peer has seen it, and as
// reference 0 plus the literal otherwise. The literal enters the table
// on both sides when it is short and the table has room — the same test
// recordReader.interned applies, so the two halves never disagree.
func (t stringTable) append(b []byte, s string) []byte { return appendRef(t, b, s) }

// appendRef is append for a string or its bytes, copied only if kept.
func appendRef[S string | []byte](t stringTable, b []byte, s S) []byte {
	if t == nil {
		return appendString(b, s)
	}
	if ref, ok := t[string(s)]; ok {
		return binary.AppendUvarint(b, ref)
	}
	if len(s) <= maxInternLen && len(t) < maxInterned {
		t[string(s)] = uint64(len(t) + 1)
	}
	return appendString(append(b, 0), s)
}

func encodeEventRecord(b []byte, raw *RawEvent, t stringTable) []byte {
	b = append(b, recEvent)
	b = t.append(b, raw.Trace)
	b = binary.AppendUvarint(b, uint64(raw.Seq))
	b = binary.AppendUvarint(b, uint64(raw.Kind))
	b = binary.AppendUvarint(b, raw.MsgID)
	b = t.append(b, raw.Type)
	return appendString(b, raw.Text)
}

func encodeTraceRecord(b []byte, name string, t stringTable) []byte {
	return t.append(append(b, recTrace), name)
}

// replicate frames a journal span for a replica and counts its records
// and event records: a remote send as its export, the rest as the
// RawEvent path spells them through this connection's string table, but
// with no RawEvent built and no string allocated once the table is warm.
func (w *frameWriter) replicate(sp journalSpan) (recs, events int) {
	for p := sp.next(); p != nil; p = sp.next() {
		recs++
		r := recordReader{p: p[1:]}
		if p[0] == recRemote {
			w.export(sp.remotes.At(r.int()), false)
			continue
		}
		w.body = appendRef(w.strs, append(w.body[:0], p[0]), r.bytes()) // the trace, or the registered name
		if p[0] == recEvent {
			events++
			ints := r.p
			r.uvarint() // seq
			r.uvarint() // kind
			r.uvarint() // msgid
			w.body = append(w.body, ints[:len(ints)-len(r.p)]...)
			w.body = append(appendRef(w.strs, w.body, r.bytes()), r.p...) // the type, then the text
		}
		w.emit()
	}
	return recs, events
}

// recordReader cursors over one record payload (a WAL record or a wire
// frame, past its kind byte). The first failure sticks in err and
// empties the cursor, so callers check once after reading every field.
type recordReader struct {
	p   []byte
	err error
	// tab is the reading half of the connection's string table; nil for
	// WAL records.
	tab *[]string
}

func (r *recordReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.p = nil
}

func (r *recordReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.p)
	if n <= 0 {
		r.fail(errFrameOverrun)
		return 0
	}
	r.p = r.p[n:]
	return v
}

// int reads a field that must fit a non-negative int.
func (r *recordReader) int() int {
	v := r.uvarint()
	if v > math.MaxInt {
		r.fail(fmt.Errorf("%w: integer field %d out of range", errFrameMalformed, v))
		return 0
	}
	return int(v)
}

func (r *recordReader) string() string { return string(r.bytes()) }

// bytes reads a string's bytes in place, aliasing the payload.
func (r *recordReader) bytes() []byte {
	n := r.uvarint()
	if n > uint64(len(r.p)) {
		r.fail(errFrameOverrun)
		return nil
	}
	s := r.p[:n]
	r.p = r.p[n:]
	return s
}

// interned reads a string spelled by stringTable.append.
func (r *recordReader) interned() string {
	if r.tab == nil {
		return r.string()
	}
	ref := r.uvarint()
	if ref == 0 {
		s := r.string()
		if r.err == nil && len(s) <= maxInternLen && len(*r.tab) < maxInterned {
			*r.tab = append(*r.tab, s)
		}
		return s
	}
	if ref > uint64(len(*r.tab)) {
		r.fail(fmt.Errorf("%w: index %d, table holds %d", errStringRef, ref-1, len(*r.tab)))
		return ""
	}
	return (*r.tab)[ref-1]
}

// eventRecord reads the fields encodeEventRecord wrote.
func (r *recordReader) eventRecord() RawEvent {
	raw := RawEvent{Trace: r.interned()}
	raw.Seq = r.int()
	raw.Kind = event.Kind(r.uvarint())
	raw.MsgID = r.uvarint()
	raw.Type = r.interned()
	raw.Text = r.string()
	return raw
}

// replayRecord decodes one WAL record and applies it to the collector.
func (c *Collector) replayRecord(p []byte) error {
	if len(p) == 0 {
		return fmt.Errorf("poet: empty WAL record")
	}
	r := &recordReader{p: p[1:]}
	switch p[0] {
	case recEvent:
		raw := r.eventRecord()
		if r.err != nil {
			return fmt.Errorf("poet: malformed WAL event record")
		}
		return c.Report(raw)
	case recTrace:
		name := r.string()
		if r.err != nil || name == "" {
			return fmt.Errorf("poet: malformed WAL trace record")
		}
		c.RegisterTrace(name)
		return nil
	default:
		return fmt.Errorf("poet: unknown WAL record kind %d", p[0])
	}
}
