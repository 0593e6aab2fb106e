// Durability subsystem: write-ahead logging for the collector, so a
// crash-killed poetd restarted against the same data directory recovers
// to exactly the state its peers expect.
//
// Layout of a data directory:
//
//	<dir>/NNNNNNNN.wal    write-ahead log segments (see internal/wal)
//	<dir>/snapshot.poet   only in a directory an earlier build wrote: a
//	                      dump (see dump.go) of the journal at its last
//	                      snapshot; read on recovery, never written
//
// The WAL is the collector's journal (journal.go) on disk: every
// ingested RawEvent — delivered or still buffered awaiting causal
// partners — and every explicit trace registration is encoded once under
// the collector lock, and the WAL appends the bytes the journal stores,
// chunk markers included. So WAL order is ingestion order, and recovery
// rebuilds the identical linearization (delivery order, vector clocks,
// ack watermarks, monitor stream offsets) and the identical journal
// (replica offsets survive).
//
// The log is never truncated, and nothing else is written: a copy of
// the journal would hold the same records and save no replay, as the
// journal cannot start past record zero. Recovery replays a legacy
// snapshot.poet first and then the log; the log's records the snapshot
// already held land as idempotent stale no-ops.
package poet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"ocep/internal/event"
	"ocep/internal/telemetry"
	"ocep/internal/wal"
)

// SnapshotFile is the name of the snapshot an earlier build wrote into
// a data directory. Recovery still replays it before the log.
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
	// SnapshotEvery is ignored: no snapshot is written.
	//
	// Deprecated: the write-ahead log is the whole data directory.
	SnapshotEvery int
	// Logf, when non-nil, receives recovery progress lines.
	Logf func(format string, args ...any)
}

// RecoveryStats describes what startup recovery found and rebuilt.
type RecoveryStats struct {
	// SnapshotEvents and SnapshotPending count the events of a legacy
	// snapshot (SnapshotFile) that were delivered on replay and those
	// left buffered; both are 0 in a directory this build wrote.
	SnapshotEvents, SnapshotPending int
	// SnapshotTruncated reports a legacy snapshot cut short by a crash
	// mid-write; the valid prefix was kept and the WAL filled the rest.
	SnapshotTruncated bool
	// WALRecords counts WAL records replayed into the collector.
	WALRecords int
	// StaleRecords counts WAL records that a legacy snapshot already
	// held (its writer crashed before truncating the log); they replay
	// as idempotent no-ops.
	StaleRecords int
	// RejectedRecords counts WAL records the collector refused for
	// reasons other than staleness (e.g. a duplicate message id), never
	// for load: admission control binds reporters only. Nonzero values
	// indicate a corrupt-but-CRC-valid log.
	RejectedRecords int
	// DiscardedRecords and DiscardedBytes count the torn/corrupt WAL
	// suffix dropped by crash recovery (see wal.ReplayStats).
	DiscardedRecords, DiscardedBytes int64
	// Delivered and Pending are the collector's state after recovery.
	Delivered, Pending int
	// Elapsed is the wall time recovery took.
	Elapsed time.Duration
}

// Durability write-ahead-logs a collector's ingestion. Create one with
// OpenDurable; the zero value is not usable.
type Durability struct {
	c        *Collector
	log      *wal.Log
	policy   SyncPolicy
	recovery RecoveryStats
	closed   atomic.Bool
}

// OpenDurable opens (or creates) a data directory, recovers its
// write-ahead log (after a legacy snapshot, if the directory holds one)
// into c, and attaches write-ahead logging to c's ingestion path. The
// collector must be fresh: recovery rebuilds its entire state. The
// journal is turned on implicitly (the log appends its bytes), so a
// retaining collector is refused.
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
	d := &Durability{c: c, policy: opts.Fsync}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	// Replay happens before d is attached to c, so it does not re-log.
	var err error
	d.recovery, err = recoverInto(c, opts.Dir, logf, func(fn func([]byte) error) (st wal.ReplayStats, err error) {
		d.log, st, err = wal.Open(opts.Dir, wal.Options{Policy: opts.Fsync, Interval: opts.FsyncInterval}, fn)
		return st, err
	})
	if err != nil {
		return nil, err
	}

	c.mu.Lock()
	c.durable, c.journal.cut = d, true
	c.mu.Unlock()
	if d.recovery.SnapshotEvents+d.recovery.SnapshotPending+d.recovery.WALRecords > 0 {
		logf("poet: recovered %d delivered + %d pending events (snapshot %d+%d, wal %d, stale %d, discarded %d) in %v",
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
// reg: recovery gauges here, plus the underlying WAL's
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
	reg.GaugeFunc("poet_recovery_wal_records", "WAL records replayed by the last startup recovery.", func() int64 {
		return int64(d.recovery.WALRecords)
	})
	reg.GaugeFunc("poet_recovery_stale_records", "Replayed WAL records already covered by a legacy snapshot (idempotent no-ops).", func() int64 {
		return int64(d.recovery.StaleRecords)
	})
	reg.GaugeFunc("poet_recovery_discarded_records", "Torn or corrupt WAL records discarded by the last startup recovery.", func() int64 {
		return d.recovery.DiscardedRecords
	})
	reg.GaugeFunc("poet_recovery_delivered_events", "Delivered events rebuilt by the last startup recovery.", func() int64 {
		return int64(d.recovery.Delivered)
	})
}

// Sync flushes and fsyncs the write-ahead log regardless of the
// configured policy — an explicit durability barrier for callers on the
// weaker policies.
func (d *Durability) Sync() error { return d.log.Sync() }

// Snapshot is Sync: no snapshot is written.
//
// Deprecated: use Sync.
func (d *Durability) Snapshot() error { return d.Sync() }

// Close detaches from the collector, then flushes, fsyncs and closes the
// log. Safe to call more than once; the collector remains usable in
// memory-only mode afterwards.
func (d *Durability) Close() error {
	if d.closed.Swap(true) {
		return nil
	}
	c := d.c
	c.mu.Lock()
	if c.durable == d {
		c.durable = nil
	}
	c.mu.Unlock()
	return d.log.Close()
}

// recoverInto replays dir's legacy snapshot, if any, and then its
// write-ahead log into c through apply, which no admission limit
// refuses. replay is wal.Open for a directory that will be appended to
// (it repairs a torn tail) and wal.Replay for a read-only look
// (ReloadFile on a directory).
func recoverInto(c *Collector, dir string, logf func(string, ...any), replay func(func([]byte) error) (wal.ReplayStats, error)) (RecoveryStats, error) {
	var st RecoveryStats
	start := time.Now()
	rd := recordReader{lits: make(map[string]string)}
	if f, err := os.Open(filepath.Join(dir, SnapshotFile)); err == nil {
		n, truncated, err := c.reloadSnapshot(f, true, rd.lits)
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
		err := c.replayRecord(p, &rd)
		if errors.Is(err, errLiteralLog) {
			return err
		}
		st.WALRecords++
		// A record the collector refuses is a recovery observation, not a
		// reason to refuse to start: staleness is the expected overlap
		// with a legacy snapshot, anything else is counted loudly.
		if errors.Is(err, ErrStaleEvent) {
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
// stream share it (see frame.go); each spells the repeating strings
// through a string table — the connection's on the wire, on disk the
// journal chunk's, so a chunk stands alone. Only the first two kinds
// double as frame kinds.
const (
	recEvent = 1 // trace, seq, kind, msgid, type, text
	recTrace = 2 // name
	recEnd   = 3 // the count of records before it: a dump's last record, never in the log
	recChunk = 5 // before a record's kind: the string table starts empty (recRemote is 4)
)

// isEvent reports whether a WAL or dump record, past any marker, is an
// event record.
func isEvent(p []byte) bool {
	return p[0] == recEvent || p[0] == recChunk && len(p) > 1 && p[1] == recEvent
}

// errLiteralLog names the literal spelling of earlier builds.
var errLiteralLog = errors.New("poet: literal-era dump or write-ahead log (no chunk marker at its head) rejected: records now spell their strings through a per-chunk string table, and this build reads no other spelling")

func appendString[S string | []byte](b []byte, s S) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// stringTable is the writing half of a string table: the reference
// (index+1) of every string already spelled out through it.
type stringTable map[string]uint64

// appendRef spells s (a string or its bytes, copied only if kept) as a
// reference when the reader has seen it, and as reference 0 plus the
// literal otherwise. The literal enters the table on both sides when it
// is short and the table has room — the same test recordReader.interned
// applies, so the two halves never disagree, and neither holds more than
// maxInterned strings of maxInternLen bytes.
func appendRef[S string | []byte](t stringTable, b []byte, s S) []byte {
	if ref, ok := t[string(s)]; ok {
		return binary.AppendUvarint(b, ref)
	}
	if len(s) <= maxInternLen && len(t) < maxInterned {
		t[string(s)] = uint64(len(t) + 1)
	}
	return appendString(append(b, 0), s)
}

// encodeRecord encodes raw as an event record, or at Seq 0 as a trace
// registration naming raw.Trace.
func encodeRecord(b []byte, raw *RawEvent, t stringTable) []byte {
	if raw.Seq == 0 {
		return appendRef(t, append(b, recTrace), raw.Trace)
	}
	b = append(b, recEvent)
	b = appendRef(t, b, raw.Trace)
	b = binary.AppendUvarint(b, uint64(raw.Seq))
	b = binary.AppendUvarint(b, uint64(raw.Kind))
	b = binary.AppendUvarint(b, raw.MsgID)
	b = appendRef(t, b, raw.Type)
	return appendRef(t, b, raw.Text)
}

// chunkRef is a journal chunk's string and its connection reference, if any.
type chunkRef struct {
	s   []byte
	ref uint64
}

// replicate frames a journal span for a replica and counts its event
// records: a remote send as its export, the rest as the RawEvent path
// spells them through this connection's string table, where w.chunk maps
// the chunk's references (a warm string costs an index, not a hash).
// Unless emit, it only learns the span's strings.
func (w *frameWriter) replicate(sp journalSpan, emit bool) (events int) {
	for p := sp.next(); p != nil; p = sp.next() {
		if p[0] == recChunk {
			w.chunk, p = w.chunk[:0], p[1:]
		}
		r := recordReader{p: p[1:]}
		if p[0] == recRemote {
			if emit {
				w.export(sp.remotes.At(r.int()), false)
			}
			continue
		}
		w.body = w.ref(append(w.body[:0], p[0]), &r, emit) // the trace, or the registered name
		if p[0] == recEvent {
			events++
			ints := r.p
			r.uvarint() // seq
			r.uvarint() // kind
			r.uvarint() // msgid
			w.body = append(w.body, ints[:len(ints)-len(r.p)]...)
			w.body = w.ref(w.ref(w.body, &r, emit), &r, emit) // the type, then the text
		}
		if emit {
			w.emit()
		}
	}
	return events
}

// ref respells a journal record's string; a literal enters w.chunk as
// appendRef entered it in the chunk's table.
func (w *frameWriter) ref(b []byte, r *recordReader, emit bool) []byte {
	ref := r.uvarint()
	if ref == 0 {
		s := r.bytes()
		if len(s) > maxInternLen || len(w.chunk) >= maxInterned {
			if emit {
				b = appendRef(w.strs, b, s)
			}
			return b
		}
		w.chunk = append(w.chunk, chunkRef{s: s})
		ref = uint64(len(w.chunk))
	}
	if cr := &w.chunk[ref-1]; emit && cr.ref > 0 {
		b = binary.AppendUvarint(b, cr.ref)
	} else if emit {
		b = appendRef(w.strs, b, cr.s)
		cr.ref = w.strs[string(cr.s)]
	}
	return b
}

// recordReader cursors over one record payload (a WAL record or a wire
// frame, past its kind byte). The first failure sticks in err and
// empties the cursor, so callers check once after reading every field.
type recordReader struct {
	p   []byte
	err error
	// tab is the reading half of the record's string table; lits, when
	// set, keeps one copy of each string across tables (same bounds).
	tab  *[]string
	lits map[string]string
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

// interned reads a string spelled by appendRef.
func (r *recordReader) interned() string {
	ref := r.uvarint()
	if ref == 0 {
		b := r.bytes()
		s, ok := r.lits[string(b)]
		if !ok {
			s = string(b)
			if r.lits != nil && r.err == nil && len(s) <= maxInternLen && len(r.lits) < maxInterned {
				r.lits[s] = s
			}
		}
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

// kind reads an event kind, refusing one above event.KindSyncRelease
// before it could wrap into a Kind's byte.
func (r *recordReader) kind() event.Kind {
	k := r.uvarint()
	if r.err == nil && k > uint64(event.KindSyncRelease) {
		r.fail(fmt.Errorf("%w: %d", ErrEventKind, k))
		return 0
	}
	return event.Kind(k)
}

// record reads the fields encodeRecord wrote for a record of kind
// recEvent or recTrace.
func (r *recordReader) record(kind byte) RawEvent {
	raw := RawEvent{Trace: r.interned()}
	if kind == recTrace {
		return raw
	}
	raw.Seq = r.int()
	raw.Kind = r.kind()
	raw.MsgID = r.uvarint()
	raw.Type = r.interned()
	raw.Text = r.interned()
	return raw
}

// replayRecord decodes one record of a WAL or dump read in order through
// r and applies it; a marker empties r's table first.
func (c *Collector) replayRecord(p []byte, r *recordReader) error {
	if p[0] == recChunk && len(p) > 1 {
		r.tab, p = &[]string{}, p[1:]
	}
	switch {
	case r.tab == nil:
		return errLiteralLog
	case p[0] != recEvent && p[0] != recTrace:
		return fmt.Errorf("poet: unknown WAL record kind %d", p[0])
	}
	r.p, r.err = p[1:], nil
	raw := r.record(p[0])
	if r.err != nil {
		return fmt.Errorf("poet: malformed WAL record of kind %d: %w", p[0], r.err)
	}
	if p[0] == recEvent && raw.Seq == 0 || p[0] == recTrace && raw.Trace == "" {
		return fmt.Errorf("poet: malformed WAL record of kind %d", p[0])
	}
	return c.apply(raw)
}
