// Package wal implements the collector's write-ahead log: an
// append-only, segmented, per-record-checksummed log of opaque payloads
// with a configurable durability policy. The poet collector appends one
// record per ingested raw event (in ingestion order, which makes the
// rebuilt linearization identical on replay). A log only grows: it
// appends to its last segment, and it reads the earlier segments an
// older build's rotations left behind.
//
// On-disk layout: a directory of numbered segment files
// ("00000001.wal", "00000002.wal", ...), each opening with a 16-byte
// header (8-byte magic, 8-byte little-endian segment index) followed by
// records framed as
//
//	[4-byte LE payload length][4-byte LE CRC32-C of payload][payload]
//
// Recovery replays segments in index order and stops at the first torn
// or corrupt record — a partial frame at the tail (the crash interrupted
// a write) or a CRC mismatch (bit rot, torn sector) — truncating the log
// there so subsequent appends continue from the last durable prefix
// instead of refusing to start. Everything after the corruption point is
// counted, never silently dropped.
//
// A standalone segment (header index 0) written by Writer to any
// io.Writer is the poet collector's dump format; Read scans
// one from any io.Reader with the same code that replays the log.
//
// Durability is a policy, not a promise: SyncAlways fsyncs before an
// append commits (group commit — concurrent committers share one fsync),
// SyncInterval fsyncs on a timer, SyncNone leaves flushing to the OS.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"ocep/internal/telemetry"
)

// SyncPolicy selects when appended records are forced to stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs before Commit returns: an acknowledged record
	// survives any crash. Concurrent committers share fsyncs (group
	// commit), so the cost amortizes under load.
	SyncAlways SyncPolicy = iota
	// SyncInterval flushes and fsyncs on a timer (Options.Interval). A
	// crash loses at most one interval of records.
	SyncInterval
	// SyncNone never fsyncs; records are flushed to the OS on the same
	// timer but survive only process crashes, not machine crashes.
	SyncNone
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNone:
		return "none"
	}
	return "unknown"
}

// ParseSyncPolicy parses the poetd -fsync flag values.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "none":
		return SyncNone, nil
	}
	return 0, fmt.Errorf("wal: unknown sync policy %q (want always, interval, or none)", s)
}

// Options configures a Log.
type Options struct {
	// Policy selects the durability policy (default SyncAlways).
	Policy SyncPolicy
	// Interval is the flush/fsync cadence for SyncInterval and the
	// flush cadence for SyncNone (default 100ms). Ignored by SyncAlways.
	Interval time.Duration
}

func (o Options) norm() Options {
	if o.Interval <= 0 {
		o.Interval = 100 * time.Millisecond
	}
	return o
}

const (
	segMagic      = "OCEPWAL1"
	segHeaderSize = 16
	recHeaderSize = 8
	// MaxRecord bounds a single payload; a longer length prefix marks a
	// corrupt frame.
	MaxRecord   = 1 << 26
	readBufSize = 1 << 18
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrNoHeader reports input that does not open with a segment header.
var ErrNoHeader = errors.New("wal: input does not open with a segment header (" + segMagic + ")")

// segHeader is the header of segment idx.
func segHeader(idx uint64) (hdr [segHeaderSize]byte) {
	copy(hdr[:8], segMagic)
	binary.LittleEndian.PutUint64(hdr[8:], idx)
	return hdr
}

// writeRecord frames one payload into w: its length and CRC, then the
// bytes. rh is the caller's header scratch (a local escapes via w.Write).
// A bufio.Writer's error sticks, so the last write reports any.
func writeRecord(w *bufio.Writer, rh *[recHeaderSize]byte, payload []byte) error {
	binary.LittleEndian.PutUint32(rh[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(rh[4:8], crc32.Checksum(payload, crcTable))
	_, _ = w.Write(rh[:])
	_, err := w.Write(payload)
	return err
}

// Writer writes one standalone segment — a dump — to an
// io.Writer: the header, then one framed record per Append, in 64 KiB
// writes. Errors stick and surface at Flush. Read reads it back.
type Writer struct {
	w   *bufio.Writer
	rh  [recHeaderSize]byte
	err error
}

// NewWriter starts a standalone segment on w.
func NewWriter(w io.Writer) *Writer {
	sw := &Writer{w: bufio.NewWriterSize(w, 64<<10)}
	hdr := segHeader(0)
	_, _ = sw.w.Write(hdr[:])
	return sw
}

// Append frames one record.
func (w *Writer) Append(payload []byte) {
	if len(payload) == 0 || len(payload) > MaxRecord {
		w.err = fmt.Errorf("wal: payload size %d out of range", len(payload))
	}
	_ = writeRecord(w.w, &w.rh, payload)
}

// Flush writes what the buffer holds and reports the first error.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

// ReplayStats summarizes one recovery scan of a log directory.
type ReplayStats struct {
	// Records is the number of intact records replayed.
	Records int
	// Segments is the number of segment files scanned.
	Segments int
	// Truncated reports that the scan hit a torn or corrupt record and
	// discarded the rest of the log.
	Truncated bool
	// DiscardedRecords counts records lost to the corruption: the bad
	// record itself plus every structurally parseable record after it
	// (including whole later segments).
	DiscardedRecords int
	// DiscardedBytes counts trailing bytes that were not even parseable
	// as records.
	DiscardedBytes int64
}

// Metrics are a log's optional instruments. Individual fields may be
// nil (each write is a nil-safe no-op); latency observations are
// skipped entirely when the whole struct is absent, so an
// uninstrumented log never calls time.Now on the append path.
type Metrics struct {
	// Appends counts records accepted by Append.
	Appends *telemetry.Counter
	// AppendBytes counts payload bytes accepted by Append.
	AppendBytes *telemetry.Counter
	// AppendNs records per-append latency (checksum + buffered write,
	// excluding lock wait) in nanoseconds.
	AppendNs *telemetry.Histogram
	// Fsyncs counts successful fsyncs of the active segment.
	Fsyncs *telemetry.Counter
	// FsyncNs records per-fsync latency in nanoseconds.
	FsyncNs *telemetry.Histogram
}

// NewMetrics registers the standard WAL metric set on reg and returns
// it; a nil registry yields nil (the uninstrumented mode).
func NewMetrics(reg *telemetry.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	return &Metrics{
		Appends:     reg.Counter("wal_appends_total", "Records appended to the write-ahead log."),
		AppendBytes: reg.Counter("wal_append_bytes_total", "Payload bytes appended to the write-ahead log."),
		AppendNs:    reg.Histogram("wal_append_ns", "Write-ahead log append latency (checksum + buffered write) in nanoseconds."),
		Fsyncs:      reg.Counter("wal_fsyncs_total", "Fsyncs of the active write-ahead log segment."),
		FsyncNs:     reg.Histogram("wal_fsync_ns", "Write-ahead log fsync latency in nanoseconds."),
	}
}

// Log is an open write-ahead log. Append/Commit are safe for concurrent
// use.
type Log struct {
	dir  string
	opts Options

	mu      sync.Mutex
	f       *os.File
	w       *bufio.Writer
	seq     int64               // records appended this process lifetime
	err     error               // sticky write failure
	metrics *Metrics            // nil when uninstrumented; read under mu
	rh      [recHeaderSize]byte // Append's header; a local escapes via w.Write

	// Group-commit state: synced is the highest seq known durable,
	// syncing marks an fsync in flight whose completion waiters share.
	syncMu   sync.Mutex
	syncCond *sync.Cond
	synced   int64
	syncing  bool

	stop    chan struct{}
	flusher sync.WaitGroup
	closed  bool
}

// SetMetrics attaches (or, with nil, detaches) the log's instruments.
// Attach at wiring time, before appends begin.
func (l *Log) SetMetrics(m *Metrics) {
	l.mu.Lock()
	l.metrics = m
	l.mu.Unlock()
}

func segName(idx uint64) string { return fmt.Sprintf("%08d.wal", idx) }

// segIndex extracts the index from a segment file name, or 0.
func segIndex(name string) uint64 {
	var idx uint64
	if _, err := fmt.Sscanf(name, "%08d.wal", &idx); err != nil {
		return 0
	}
	return idx
}

func listSegments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var idxs []uint64
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if idx := segIndex(e.Name()); idx > 0 {
			idxs = append(idxs, idx)
		}
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	return idxs, nil
}

// syncDir fsyncs a directory so renames and segment creations are
// durable. Best effort: some filesystems reject directory fsync.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	_ = d.Close()
}

// Open opens (creating if necessary) the log in dir, replays every
// intact record through fn in append order, truncates the log at the
// first torn or corrupt record, and leaves the log ready for appends at
// the end of the valid prefix. A nil fn skips replay but still
// validates and truncates. If fn returns an error the scan aborts and
// Open fails; fn must swallow errors it wants to survive. The payload is
// valid only until fn returns.
func Open(dir string, opts Options, fn func(payload []byte) error) (*Log, ReplayStats, error) {
	opts = opts.norm()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, ReplayStats{}, fmt.Errorf("wal: creating %s: %w", dir, err)
	}
	stats, lastSeg, appendOff, err := scanDir(dir, fn, true)
	if err != nil {
		return nil, stats, err
	}
	l := &Log{dir: dir, opts: opts, stop: make(chan struct{})}
	l.syncCond = sync.NewCond(&l.syncMu)
	if lastSeg == 0 {
		if err := l.openSegment(1); err != nil {
			return nil, stats, err
		}
	} else if appendOff < segHeaderSize {
		// The surviving prefix does not even cover the segment header
		// (the file began with garbage): recreate the segment outright.
		if err := os.Remove(filepath.Join(dir, segName(lastSeg))); err != nil {
			return nil, stats, fmt.Errorf("wal: removing corrupt segment %d: %w", lastSeg, err)
		}
		if err := l.openSegment(lastSeg); err != nil {
			return nil, stats, err
		}
	} else {
		f, err := os.OpenFile(filepath.Join(dir, segName(lastSeg)), os.O_WRONLY, 0o644)
		if err != nil {
			return nil, stats, fmt.Errorf("wal: reopening segment %d: %w", lastSeg, err)
		}
		if _, err := f.Seek(appendOff, io.SeekStart); err != nil {
			_ = f.Close()
			return nil, stats, fmt.Errorf("wal: seeking segment %d: %w", lastSeg, err)
		}
		l.f, l.w = f, bufio.NewWriterSize(f, 1<<18)
	}
	if opts.Policy != SyncAlways {
		l.flusher.Add(1)
		go l.flushLoop()
	}
	return l, stats, nil
}

// Replay reads the log in dir without modifying it: every intact record
// is passed to fn (valid until it returns); corruption ends the scan and
// is reported in the stats, never repaired. Use it to inspect a log
// another process owns, or to reload a data directory as a read-only
// trace source.
func Replay(dir string, fn func(payload []byte) error) (ReplayStats, error) {
	stats, _, _, err := scanDir(dir, fn, false)
	return stats, err
}

// scanDir walks the segments in order, replaying intact records. With
// truncate set it repairs the log: the corrupt segment is truncated at
// the last good offset and every later segment is deleted (their
// records are unreachable once the prefix has a hole). Returns the last
// surviving segment index and the append offset within it.
func scanDir(dir string, fn func([]byte) error, truncate bool) (ReplayStats, uint64, int64, error) {
	var stats ReplayStats
	idxs, err := listSegments(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return stats, 0, 0, nil
		}
		return stats, 0, 0, fmt.Errorf("wal: listing %s: %w", dir, err)
	}
	var lastSeg uint64
	var appendOff int64
	corrupt := false
	for _, idx := range idxs {
		path := filepath.Join(dir, segName(idx))
		if corrupt {
			// A later segment after a corrupt one: its records sit past a
			// hole in the log and cannot be replayed. Count, then drop.
			lost, _, _ := scanSegment(path, nil)
			stats.DiscardedRecords += lost.Records + lost.DiscardedRecords
			if truncate {
				_ = os.Remove(path)
			}
			continue
		}
		stats.Segments++
		segStats, goodOff, serr := scanSegment(path, fn)
		stats.Records += segStats.Records
		stats.DiscardedRecords += segStats.DiscardedRecords
		stats.DiscardedBytes += segStats.DiscardedBytes
		if serr != nil {
			return stats, 0, 0, serr
		}
		lastSeg, appendOff = idx, goodOff
		if segStats.Truncated {
			stats.Truncated = true
			corrupt = true
			if truncate {
				if err := os.Truncate(path, goodOff); err != nil {
					return stats, 0, 0, fmt.Errorf("wal: truncating %s: %w", path, err)
				}
			}
		}
	}
	if corrupt && truncate {
		syncDir(dir)
	}
	return stats, lastSeg, appendOff, nil
}

// scanSegment replays one segment file through fn; see scan.
func scanSegment(path string, fn func([]byte) error) (ReplayStats, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return ReplayStats{}, 0, fmt.Errorf("wal: opening %s: %w", path, err)
	}
	defer f.Close()
	stats, good, err := scan(f, fn)
	if err != nil && !errors.Is(err, ErrNoHeader) { // header-less: garbage from byte 0, counted
		return stats, good, fmt.Errorf("wal: replaying %s: %w", path, err)
	}
	return stats, good, nil
}

// Read replays one segment — a dump NewWriter wrote, or a
// log segment — from r through fn, as Replay does a directory: a torn
// or corrupt record ends the scan and is reported in the stats, never
// as an error. Input without a segment header is ErrNoHeader. The
// payload is valid only until fn returns.
func Read(r io.Reader, fn func(payload []byte) error) (ReplayStats, error) {
	stats, _, err := scan(r, fn)
	return stats, err
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// scan reads one segment from r, replaying every intact record through
// fn. It returns per-segment stats and the offset just past the last
// intact record — the truncation point when the segment is torn or
// corrupt. An error from fn aborts the scan; framing problems are
// reported in the stats instead.
func scan(r io.Reader, fn func([]byte) error) (stats ReplayStats, good int64, err error) {
	cr := &countingReader{r: r}
	br := bufio.NewReaderSize(cr, readBufSize)
	// discard ends the scan at off: nothing from there on parses.
	discard := func(off int64) {
		_, _ = io.Copy(io.Discard, br)
		stats.Truncated = cr.n > off
		stats.DiscardedBytes += cr.n - off
	}
	var hdr [segHeaderSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil || string(hdr[:8]) != segMagic {
		discard(0)
		return stats, 0, ErrNoHeader
	}
	if fn == nil {
		fn = func([]byte) error { return nil }
	}
	off, good := int64(segHeaderSize), int64(-1)
	var rh [recHeaderSize]byte
	for {
		if _, err = io.ReadFull(br, rh[:]); err == io.EOF {
			break // clean end of segment
		}
		n := binary.LittleEndian.Uint32(rh[0:4])
		var payload []byte
		if err == nil && (n == 0 || n > MaxRecord) {
			err = errors.New("implausible record length")
		} else if err == nil {
			payload, err = readPayload(br, int(n))
		}
		if err != nil {
			// A torn record header or payload, or garbage.
			stats.DiscardedRecords++
			discard(off)
			break
		}
		if good < 0 && crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(rh[4:8]) {
			// Corrupt record: the log is good up to here. Stop replaying,
			// keep parsing frames so the loss is counted precisely rather
			// than reported as raw bytes.
			stats.Truncated, good = true, off
		}
		if good >= 0 {
			stats.DiscardedRecords++
		} else if err = fn(payload); err != nil {
			return stats, off, fmt.Errorf("record at offset %d: %w", off, err)
		} else {
			stats.Records++
		}
		off += recHeaderSize + int64(n)
	}
	if good < 0 {
		good = off
	}
	return stats, good, nil
}

// readPayload reads an n-byte record: in place when it fits the read
// buffer (valid until the next read), else assembled as its bytes
// arrive, so a corrupt length costs no more memory than the input holds.
func readPayload(br *bufio.Reader, n int) (b []byte, err error) {
	for len(b) < n && err == nil {
		var p []byte
		p, err = br.Peek(min(n-len(b), br.Size()))
		if len(p) == n {
			_, _ = br.Discard(n)
			return p, nil
		}
		b = append(b, p...)
		_, _ = br.Discard(len(p))
	}
	return b, err
}

// openSegment creates segment idx and makes it current. Open calls it
// before the log is shared.
func (l *Log) openSegment(idx uint64) error {
	f, err := os.OpenFile(filepath.Join(l.dir, segName(idx)), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: creating segment %d: %w", idx, err)
	}
	hdr := segHeader(idx)
	if _, err := f.Write(hdr[:]); err != nil {
		_ = f.Close()
		return fmt.Errorf("wal: writing segment header: %w", err)
	}
	syncDir(l.dir)
	l.f, l.w = f, bufio.NewWriterSize(f, 1<<18)
	return nil
}

// Append buffers one record and returns its sequence number, to be
// passed to Commit for the durability barrier. Safe for concurrent use;
// the caller is responsible for making the ordering of concurrent
// Appends meaningful (the poet collector appends under its own lock, so
// WAL order equals ingestion order).
func (l *Log) Append(payload []byte) (int64, error) {
	if len(payload) == 0 || len(payload) > MaxRecord {
		return 0, fmt.Errorf("wal: payload size %d out of range", len(payload))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return 0, l.err
	}
	if l.closed {
		return 0, errors.New("wal: log closed")
	}
	var start time.Time
	if l.metrics != nil {
		start = time.Now()
	}
	if err := writeRecord(l.w, &l.rh, payload); err != nil {
		l.err = fmt.Errorf("wal: append: %w", err)
		return 0, l.err
	}
	l.seq++
	if m := l.metrics; m != nil {
		m.Appends.Inc()
		m.AppendBytes.Add(int64(len(payload)))
		m.AppendNs.Observe(time.Since(start).Nanoseconds())
	}
	return l.seq, nil
}

// Commit makes the record with the given sequence number durable
// according to the policy: under SyncAlways it returns only after an
// fsync covering seq (sharing in-flight fsyncs with concurrent
// committers); under SyncInterval and SyncNone it is a cheap no-op —
// the flush loop provides the (weaker) guarantee.
func (l *Log) Commit(seq int64) error {
	if l.opts.Policy != SyncAlways {
		l.mu.Lock()
		err := l.err
		l.mu.Unlock()
		return err
	}
	l.syncMu.Lock()
	for l.syncing && l.synced < seq {
		l.syncCond.Wait()
	}
	if l.synced >= seq {
		l.syncMu.Unlock()
		l.mu.Lock()
		err := l.err
		l.mu.Unlock()
		return err
	}
	l.syncing = true
	l.syncMu.Unlock()

	l.mu.Lock()
	target := l.seq
	err := l.flushLocked(true)
	l.mu.Unlock()

	l.syncMu.Lock()
	if err == nil && target > l.synced {
		l.synced = target
	}
	l.syncing = false
	l.syncCond.Broadcast()
	l.syncMu.Unlock()
	return err
}

// flushLocked flushes the buffer and optionally fsyncs. Caller holds l.mu.
func (l *Log) flushLocked(fsync bool) error {
	if l.err != nil {
		return l.err
	}
	if err := l.w.Flush(); err != nil {
		l.err = fmt.Errorf("wal: flush: %w", err)
		return l.err
	}
	if fsync {
		var start time.Time
		if l.metrics != nil {
			start = time.Now()
		}
		if err := l.f.Sync(); err != nil {
			l.err = fmt.Errorf("wal: fsync: %w", err)
			return l.err
		}
		if m := l.metrics; m != nil {
			m.Fsyncs.Inc()
			m.FsyncNs.Observe(time.Since(start).Nanoseconds())
		}
	}
	return nil
}

// Sync flushes and fsyncs everything appended so far, regardless of
// policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	target := l.seq
	err := l.flushLocked(true)
	l.mu.Unlock()
	if err == nil {
		l.syncMu.Lock()
		if target > l.synced {
			l.synced = target
		}
		l.syncMu.Unlock()
	}
	return err
}

// flushLoop services SyncInterval (flush+fsync) and SyncNone (flush
// only) on the configured cadence.
func (l *Log) flushLoop() {
	defer l.flusher.Done()
	t := time.NewTicker(l.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			l.mu.Lock()
			_ = l.flushLocked(l.opts.Policy == SyncInterval)
			l.mu.Unlock()
		}
	}
}

// Appended returns the number of records appended this process
// lifetime (the latest sequence number).
func (l *Log) Appended() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Close flushes, fsyncs, and closes the log. Idempotent. Its fsync
// counts as a Commit's for every record appended before it.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	if l.opts.Policy != SyncAlways {
		close(l.stop)
		l.flusher.Wait()
	}
	err := l.Sync()
	l.mu.Lock()
	defer l.mu.Unlock()
	if cerr := l.f.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("wal: close: %w", cerr)
	}
	return err
}
