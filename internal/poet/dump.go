package poet

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"ocep/internal/wal"
)

// A dump — and a snapshot, which is the same file — is one standalone
// write-ahead-log segment (see internal/wal): the segment header, then
// CRC-framed records in the WAL's own record encoding, read back by the
// WAL's own reader and applied through replayRecord, as recovery applies
// the log. The registered traces' records come first, in ID order, so a
// reload reproduces the writer's trace numbering (and so its
// vector-clock layout) whatever the event interleaving. The journal's
// event records follow in ingestion order: replaying them rebuilds the
// writer's linearization and its journal, which keeps replica offsets
// valid across a restart. An end record counting the records before it
// closes the file, so a dump cut at any record boundary is told from a
// whole one.

// gobDumpMagic opened the gob dumps of earlier builds; it is recognized
// only to reject them by name.
const gobDumpMagic = "OCEP-POET-DUMP"

var errGobDump = errors.New("poet: gob-era dump (" + gobDumpMagic + " v1/v2) rejected: dumps and snapshots are now write-ahead-log segments (OCEPWAL1 header, CRC-framed records), and this build reads no other format")

// snapshotState is one consistent cut of the collector's replayable
// state, captured under the collector lock and encodable outside it
// (the journal prefix is immutable).
type snapshotState struct {
	traces  []string
	journal journal
}

// snapshotStateLocked captures the current replayable state: the
// journal, which therefore must be on.
func (c *Collector) snapshotStateLocked() (snapshotState, error) {
	if c.journal == nil {
		return snapshotState{}, errors.New("poet: dump requires the journal (EnableReplicationLog before collection)")
	}
	return snapshotState{c.registeredTracesLocked(), *c.journal}, nil
}

// encodeSnapshot writes one state cut as a dump, copying the journal's
// event records as they stand. Remote sends stay out: peers re-stream them.
func encodeSnapshot(w io.Writer, st snapshotState) error {
	sw := wal.NewWriter(w)
	var rec []byte
	for _, name := range st.traces {
		rec = encodeTraceRecord(rec[:0], name, nil)
		sw.Append(rec)
	}
	for sp, cur := st.journal.span(journalCursor{}); len(sp.b) > 0; sp, cur = st.journal.span(cur) {
		for p := sp.next(); p != nil; p = sp.next() {
			if p[0] == recEvent {
				sw.Append(p)
			}
		}
	}
	sw.Append(binary.AppendUvarint(append(rec[:0], recEnd), uint64(len(st.traces)+st.journal.events())))
	if err := sw.Flush(); err != nil {
		return fmt.Errorf("poet: writing dump: %w", err)
	}
	return nil
}

// Dump writes the collector's replayable state to w: every ingested raw
// event — delivered or still buffered awaiting causal partners — in
// ingestion order. The collector must keep its journal
// (EnableReplicationLog before events are reported).
func (c *Collector) Dump(w io.Writer) error {
	c.mu.Lock()
	st, err := c.snapshotStateLocked()
	c.mu.Unlock()
	if err != nil {
		return err
	}
	return encodeSnapshot(w, st)
}

// DumpFile dumps to a file path. A ".gz" suffix selects gzip
// compression (a million-event dump compresses well; the raw events are
// highly repetitive). A failed dump leaves the file as it was.
func (c *Collector) DumpFile(path string) error {
	return writeFileAtomic(path, func(w io.Writer) error {
		if !strings.HasSuffix(path, ".gz") {
			return c.Dump(w)
		}
		zw := gzip.NewWriter(w)
		if err := c.Dump(zw); err != nil {
			return err
		}
		return zw.Close()
	})
}

// writeFileAtomic writes path by way of path.tmp — write, fsync, rename,
// fsync the directory — so a failed or interrupted write leaves whatever
// path held before.
func writeFileAtomic(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err = write(f); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		_ = os.Remove(tmp)
		return err
	}
	if dir, err := os.Open(filepath.Dir(path)); err == nil {
		_ = dir.Sync()
		_ = dir.Close()
	}
	return nil
}

// Reload replays a dump into the collector (POET's reload feature) and
// returns the number of events replayed. A dump cut short or corrupt
// fails, after replaying the prefix before the damage.
func (c *Collector) Reload(r io.Reader) (int, error) {
	n, _, err := c.reloadSnapshot(r, false)
	return n, err
}

// reloadSnapshot replays a dump or snapshot into c. With lenient set, a
// stream that is cut short or corrupt (a snapshot torn by a crash
// mid-write) yields the longest valid prefix and truncated=true instead
// of an error; input that is not a dump at all still fails.
func (c *Collector) reloadSnapshot(r io.Reader, lenient bool) (n int, truncated bool, err error) {
	br := bufio.NewReader(r)
	head, _ := br.Peek(512)
	gobEra := bytes.Contains(head, []byte(gobDumpMagic))
	records, ended := 0, false
	st, err := wal.Read(br, func(p []byte) error {
		if ended {
			return errors.New("a record follows the end record")
		}
		if p[0] == recEnd {
			rd := recordReader{p: p[1:]}
			if want := rd.int(); rd.err != nil || len(rd.p) > 0 || want != records {
				return fmt.Errorf("the end record does not count the %d records before it", records)
			}
			ended = true
			return nil
		}
		if err := c.replayRecord(p); err != nil {
			return err
		}
		records++
		if p[0] == recEvent {
			n++
		}
		return nil
	})
	switch {
	case errors.Is(err, wal.ErrNoHeader) && gobEra:
		return 0, false, errGobDump
	case errors.Is(err, wal.ErrNoHeader):
		return 0, false, fmt.Errorf("poet: not a dump: %w", err)
	case err == nil && !st.Truncated && ended:
		return n, false, nil
	case lenient:
		return n, true, nil
	case err != nil:
		return n, false, fmt.Errorf("poet: replaying dump: %w", err)
	}
	return n, false, fmt.Errorf("poet: dump cut short or corrupt after %d events (%d bytes discarded)", n, st.DiscardedBytes)
}

// ReloadFile reloads from a file path, transparently decompressing
// ".gz" dumps. A directory path reloads a durability data directory
// (snapshot plus write-ahead log) instead; see ReloadDir.
func (c *Collector) ReloadFile(path string) (n int, err error) {
	if fi, serr := os.Stat(path); serr == nil && fi.IsDir() {
		stats, err := ReloadDir(c, path)
		return stats.Delivered + stats.Pending, err
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("poet: opening dump file: %w", err)
	}
	defer f.Close()
	var r io.Reader = f
	if strings.HasSuffix(path, ".gz") {
		if r, err = gzip.NewReader(f); err != nil {
			return 0, fmt.Errorf("poet: opening compressed dump: %w", err)
		}
	}
	return c.Reload(r)
}
