package poet

import (
	"bufio"
	"compress/gzip"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
)

// dumpHeader identifies the on-disk trace-file format, shared by POET
// dumps and the durability subsystem's snapshots.
type dumpHeader struct {
	Magic   string
	Version int
	// Traces lists the registered trace names in ID order, so reload
	// reproduces the same trace numbering (and so the same vector-clock
	// layout) regardless of event interleaving.
	Traces []string
	// Events is the number of raw events that follow, in ingestion order.
	// Replaying them in that order rebuilds the writer's linearization —
	// and its journal, which is what keeps replica offsets valid across a
	// restart. (Files written before the journal listed the delivered
	// events in delivery order here: equally a valid replay order.)
	Events int
	// Pending (version >= 2) counts further raw events after those: the
	// section in which older writers put the ingested-but-undelivered
	// events. Always written as 0 now — ingestion order places a buffered
	// event where it arrived — but still read.
	Pending int
}

const (
	dumpMagic   = "OCEP-POET-DUMP"
	dumpVersion = 2
)

// snapshotState is one consistent cut of the collector's replayable
// state, captured under the collector lock and encodable outside it
// (the journal prefix is immutable).
type snapshotState struct {
	hdr    dumpHeader
	chunks [][]journalRecord
}

// snapshotStateLocked captures the current replayable state: the
// journal, which therefore must be on.
func (c *Collector) snapshotStateLocked() (snapshotState, error) {
	if c.journal == nil {
		return snapshotState{}, errors.New("poet: dump requires the journal (EnableReplicationLog before collection)")
	}
	hdr := dumpHeader{Magic: dumpMagic, Version: dumpVersion, Traces: c.registeredTracesLocked(), Events: c.journal.events()}
	return snapshotState{hdr, slices.Clone(c.journal.chunks)}, nil
}

// encodeSnapshot writes one state cut in the dump format: the journal's
// event records. Registrations are covered by the header; remote sends
// come back from the peers. gob writes each value as it is encoded, so
// it writes into a buffer: to a bare file that would be a write(2) per
// event.
func encodeSnapshot(w io.Writer, st snapshotState) error {
	bw := bufio.NewWriterSize(w, 64<<10)
	enc := gob.NewEncoder(bw)
	if err := enc.Encode(st.hdr); err != nil {
		return fmt.Errorf("poet: encoding dump header: %w", err)
	}
	for _, recs := range st.chunks {
		for i := range recs {
			if !recs[i].isEvent() {
				continue
			}
			if err := enc.Encode(&recs[i].RawEvent); err != nil {
				return fmt.Errorf("poet: encoding dump event %q/%d: %w", recs[i].Trace, recs[i].Seq, err)
			}
		}
	}
	if err := bw.Flush(); err != nil {
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
// highly repetitive).
func (c *Collector) DumpFile(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("poet: creating dump file: %w", err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("poet: closing dump file: %w", cerr)
		}
	}()
	if strings.HasSuffix(path, ".gz") {
		zw := gzip.NewWriter(f)
		if err := c.Dump(zw); err != nil {
			return err
		}
		if err := zw.Close(); err != nil {
			return fmt.Errorf("poet: finishing compressed dump: %w", err)
		}
		return nil
	}
	return c.Dump(f)
}

// Reload replays a dumped trace file into the collector via the same
// Report interface used for live collection (POET's reload feature). It
// accepts the v1 format (one section) and v2 (an optional pending
// section after it) and returns the number of events replayed.
func (c *Collector) Reload(r io.Reader) (int, error) {
	n, _, err := c.reloadSnapshot(r, false)
	return n, err
}

// reloadSnapshot decodes a dump/snapshot stream and reports every event
// into the collector. With lenient set, a stream that ends early (a
// snapshot torn by a crash mid-write) yields the longest valid prefix
// and truncated=true instead of an error; a malformed header still
// fails — there is nothing to salvage before the trace table.
func (c *Collector) reloadSnapshot(r io.Reader, lenient bool) (n int, truncated bool, err error) {
	dec := gob.NewDecoder(r)
	var hdr dumpHeader
	if err := dec.Decode(&hdr); err != nil {
		return 0, false, fmt.Errorf("poet: decoding dump header: %w", err)
	}
	if hdr.Magic != dumpMagic {
		return 0, false, fmt.Errorf("poet: not a POET dump file (magic %q)", hdr.Magic)
	}
	if hdr.Version < 1 || hdr.Version > dumpVersion {
		return 0, false, fmt.Errorf("poet: unsupported dump version %d", hdr.Version)
	}
	for _, name := range hdr.Traces {
		c.RegisterTrace(name)
	}
	total := hdr.Events + hdr.Pending
	for i := 0; i < total; i++ {
		var raw RawEvent
		if err := dec.Decode(&raw); err != nil {
			if lenient {
				return n, true, nil
			}
			return n, false, fmt.Errorf("poet: decoding dump event %d: %w", i, err)
		}
		if err := c.Report(raw); err != nil {
			if lenient {
				return n, true, nil
			}
			return n, false, fmt.Errorf("poet: replaying dump event %d: %w", i, err)
		}
		n++
	}
	return n, false, nil
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
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("poet: closing dump file: %w", cerr)
		}
	}()
	if strings.HasSuffix(path, ".gz") {
		zr, err := gzip.NewReader(f)
		if err != nil {
			return 0, fmt.Errorf("poet: opening compressed dump: %w", err)
		}
		defer func() {
			if cerr := zr.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("poet: closing compressed dump: %w", cerr)
			}
		}()
		return c.Reload(zr)
	}
	return c.Reload(f)
}

// errNoSnapshot distinguishes "no snapshot yet" from a read failure.
var errNoSnapshot = errors.New("poet: no snapshot")

// reloadSnapshotFile lenient-reloads a snapshot file into c. Returns
// errNoSnapshot when the file does not exist.
func (c *Collector) reloadSnapshotFile(path string) (n int, truncated bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, false, errNoSnapshot
		}
		return 0, false, fmt.Errorf("poet: opening snapshot: %w", err)
	}
	defer f.Close()
	return c.reloadSnapshot(f, true)
}
