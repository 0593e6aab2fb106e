package poet

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"ocep/internal/event"
	"ocep/internal/wal"
)

// all flattens the log's chunks into one slice, oldest record first.
func (l *tailLog[T]) all() []T {
	out := make([]T, 0, l.len())
	for i := 0; i < l.len(); i++ {
		out = append(out, *l.at(i))
	}
	return out
}

// journalEvents renders the journal's event records, in journal order.
func journalEvents(c *Collector) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for _, r := range c.journal.all() {
		if r.isEvent() {
			out = append(out, fmt.Sprintf("%s/%d", r.Trace, r.Seq))
		}
	}
	return out
}

func traceNames(c *Collector) []string {
	st := c.Store()
	names := make([]string, st.NumTraces())
	for i := range names {
		names[i] = st.TraceName(event.TraceID(i))
	}
	return names
}

// jumbledWorkload is durWorkload made hostile to any recovery that
// replays in delivery order: besides the receives that precede their
// sends, every fifth round reports a trace's events with the sequence
// numbers ahead of the delivery head, so ingestion order and delivery
// order differ both within and across traces.
func jumbledWorkload(rounds int) []RawEvent {
	evs := durWorkload(rounds)
	for i := 0; i+2 < len(evs); i += 3 {
		if (i/3)%5 == 2 {
			// Round layout here is send, recv, note: report the note (alpha,
			// seq 2r+2) before the send (alpha, seq 2r+1).
			evs[i], evs[i+2] = evs[i+2], evs[i]
		}
	}
	return evs
}

// TestRecoveryReproducesReplicaStream is the journal's contract: a
// durable collector that restarts — from its final snapshot, or from a
// mid-run snapshot plus the write-ahead log a crash left behind —
// rebuilds not only its state but its record stream, so a replica that
// had applied any strict prefix resumes at its offset, is sent exactly
// the rest, and converges on the primary's linearization and trace
// numbering. A snapshot in delivery order (or registrations replayed
// out of place) permutes the stream and hands the lagging replica the
// wrong suffix.
func TestRecoveryReproducesReplicaStream(t *testing.T) {
	evs := jumbledWorkload(350) // > 1 000 records: the journal spans three chunks
	half := len(evs) / 2
	// drive feeds the workload with an explicit registration mid-stream
	// whose trace first reports only after a later-registered trace has,
	// and calls mid (if any) at the halfway point.
	drive := func(t *testing.T, c *Collector, mid func()) {
		reportAll(t, c, evs[:half])
		c.RegisterTrace("late")
		reportAll(t, c, []RawEvent{{Trace: "later", Seq: 1, Kind: event.KindInternal, Type: "x"}})
		if mid != nil {
			mid()
		}
		reportAll(t, c, evs[half:])
		reportAll(t, c, []RawEvent{
			{Trace: "late", Seq: 2, Kind: event.KindInternal, Type: "ahead"},
			{Trace: "late", Seq: 1, Kind: event.KindInternal, Type: "x"},
		})
	}
	paths := []struct {
		name    string
		restart func(t *testing.T, dir string) (before *Collector)
	}{
		{"snapshot", func(t *testing.T, dir string) *Collector {
			c, d := openDurable(t, dir, DurableOptions{Fsync: SyncAlways, SnapshotEvery: -1})
			drive(t, c, nil)
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			return c
		}},
		{"snapshot+wal-crash", func(t *testing.T, dir string) *Collector {
			c, d := openDurable(t, dir, DurableOptions{Fsync: SyncAlways, SnapshotEvery: -1})
			drive(t, c, func() {
				if err := d.Snapshot(); err != nil {
					t.Fatal(err)
				}
			})
			if err := d.log.Close(); err != nil { // crash: no final snapshot
				t.Fatal(err)
			}
			return c
		}},
	}
	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			dir := t.TempDir()
			before := p.restart(t, dir)
			wantStream, wantState, wantNames := journalEvents(before), stateSig(before), traceNames(before)

			c1, d1 := openDurable(t, dir, DurableOptions{Fsync: SyncAlways, SnapshotEvery: -1})
			defer d1.Close()
			if rec := d1.Recovery(); rec.RejectedRecords != 0 || rec.DiscardedRecords != 0 {
				t.Fatalf("recovery lost records: %+v", rec)
			}
			if got := journalEvents(c1); !equalSlices(got, wantStream) {
				t.Fatalf("recovered journal permutes the stream:\nwant %v\ngot  %v", wantStream, got)
			}
			if got := stateSig(c1); !equalSlices(got, wantState) {
				t.Fatalf("recovered linearization differs:\nwant %v\ngot  %v", wantState, got)
			}
			if got := traceNames(c1); !equalSlices(got, wantNames) {
				t.Fatalf("recovered trace numbering %v, want %v", got, wantNames)
			}

			s1 := NewServer(c1, t.Logf)
			s1.SetWireTiming(10*time.Millisecond, 20*time.Millisecond, 2*time.Second)
			addr, err := s1.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer s1.Close()

			// Replicas that stopped at every kind of place in the stream
			// the primary produced before it restarted: before and after
			// the mid-stream registration, with events still buffered.
			before.mu.Lock()
			stream := before.journal.all()
			before.mu.Unlock()
			total := len(wantStream)
			// Every 97th position, and both sides of every chunk boundary.
			k := chunkCap[journalRecord]()
			var cuts []int
			for cut := 1; cut < len(stream); cut += 97 {
				cuts = append(cuts, cut)
			}
			for b := k; b < len(stream); b += k {
				cuts = append(cuts, b-1, b, b+1)
			}
			if len(stream) < 1000 || len(cuts) < 15 {
				t.Fatalf("a stream of %d records, %d cuts: the test no longer spans chunks", len(stream), len(cuts))
			}
			for _, cut := range cuts {
				c2 := NewCollector()
				applied := 0
				for i := range stream[:cut] {
					if r := &stream[i]; r.isEvent() {
						if err := c2.Report(r.RawEvent); err != nil {
							t.Fatal(err)
						}
						applied++
					} else {
						c2.RegisterTrace(r.Trace)
					}
				}
				sent := s1.WireStats().ReplicaEvents
				rep, err := FollowPrimary(addr, c2, WithReplicaHeartbeat(20*time.Millisecond), WithReplicaLog(t.Logf))
				if err != nil {
					t.Fatalf("replica at offset %d: %v", applied, err)
				}
				waitFor(t, func() bool { return c2.IngestCount() == total })
				rep.Stop()
				<-rep.Done()
				if got := s1.WireStats().ReplicaEvents - sent; got != total-applied {
					t.Fatalf("replica at offset %d was sent %d events, want exactly the %d it lacked", applied, got, total-applied)
				}
				if got := stateSig(c2); !equalSlices(got, wantState) {
					t.Fatalf("replica resumed at offset %d (journal index %d) diverged:\nwant %v\ngot  %v", applied, cut, wantState, got)
				}
				if got := traceNames(c2); !equalSlices(got, wantNames) {
					t.Fatalf("replica resumed at offset %d numbers its traces %v, want %v", applied, got, wantNames)
				}
			}
		})
	}
}

// TestShardedSnapshotRecoveryKeepsTraceIDs: a sharded collector's store
// holds unnamed holes for the IDs homed on its peers. A snapshot header
// that listed them would, on recovery, register each hole's fallback
// name as a home trace and renumber every real one after it.
func TestShardedSnapshotRecoveryKeepsTraceIDs(t *testing.T) {
	dir := t.TempDir()
	open := func() (*Collector, *Durability) {
		c := NewCollector()
		if err := c.EnableSharding(0, 2); err != nil {
			t.Fatal(err)
		}
		d, err := OpenDurable(c, DurableOptions{Dir: dir, Fsync: SyncAlways, SnapshotEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		return c, d
	}
	ids := func(c *Collector) []event.TraceID {
		var out []event.TraceID
		for _, name := range []string{"p0", "p2", "p4"} {
			id, ok := c.Store().TraceByName(name)
			if !ok {
				t.Fatalf("trace %s not registered", name)
			}
			out = append(out, id)
		}
		return out
	}
	c1, d1 := open()
	for _, name := range []string{"p0", "p2", "p4"} {
		reportN(t, c1, name, 1, 3)
	}
	want, wantState := ids(c1), stateSig(c1)
	if fmt.Sprint(want) != "[0 2 4]" {
		t.Fatalf("shard 0 of 2 numbered its home traces %v, want [0 2 4]", want)
	}
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}
	c2, d2 := open()
	defer d2.Close()
	if got := ids(c2); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("restart renumbered the home traces: %v, want %v", got, want)
	}
	if got := stateSig(c2); !equalSlices(got, wantState) {
		t.Fatalf("restart changed the stamps:\nwant %v\ngot  %v", wantState, got)
	}
	if got := c2.ShardStats().HomeTraces; got != 3 {
		t.Fatalf("restart left %d home traces, want 3", got)
	}
}

// TestNoJournalUnlessAsked: an embedded collector with no dump, disk or
// replica keeps no second copy of what it ingested.
func TestNoJournalUnlessAsked(t *testing.T) {
	c := NewCollector()
	c.RegisterTrace("explicit")
	reportAll(t, c, durWorkload(20))
	if c.journal != nil {
		t.Fatalf("a collector nobody asked keeps a journal of %d records", c.journal.len())
	}
	if st := c.ReplicationStats(); st.Enabled || st.Records != 0 {
		t.Fatalf("replication stats of a journal-less collector: %+v", st)
	}
	if c.IngestCount() != len(durWorkload(20)) {
		t.Fatalf("ingest count %d must not depend on the journal", c.IngestCount())
	}
}

// TestJournalIndexAfter checks the offset→index lookup against the scan
// it replaced, over every offset of random record mixes.
func TestJournalIndexAfter(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 50; round++ {
		var j journal
		for i, n := 0, rng.Intn(60); i < n; i++ {
			switch rng.Intn(4) {
			case 0:
				j.append(journalRecord{RawEvent: RawEvent{Trace: "t"}})
			case 1:
				j.append(journalRecord{remote: &shardExport{MsgID: 1}})
			default:
				j.append(journalRecord{RawEvent: RawEvent{Trace: "t", Seq: i + 1}})
			}
		}
		for events := 0; events <= j.events(); events++ {
			want, seen := 0, 0
			for i, rec := range j.all() {
				if seen == events {
					break
				}
				if rec.isEvent() {
					seen++
				}
				want = i + 1
			}
			if got := j.indexAfter(events); got != want {
				t.Fatalf("round %d: indexAfter(%d) = %d, want %d (non-events at %v)", round, events, got, want, j.others)
			}
		}
	}
}

// TestReloadRejectsGobDump: the gob dumps of earlier builds (header
// magic OCEP-POET-DUMP, versions 1 and 2) are no longer read. Reload and
// snapshot recovery each refuse one with the error that names the
// format dumps are now written in, rather than a generic decode failure.
func TestReloadRejectsGobDump(t *testing.T) {
	type gobDumpHeader struct {
		Magic           string
		Version         int
		Traces          []string
		Events, Pending int
	}
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(gobDumpHeader{Magic: gobDumpMagic, Version: 2, Traces: []string{"a"}, Events: 1}); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(RawEvent{Trace: "a", Seq: 1, Kind: event.KindInternal, Type: "x"}); err != nil {
		t.Fatal(err)
	}
	gobDump := buf.Bytes()
	if _, err := NewCollector().Reload(bytes.NewReader(gobDump)); !errors.Is(err, errGobDump) || !strings.Contains(err.Error(), "OCEPWAL1") {
		t.Fatalf("reloading a gob-era dump: %v, want the error naming the segment format", err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, SnapshotFile), gobDump, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDurable(NewCollector(), DurableOptions{Dir: dir}); !errors.Is(err, errGobDump) {
		t.Fatalf("recovering from a gob-era snapshot: %v, want the targeted rejection", err)
	}
}

// TestDumpIsIngestionOrdered: a snapshot is a dump, and a dump is one
// write-ahead-log segment — the registered traces, then the journal's
// events as they arrived (buffered ones in place), then the end record
// counting them — that the WAL's own reader reads.
func TestDumpIsIngestionOrdered(t *testing.T) {
	dir := t.TempDir()
	c, d := openDurable(t, dir, DurableOptions{Fsync: SyncNone, SnapshotEvery: -1})
	evs := jumbledWorkload(350) // > 1 000 records: the snapshot walks three journal chunks
	evs = append(evs, RawEvent{Trace: "beta", Seq: 999, Kind: event.KindInternal, Type: "stranded"})
	reportAll(t, c, evs)
	if c.Pending() == 0 {
		t.Fatal("workload should leave an event buffered")
	}
	wantTraces := traceNames(c)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(filepath.Join(dir, SnapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var traces []string
	var got []RawEvent
	end := -1
	st, err := wal.Read(f, func(p []byte) error {
		r := &recordReader{p: p[1:]}
		switch p[0] {
		case recTrace:
			traces = append(traces, r.string())
		case recEvent:
			got = append(got, r.eventRecord())
		case recEnd:
			end = r.int()
		}
		return r.err
	})
	if err != nil || st.Truncated {
		t.Fatalf("reading the snapshot as a segment: %+v, %v", st, err)
	}
	if !equalSlices(traces, wantTraces) || end != len(traces)+len(evs) {
		t.Fatalf("snapshot registers %v and ends counting %d records, want %v and %d", traces, end, wantTraces, len(wantTraces)+len(evs))
	}
	if !slices.Equal(got, evs) {
		t.Fatalf("snapshot holds %d events out of ingestion order, want the %d ingested", len(got), len(evs))
	}
}

// TestReplicaWithRetentionConverges: a standby needs the primary's
// journal, not one of its own — it resumes by ingest count — so it may
// bound its memory (poetd -follow with -retain-events) and still apply
// every event.
func TestReplicaWithRetentionConverges(t *testing.T) {
	c1 := journaled(t)
	s1 := NewServer(c1, t.Logf)
	s1.SetWireTiming(10*time.Millisecond, 20*time.Millisecond, 2*time.Second)
	addr, err := s1.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	c2 := NewCollector()
	if err := c2.SetRetention(64); err != nil {
		t.Fatal(err)
	}
	rep, err := FollowPrimary(addr, c2, WithReplicaHeartbeat(20*time.Millisecond), WithReplicaLog(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Stop()
	evs := durWorkload(200)
	reportAll(t, c1, evs)
	waitFor(t, func() bool { return c2.Delivered() == len(evs) })
	rs := c2.RetentionStats()
	if rs.Evicted == 0 || rs.Retained > 64+64/4 {
		t.Fatalf("standby retention did not hold its bound: %+v", rs)
	}
	tail := c1.Ordered()[len(evs)-rs.Retained:]
	for i, e := range c2.Ordered() {
		if e.ID != tail[i].ID || !e.VC.Equal(tail[i].VC) {
			t.Fatalf("standby's retained event %d is %s, primary delivered %s there", i, e, tail[i])
		}
	}
}

// TestTailLogChunks is the chunked log's contract, over more than three
// chunk boundaries: from(idx) returns exactly the records from idx to
// the end of idx's chunk, its next index chains to the head, a slice
// taken before later appends reads the same after them, and the growth
// signal exists only while a reader is parked on it.
func TestTailLogChunks(t *testing.T) {
	var l tailLog[journalRecord]
	k := chunkCap[journalRecord]()
	if k != 409 || chunkCap[shardExport]() != 819 {
		t.Fatalf("chunks of %d journal records and %d exports, want 409 and 819 (32 KiB less the malloc header)",
			k, chunkCap[shardExport]())
	}
	total := 3*k + k/2
	var early [][]journalRecord // one slice per append, taken right after it
	for i := 0; i < total; i++ {
		if recs, next, grew := l.from(i); recs != nil || next != i || grew == nil {
			t.Fatalf("from(%d) at the head returned %d records, next %d, signal %v", i, len(recs), next, grew)
		}
		if l.grew == nil {
			t.Fatalf("no growth signal while a reader is parked at %d", i)
		}
		parked := l.grew
		l.append(journalRecord{RawEvent: RawEvent{Seq: i + 1}})
		select {
		case <-parked:
		default:
			t.Fatalf("append %d did not wake the parked reader", i)
		}
		if l.grew != nil {
			t.Fatalf("append %d left a growth signal nobody holds", i)
		}
		recs, _, _ := l.from(i - i%k)
		early = append(early, recs)
	}
	if l.len() != total || len(l.chunks) != 4 {
		t.Fatalf("log of %d records in %d chunks, want %d in 4", l.len(), len(l.chunks), total)
	}
	for idx := 0; idx < total; idx++ {
		recs, next, grew := l.from(idx)
		wantNext := min(idx-idx%k+k, total)
		if grew != nil || next != wantNext || len(recs) != wantNext-idx || cap(recs) != len(recs) {
			t.Fatalf("from(%d): %d records (cap %d), next %d, want %d up to %d", idx, len(recs), cap(recs), next, wantNext-idx, wantNext)
		}
		for i := range recs {
			if recs[i].Seq != idx+i+1 {
				t.Fatalf("from(%d)[%d] is record %d", idx, i, recs[i].Seq-1)
			}
		}
		// Chaining next reaches the head in as many steps as chunks remain.
		steps := 0
		for at := idx; at < total; steps++ {
			_, at, _ = l.from(at)
		}
		if want := (total-1)/k - idx/k + 1; steps != want {
			t.Fatalf("from(%d) chains to the head in %d steps, want %d", idx, steps, want)
		}
	}
	for i, recs := range early {
		if len(recs) != i%k+1 || cap(recs) != len(recs) {
			t.Fatalf("the slice taken after append %d has grown to %d records (cap %d)", i, len(recs), cap(recs))
		}
		if recs[len(recs)-1].Seq != i+1 || recs[0].Seq != i-i%k+1 {
			t.Fatalf("the slice taken after append %d changed under later appends", i)
		}
	}
	if got := l.all(); len(got) != total || got[total-1].Seq != total {
		t.Fatalf("the chunks hold %d records", len(got))
	}
}
