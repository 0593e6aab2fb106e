package poet

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"ocep/internal/event"
	"ocep/internal/fifo"
	"ocep/internal/vclock"
	"ocep/internal/wal"
)

// jrec is one journal record decoded: an ingested event (Seq >= 1), an
// explicit trace registration (Seq 0, Trace the name), or an applied
// peer-shard send (remote set, x the send).
type jrec struct {
	RawEvent
	remote bool
	x      shardExport
}

func (r *jrec) isEvent() bool { return !r.remote && r.Seq > 0 }

// encode is the record as recordLocked hands it to the journal.
func (r *jrec) encode() []byte {
	if r.Seq > 0 {
		return encodeEventRecord(nil, &r.RawEvent, nil)
	}
	return encodeTraceRecord(nil, r.Trace, nil)
}

// add appends r to the journal as recordLocked does.
func (j *journal) add(r jrec) {
	if r.remote {
		j.remotes.Push(r.x)
		j.append(binary.AppendUvarint([]byte{recRemote}, uint64(j.remotes.Len()-1)))
	} else {
		j.append(r.encode())
	}
}

// same reports whether two records say the same thing.
func same(a, b jrec) bool {
	if a.remote || b.remote {
		return a.remote && b.remote && a.x.MsgID == b.x.MsgID && a.x.ID == b.x.ID && a.x.VC.Equal(b.x.VC)
	}
	return a.RawEvent == b.RawEvent
}

// decode reads the span's next record, false at its end.
func (sp *journalSpan) decode() (jrec, bool) {
	p := sp.next()
	if p == nil {
		return jrec{}, false
	}
	r := recordReader{p: p[1:]}
	switch p[0] {
	case recEvent:
		return jrec{RawEvent: r.eventRecord()}, true
	case recTrace:
		return jrec{RawEvent: RawEvent{Trace: r.string()}}, true
	}
	return jrec{remote: true, x: *sp.remotes.At(r.int())}, true
}

// all decodes the log, oldest record first.
func (l *journal) all() []jrec {
	var out []jrec
	for sp, cur := l.span(journalCursor{}); len(sp.b) > 0; sp, cur = l.span(cur) {
		for r, ok := sp.decode(); ok; r, ok = sp.decode() {
			out = append(out, r)
		}
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

// chunkStarts lists the index of the first record of every chunk of c's
// journal but the first: where a reader crosses from one chunk to the
// next.
func chunkStarts(c *Collector) []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]int(nil), c.journal.firsts[1:]...)
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
	evs := jumbledWorkload(2000) // ~120 KB of records: the journal spans four chunks
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
			// cutAt is the stream position just past its events-th event.
			cutAt := func(events int) int {
				for i := range stream {
					if events == 0 {
						return i
					}
					if stream[i].isEvent() {
						events--
					}
				}
				return len(stream)
			}
			// Every 397th position, and both sides of every chunk boundary
			// of the journal the recovered primary serves from.
			var cuts []int
			for cut := 1; cut < len(stream); cut += 397 {
				cuts = append(cuts, cut)
			}
			c1.mu.Lock()
			served := c1.journal.all()
			c1.mu.Unlock()
			starts := chunkStarts(c1)
			for _, b := range starts {
				events := 0
				for _, r := range served[:b] {
					if r.isEvent() {
						events++
					}
				}
				cuts = append(cuts, cutAt(events-1), cutAt(events), cutAt(events+1))
			}
			// A boundary is straddled when replicas resume on both sides of
			// it, a few records away.
			straddled := 0
			for _, b := range starts {
				below, above := false, false
				for _, cut := range cuts {
					applied := 0
					for _, r := range stream[:cut] {
						if r.isEvent() {
							applied++
						}
					}
					c1.mu.Lock()
					at := c1.journal.indexAfter(applied)
					c1.mu.Unlock()
					below = below || at < b && at >= b-3
					above = above || at >= b && at <= b+3
				}
				if below && above {
					straddled++
				}
			}
			t.Logf("%d records, chunks from %v: %d cuts straddle %d boundaries", len(served), starts, len(cuts), straddled)
			if straddled < 2 {
				t.Fatalf("a stream of %d records in chunks starting at %v: the cuts straddle %d boundaries, want at least 2", len(stream), starts, straddled)
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
				rep, err := FollowPrimary(addr, c2, WithSessionHeartbeat(20*time.Millisecond), WithSessionLog(t.Logf))
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
		t.Fatalf("a collector nobody asked keeps a journal of %d records", c.journal.n)
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
				j.add(jrec{RawEvent: RawEvent{Trace: "t"}})
			case 1:
				j.add(jrec{remote: true, x: shardExport{MsgID: 1}})
			default:
				j.add(jrec{RawEvent: RawEvent{Trace: "t", Seq: i + 1}})
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

// TestExportChunkSize pins the export index's chunk to the 32 KiB size
// class beside the allocator's 8-byte header; internal/fifo's tests hold
// the spans a shard session cuts from it to their contract.
func TestExportChunkSize(t *testing.T) {
	if k := fifo.ChunkCap[shardExport](); k != 819 {
		t.Fatalf("chunks of %d exports, want 819 (32 KiB less the malloc header)", k)
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
	rep, err := FollowPrimary(addr, c2, WithSessionHeartbeat(20*time.Millisecond), WithSessionLog(t.Logf))
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

// TestJournalMatchesRecordModel holds the byte journal to a plain list of
// the records it was handed, over seeded random streams with empty
// strings, strings past the string table's 255 bytes, one record longer
// than a chunk, and registrations and remote sends among the events:
// the span at every record index reads the model from there, indexAfter
// agrees at every event offset, a snapshot taken mid-stream still encodes
// the model's prefix after 10 000 more appends, and a reader consuming
// spans outside the lock while a writer appends sees exactly the model.
func TestJournalMatchesRecordModel(t *testing.T) {
	str := func(rng *rand.Rand) string {
		switch rng.Intn(8) {
		case 0:
			return ""
		case 1:
			return strings.Repeat("l", 255+rng.Intn(300))
		}
		return fmt.Sprintf("s%d", rng.Intn(40))
	}
	stream := func(seed int64, n int) []jrec {
		rng := rand.New(rand.NewSource(seed))
		big := rng.Intn(n)
		model := make([]jrec, n)
		for i := range model {
			switch rng.Intn(10) {
			case 0:
				model[i] = jrec{RawEvent: RawEvent{Trace: str(rng)}}
			case 1:
				id := event.ID{Trace: event.TraceID(rng.Intn(9)), Index: rng.Intn(1000)}
				model[i] = jrec{remote: true, x: shardExport{MsgID: rng.Uint64(), ID: id, VC: vclock.VC{int32(i), 1, 2}.Stamp(int(id.Trace) % 3)}}
			default:
				model[i] = jrec{RawEvent: RawEvent{Trace: str(rng), Seq: 1 + rng.Intn(1<<20), Kind: event.Kind(rng.Intn(5)), MsgID: rng.Uint64(), Type: str(rng), Text: str(rng)}}
			}
			if i == big {
				model[i] = jrec{RawEvent: RawEvent{Trace: "big", Seq: 1, Text: strings.Repeat("b", fifo.ChunkBytes+100)}}
			}
		}
		return model
	}
	// events lists the model's event records.
	events := func(model []jrec) (out []RawEvent) {
		for _, r := range model {
			if r.isEvent() {
				out = append(out, r.RawEvent)
			}
		}
		return out
	}
	for seed := int64(1); seed <= 4; seed++ {
		model := stream(seed, 3000)
		more := stream(seed+100, 10000)
		all := append(append([]jrec(nil), model...), more...)
		// The writer appends under mu while a reader cuts spans under it
		// and decodes them outside it.
		var (
			mu   sync.Mutex
			j    journal
			snap snapshotState
		)
		grew := sync.NewCond(&mu)
		read := make(chan []jrec)
		go func() {
			var got []jrec
			var cur journalCursor
			for len(got) < len(all) {
				mu.Lock()
				sp, next := j.span(cur)
				for ; len(sp.b) == 0; sp, next = j.span(cur) {
					grew.Wait()
				}
				if next.idx <= cur.idx || next != j.seek(next.idx) {
					t.Errorf("seed %d: the span from record %d ends at %+v", seed, cur.idx, next)
				}
				mu.Unlock()
				for r, ok := sp.decode(); ok; r, ok = sp.decode() {
					got = append(got, r)
				}
				cur = next
			}
			read <- got
		}()
		half := len(model) / 2
		for i, r := range all {
			mu.Lock()
			if i == half {
				snap = snapshotState{journal: j}
			}
			j.add(r)
			grew.Broadcast()
			mu.Unlock()
		}
		if got := <-read; !slices.EqualFunc(got, all, same) {
			t.Fatalf("seed %d: a reader running beside the writer read %d records unlike the %d appended", seed, len(got), len(all))
		}
		// The span from every record index opens with that record and ends
		// where the cursor it returns begins.
		for i := 0; i <= len(all); i++ {
			sp, next := j.span(j.seek(i))
			if i == len(all) {
				if len(sp.b) != 0 || next != j.seek(i) {
					t.Fatalf("seed %d: the span at the head holds %d bytes and moves the cursor to %v", seed, len(sp.b), next)
				}
				break
			}
			if r, ok := sp.decode(); !ok || !same(r, all[i]) {
				t.Fatalf("seed %d: span(seek(%d)) opens with %+v, want %+v", seed, i, r, all[i])
			}
			k := i + 1
			for sp.next() != nil {
				k++
			}
			if want := j.seek(k); k < len(all) && next != want {
				t.Fatalf("seed %d: span(seek(%d)) holds %d records and ends at %v, want seek(%d) = %v", seed, i, k-i, next, k, want)
			}
		}
		// indexAfter at every event offset, against a scan of the model.
		for ev, seen, want := 0, 0, 0; ev <= j.events(); ev++ {
			for seen < ev {
				if all[want].isEvent() {
					seen++
				}
				want++
			}
			if got := j.indexAfter(ev); got != want {
				t.Fatalf("seed %d: indexAfter(%d) = %d, want %d", seed, ev, got, want)
			}
		}
		// The mid-stream snapshot encodes the model's prefix, however far
		// the journal has grown since.
		var buf bytes.Buffer
		if err := encodeSnapshot(&buf, snap); err != nil {
			t.Fatal(err)
		}
		var got []RawEvent
		if _, err := wal.Read(&buf, func(p []byte) error {
			r := &recordReader{p: p[1:]}
			if p[0] == recEvent {
				got = append(got, r.eventRecord())
			}
			return r.err
		}); err != nil {
			t.Fatal(err)
		}
		if want := events(model[:half]); !slices.Equal(got, want) {
			t.Fatalf("seed %d: a snapshot taken at record %d encodes %d events after %d more appends, want the %d before it", seed, half, len(got), len(all)-half, len(want))
		}
	}
}
