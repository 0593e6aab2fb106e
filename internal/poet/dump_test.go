package poet

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"ocep/internal/event"
	"ocep/internal/vclock"
	"ocep/internal/wal"
)

func TestDumpReloadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	c := journaled(t)
	raws := randomRawComputation(rng, 3, 200)
	for _, r := range raws {
		if err := c.Report(r); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := c.Dump(&buf); err != nil {
		t.Fatal(err)
	}

	c2 := NewCollector()
	n, err := c2.Reload(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(raws) {
		t.Fatalf("reloaded %d events want %d", n, len(raws))
	}
	// The reloaded computation must be identical: same traces, same
	// events, same vector clocks.
	st1, st2 := c.Store(), c2.Store()
	if st1.NumTraces() != st2.NumTraces() {
		t.Fatalf("trace counts differ: %d vs %d", st1.NumTraces(), st2.NumTraces())
	}
	for tr := 0; tr < st1.NumTraces(); tr++ {
		tid := event.TraceID(tr)
		if st1.TraceName(tid) != st2.TraceName(tid) {
			t.Fatalf("trace %d name differs", tr)
		}
		if st1.Len(tid) != st2.Len(tid) {
			t.Fatalf("trace %d length differs", tr)
		}
		for i, e1 := range st1.Events(tid) {
			e2 := st2.Events(tid)[i]
			if e1.ID != e2.ID || e1.Kind != e2.Kind || e1.Type != e2.Type ||
				e1.Text != e2.Text || !e1.VC.Equal(e2.VC) || e1.Partner != e2.Partner {
				t.Fatalf("event differs after reload:\n  %s\n  %s", e1, e2)
			}
		}
	}
}

// journaled returns a fresh collector that keeps its journal.
func journaled(t *testing.T) *Collector {
	t.Helper()
	c := NewCollector()
	if err := c.EnableReplicationLog(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestDumpRequiresJournal(t *testing.T) {
	c := NewCollector()
	var buf bytes.Buffer
	if err := c.Dump(&buf); err == nil || !strings.Contains(err.Error(), "EnableReplicationLog") {
		t.Fatalf("dump without the journal must fail, got %v", err)
	}
}

// TestDumpGolden: the dump of a fixed seeded workload hashes to the value
// recorded when records began to spell their strings through the string
// table of their journal chunk (61 026 bytes literally, 56 798 so), so
// the format stays byte for byte what that change made it. The workload
// has every record kind a journal holds: a sharded collector's explicit
// registration, receives held for their sends, a peer's remote send
// applied mid-stream (which a dump leaves out), empty, long and
// 255+-byte texts, and a stranded event.
func TestDumpGolden(t *testing.T) {
	const want = "5e919398f34ef650ed4855d9c887c2fc68c7e554e6f2b25d491748e0679de04c"
	c := NewCollector()
	if err := c.EnableSharding(0, 2); err != nil {
		t.Fatal(err)
	}
	if err := c.EnableReplicationLog(); err != nil {
		t.Fatal(err)
	}
	c.RegisterTrace("explicit")
	raws := randomRawComputation(rand.New(rand.NewSource(29)), 3, 1500)
	for i, r := range raws {
		if i%7 == 0 {
			r.Text = strings.Repeat("x", i%300)
		}
		if i == 700 {
			if err := c.SupplyRemoteSend(1<<40, event.ID{Trace: 1, Index: 1}, vclock.VC{0, 1}.Stamp(1)); err != nil {
				t.Fatal(err)
			}
			reportAll(t, c, []RawEvent{{Trace: "peer-rx", Seq: 1, Kind: event.KindReceive, Type: "r", MsgID: 1 << 40}})
		}
		reportAll(t, c, []RawEvent{r})
	}
	reportAll(t, c, []RawEvent{{Trace: "p1", Seq: 9999, Kind: event.KindInternal, Type: "stranded"}})
	var buf bytes.Buffer
	if err := c.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want {
		t.Fatalf("the dump of %d bytes hashes to %s, want %s", buf.Len(), got, want)
	}
}

// writeCounter counts the writes it is handed, as a file would count
// write(2) calls.
type writeCounter struct {
	bytes.Buffer
	writes int
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestDumpWritesInBlocks: a dump — and so a snapshot, and an uncompressed
// DumpFile — reaches its writer in 64 KiB blocks, not one write per
// encoded event.
func TestDumpWritesInBlocks(t *testing.T) {
	const n = 20000
	c := journaled(t)
	reportN(t, c, "p0", 1, n)
	var w writeCounter
	if err := c.Dump(&w); err != nil {
		t.Fatal(err)
	}
	blocks := w.Len()/(64<<10) + 1
	t.Logf("%d events, %d bytes, %d writes", n, w.Len(), w.writes)
	if w.writes > blocks {
		t.Fatalf("a dump of %d events (%d bytes) took %d writes, want at most %d", n, w.Len(), w.writes, blocks)
	}
	got, err := NewCollector().Reload(&w)
	if err != nil || got != n {
		t.Fatalf("reload = %d, %v", got, err)
	}
}

func TestDumpFileReloadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.poet")
	c := journaled(t)
	if err := c.Report(RawEvent{Trace: "p0", Seq: 1, Kind: event.KindInternal, Type: "x"}); err != nil {
		t.Fatal(err)
	}
	if err := c.DumpFile(path); err != nil {
		t.Fatal(err)
	}
	c2 := NewCollector()
	n, err := c2.ReloadFile(path)
	if err != nil || n != 1 {
		t.Fatalf("reload = %d, %v", n, err)
	}
	if _, err := c2.ReloadFile(filepath.Join(dir, "missing.poet")); err == nil {
		t.Fatalf("reloading a missing file must fail")
	}
}

func TestDumpFileGzip(t *testing.T) {
	dir := t.TempDir()
	plain := filepath.Join(dir, "trace.poet")
	gz := filepath.Join(dir, "trace.poet.gz")

	rng := rand.New(rand.NewSource(9))
	c := journaled(t)
	raws := randomRawComputation(rng, 3, 1500) // the dump walks four journal chunks
	for _, r := range raws {
		if err := c.Report(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.DumpFile(plain); err != nil {
		t.Fatal(err)
	}
	if err := c.DumpFile(gz); err != nil {
		t.Fatal(err)
	}
	ps, _ := os.Stat(plain)
	gs, _ := os.Stat(gz)
	if gs.Size() >= ps.Size() {
		t.Fatalf("compressed dump (%d) not smaller than plain (%d)", gs.Size(), ps.Size())
	}
	c2 := NewCollector()
	n, err := c2.ReloadFile(gz)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(raws) {
		t.Fatalf("reloaded %d of %d from gzip", n, len(raws))
	}
	if got, want := stateSig(c2), stateSig(c); !equalSlices(got, want) {
		t.Fatalf("the reloaded linearization differs after the gzip round trip:\nwant %v\ngot  %v", want, got)
	}
	// A plain file with a .gz name is rejected cleanly.
	bad := filepath.Join(dir, "bad.gz")
	if err := os.WriteFile(bad, []byte("not gzip"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.ReloadFile(bad); err == nil {
		t.Fatalf("non-gzip .gz file must fail")
	}
}

func TestReloadRejectsGarbage(t *testing.T) {
	c := NewCollector()
	if _, err := c.Reload(bytes.NewBufferString("not a dump")); err == nil {
		t.Fatalf("garbage must be rejected")
	}
	// Wrong magic.
	var buf bytes.Buffer
	good := journaled(t)
	if err := good.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	// Corrupt the magic bytes.
	data := buf.Bytes()
	data[0] = 'X'
	if _, err := c.Reload(bytes.NewReader(data)); err == nil {
		t.Fatalf("corrupted magic must be rejected")
	}
}

// kind256Dump is a dump whose one event, on a registered trace, has
// kind 256, which a Kind's byte would read as 0.
func kind256Dump(t testing.TB) []byte {
	reg := appendString([]byte{recChunk, recTrace, 0}, "a")
	ev := []byte{recEvent, 1, 1, 0x80, 0x02, 0, 0, 1, 'x', 0, 0} // trace by reference 1, seq 1
	return segmentOf(t, true, reg, ev)
}

// TestReloadRefusesKindAboveRange: the record decoder refuses a kind no
// Kind names before converting it, so recovery, reload and a standby
// never apply kind 256 as kind 0.
func TestReloadRefusesKindAboveRange(t *testing.T) {
	c := NewCollector()
	if n, err := c.Reload(bytes.NewReader(kind256Dump(t))); !errors.Is(err, ErrEventKind) || n != 0 || c.Delivered() != 0 {
		t.Fatalf("reloading a kind-256 event: %d events (%d delivered), %v; want %v", n, c.Delivered(), err, ErrEventKind)
	}
}

// TestDumpFileKeepsTargetOnFailure: a dump that fails — here for want of
// the journal — leaves the file it was asked to replace as it was, and
// no temporary beside it.
func TestDumpFileKeepsTargetOnFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.poet")
	good := journaled(t)
	reportN(t, good, "p0", 1, 10)
	if err := good.DumpFile(path); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := NewCollector().DumpFile(path); err == nil || !strings.Contains(err.Error(), "journal") {
		t.Fatalf("dumping a journal-less collector: %v, want the journal error", err)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("the failed dump left %d bytes (%v) where a %d-byte dump was", len(after), err, len(before))
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("the failed dump left its temporary behind: %v", err)
	}
	if n, err := NewCollector().ReloadFile(path); err != nil || n != 10 {
		t.Fatalf("reloading the kept dump = %d, %v", n, err)
	}
}

// cutDump is a dump of rounds rounds of durWorkload with an explicit
// registration, receives held for their sends, and a stranded event:
// every record kind and both delivery paths.
func cutDump(t testing.TB, rounds int) []byte {
	c := NewCollector()
	if err := c.EnableReplicationLog(); err != nil {
		t.Fatal(err)
	}
	c.RegisterTrace("explicit")
	for _, e := range append(durWorkload(rounds), RawEvent{Trace: "beta", Seq: 99, Kind: event.KindInternal, Type: "stranded"}) {
		if err := c.Report(e); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := c.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// eventsBefore walks a dump's framing independently of the reader and
// counts the event records that end at or before cut.
func eventsBefore(dump []byte, cut int) int {
	n := 0
	for off := 16; off+8 <= len(dump); {
		end := off + 8 + int(binary.LittleEndian.Uint32(dump[off:]))
		if end > cut {
			break
		}
		if isEvent(dump[off+8 : end]) {
			n++
		}
		off = end
	}
	return n
}

// checkCut holds Reload and the lenient snapshot path to a dump cut at
// one offset: a strict reload of anything short of the whole fails, and
// the lenient one keeps exactly the events whose records are whole —
// except inside the segment header, where there is nothing to keep and
// both fail.
func checkCut(t *testing.T, dump []byte, cut int) {
	t.Helper()
	whole := eventsBefore(dump, len(dump))
	n, err := NewCollector().Reload(bytes.NewReader(dump[:cut]))
	switch {
	case cut == len(dump) && (err != nil || n != whole):
		t.Fatalf("reloading the whole dump = %d, %v; want %d", n, err, whole)
	case cut < len(dump) && err == nil:
		t.Fatalf("a dump cut at byte %d of %d reloaded without error (%d events)", cut, len(dump), n)
	}
	n, truncated, err := NewCollector().reloadSnapshot(bytes.NewReader(dump[:cut]), true, nil)
	switch {
	case cut < 16:
		if err == nil {
			t.Fatalf("a dump cut inside its header (byte %d) recovered %d events", cut, n)
		}
	case err != nil || n != eventsBefore(dump, cut) || truncated != (cut < len(dump)):
		t.Fatalf("lenient reload of a dump cut at byte %d of %d = %d events, truncated %v, %v; want %d, %v",
			cut, len(dump), n, truncated, err, eventsBefore(dump, cut), cut < len(dump))
	}
}

// TestReloadDetectsEveryCut: a dump cut at any byte — on a record
// boundary or inside a record — is told from a whole one.
func TestReloadDetectsEveryCut(t *testing.T) {
	dump := cutDump(t, 6)
	for cut := 0; cut <= len(dump); cut++ {
		checkCut(t, dump, cut)
	}
}

// FuzzReload feeds arbitrary bytes to Reload and to the lenient snapshot
// path: neither may panic, nor allocate more than a fixed slack plus a
// bounded multiple of the bytes it was given, whatever lengths those
// bytes claim. The same target cuts a valid dump at an arbitrary offset
// and holds both paths to it (checkCut). The arbitrary bytes are seeded
// small: the engine minimizes an interesting input in time quadratic in
// its length.
func FuzzReload(f *testing.F) {
	dump, small := cutDump(f, 6), cutDump(f, 1)
	f.Add(small, uint(len(dump)))
	f.Add(small[:len(small)-3], uint(len(dump)/2))
	f.Add([]byte(gobDumpMagic), uint(17))
	// A record that claims 64 MiB, on 24 bytes of input.
	f.Add(append(append([]byte(nil), small[:16]...), 0, 0, 0, 4, 0, 0, 0, 0, 1, 2, 3, 4), uint(20))
	// Dumps whose string tables do not add up, one of the literal
	// spelling, one with a marker among its leading registrations that
	// cuts off a later reference, and one with an event of kind 256;
	// each fails cleanly.
	mark := func(rec []byte) []byte { return append([]byte{recChunk}, rec...) }
	ev := []byte{recEvent, 1, 1, 0, 0, 0, 1, 'x', 0, 0} // trace by reference 1
	reg := func(name string) []byte { return appendString([]byte{recTrace, 0}, name) }
	for _, in := range [][]byte{
		segmentOf(f, true, mark(ev)),                 // a reference before its definition
		segmentOf(f, true, mark(reg("a")), mark(ev)), // a reference past the marker that reset it
		literalDump(f),
		segmentOf(f, true, mark(reg("a")), reg("b"), mark(reg("c")), []byte{recTrace, 2}),
		kind256Dump(f),
	} {
		if _, err := NewCollector().Reload(bytes.NewReader(in)); err == nil {
			f.Fatalf("seed %x reloads without an error", in)
		}
		f.Add(in, uint(len(in)))
	}
	f.Fuzz(func(t *testing.T, in []byte, cut uint) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _ = NewCollector().Reload(bytes.NewReader(in))
		_, _, _ = NewCollector().reloadSnapshot(bytes.NewReader(in), true, nil)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(2<<20+256*len(in)); got > limit {
			t.Fatalf("reloading %d bytes allocated %d bytes, over the %d limit", len(in), got, limit)
		}
		checkCut(t, dump, int(cut%uint(len(dump)+1)))
	})
}

// literalRecord is raw's record in the literal spelling of earlier
// builds, which spelled every string out.
func literalRecord(raw *RawEvent) []byte {
	b := appendString([]byte{recEvent}, raw.Trace)
	b = binary.AppendUvarint(binary.AppendUvarint(binary.AppendUvarint(b, uint64(raw.Seq)), uint64(raw.Kind)), raw.MsgID)
	return appendString(appendString(b, raw.Type), raw.Text)
}

// segmentOf writes recs as one standalone segment; with end set, an end
// record counting them closes it, as a dump's does.
func segmentOf(t testing.TB, end bool, recs ...[]byte) []byte {
	var buf bytes.Buffer
	sw := wal.NewWriter(&buf)
	for _, p := range recs {
		sw.Append(p)
	}
	if end {
		sw.Append(binary.AppendUvarint([]byte{recEnd}, uint64(len(recs))))
	}
	if err := sw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// literalDump is a dump as earlier builds wrote it: the registration and
// the events spelled literally, and no chunk marker.
func literalDump(t testing.TB) []byte {
	recs := [][]byte{appendString([]byte{recTrace}, "alpha")}
	for _, e := range durWorkload(1) {
		recs = append(recs, literalRecord(&e))
	}
	return segmentOf(t, true, recs...)
}

// TestLiteralEraRefused: a dump, snapshot or write-ahead log of the
// literal spelling — no chunk marker at its head — is refused by name,
// by Reload, ReloadFile, recovery and a read-only directory reload, and
// never half-read: a lenient snapshot read would otherwise take it for
// a torn one and recover nothing.
func TestLiteralEraRefused(t *testing.T) {
	dump := literalDump(t)
	if n, err := NewCollector().Reload(bytes.NewReader(dump)); !errors.Is(err, errLiteralLog) || n != 0 {
		t.Fatalf("reloading a literal-era dump: %d events, %v; want the literal-era error", n, err)
	}
	snapDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(snapDir, SnapshotFile), dump, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewCollector().ReloadFile(filepath.Join(snapDir, SnapshotFile)); !errors.Is(err, errLiteralLog) {
		t.Fatalf("ReloadFile of a literal-era dump: %v", err)
	}
	walDir := t.TempDir()
	log, _, err := wal.Open(walDir, wal.Options{Policy: wal.SyncAlways}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range durWorkload(3) {
		if _, err := log.Append(literalRecord(&e)); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{snapDir, walDir} {
		if _, err := OpenDurable(NewCollector(), DurableOptions{Dir: dir}); !errors.Is(err, errLiteralLog) {
			t.Fatalf("recovering the literal-era %s: %v, want the literal-era error", filepath.Base(dir), err)
		}
		if _, err := NewCollector().ReloadFile(dir); !errors.Is(err, errLiteralLog) {
			t.Fatalf("reloading the literal-era directory %s: %v", filepath.Base(dir), err)
		}
	}
}
