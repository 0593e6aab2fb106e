package poet

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ocep/internal/event"
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
	idx := bytes.Index(data, []byte(dumpMagic))
	if idx >= 0 {
		data[idx] = 'X'
	}
	if _, err := c.Reload(bytes.NewReader(data)); err == nil {
		t.Fatalf("corrupted magic must be rejected")
	}
}
