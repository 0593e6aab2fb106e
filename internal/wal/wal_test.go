package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"testing/iotest"
	"time"
)

func collect(t *testing.T, dir string) ([][]byte, ReplayStats) {
	t.Helper()
	var got [][]byte
	stats, err := Replay(dir, func(p []byte) error {
		cp := make([]byte, len(p))
		copy(cp, p)
		got = append(got, cp)
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return got, stats
}

func appendN(t *testing.T, l *Log, start, n int) {
	t.Helper()
	for i := start; i < start+n; i++ {
		seq, err := l.Append([]byte(fmt.Sprintf("record-%04d", i)))
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if err := l.Commit(seq); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, stats, err := Open(dir, Options{Policy: SyncAlways}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 0 || stats.Truncated {
		t.Fatalf("fresh log replayed %+v", stats)
	}
	appendN(t, l, 0, 100)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, stats := collect(t, dir)
	if len(got) != 100 || stats.Records != 100 || stats.Truncated {
		t.Fatalf("replayed %d records, stats %+v", len(got), stats)
	}
	for i, p := range got {
		if want := fmt.Sprintf("record-%04d", i); string(p) != want {
			t.Fatalf("record %d = %q, want %q", i, p, want)
		}
	}

	// Reopen for append: replay then continue.
	var replayed int
	l2, stats2, err := Open(dir, Options{Policy: SyncAlways}, func([]byte) error { replayed++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if replayed != 100 || stats2.Records != 100 {
		t.Fatalf("reopen replayed %d (stats %+v)", replayed, stats2)
	}
	appendN(t, l2, 100, 10)
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	got, _ = collect(t, dir)
	if len(got) != 110 {
		t.Fatalf("after reopen+append want 110 records, got %d", len(got))
	}
}

// TestAppendAllocs: appending a record allocates nothing — not its
// header, which escaped through the buffered writer as a local, one
// allocation per record.
func TestAppendAllocs(t *testing.T) {
	l, _, err := Open(t.TempDir(), Options{Policy: SyncNone}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	payload := []byte("record-0000")
	if allocs := testing.AllocsPerRun(10000, func() {
		if _, err := l.Append(payload); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("Append costs %v allocations per record, want 0", allocs)
	}
}

func TestGroupCommitConcurrent(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Policy: SyncAlways}, nil)
	if err != nil {
		t.Fatal(err)
	}
	const workers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				seq, err := l.Append([]byte(fmt.Sprintf("w%d-%d", w, i)))
				if err != nil {
					t.Errorf("append: %v", err)
					return
				}
				if err := l.Commit(seq); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, stats := collect(t, dir)
	if len(got) != workers*per || stats.Truncated {
		t.Fatalf("got %d records (want %d), stats %+v", len(got), workers*per, stats)
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Policy: SyncAlways}, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 20)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the final record: chop a few bytes off the segment.
	path := filepath.Join(dir, segName(1))
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	var replayed int
	l2, stats, err := Open(dir, Options{Policy: SyncAlways}, func([]byte) error { replayed++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if replayed != 19 || stats.Records != 19 {
		t.Fatalf("replayed %d, want 19 (stats %+v)", replayed, stats)
	}
	if !stats.Truncated || stats.DiscardedRecords != 1 || stats.DiscardedBytes == 0 {
		t.Fatalf("torn tail stats %+v", stats)
	}
	// The log must be appendable at the truncation point.
	appendN(t, l2, 100, 5)
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	got, stats := collect(t, dir)
	if len(got) != 24 || stats.Truncated {
		t.Fatalf("after repair want 24 clean records, got %d (stats %+v)", len(got), stats)
	}
}

func TestFlippedByteDiscardsSuffix(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Policy: SyncAlways}, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 30)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte in the 11th record. Records are uniform:
	// header(16) + 10 * (8 + 11) = offset of record 10's frame.
	path := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := segHeaderSize + 10*(recHeaderSize+11) + recHeaderSize + 4
	data[off] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	var replayed int
	l2, stats, err := Open(dir, Options{Policy: SyncAlways}, func([]byte) error { replayed++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if replayed != 10 {
		t.Fatalf("replayed %d, want the 10-record prefix", replayed)
	}
	if !stats.Truncated || stats.DiscardedRecords != 20 {
		t.Fatalf("flipped byte must discard the corrupt record plus the 19 after it: %+v", stats)
	}
	appendN(t, l2, 200, 2)
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	got, stats := collect(t, dir)
	if len(got) != 12 || stats.Truncated {
		t.Fatalf("after repair want 12 clean records, got %d (stats %+v)", len(got), stats)
	}
	if string(got[10]) != "record-0200" {
		t.Fatalf("appends must land after the valid prefix, got %q", got[10])
	}
}

func TestCorruptionInOlderSegmentDropsLaterSegments(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Policy: SyncAlways}, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 10)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Segment 2, as an earlier build's rotation left one behind.
	var seg2 bytes.Buffer
	w := NewWriter(&seg2)
	for i := 10; i < 20; i++ {
		w.Append([]byte(fmt.Sprintf("record-%04d", i)))
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	hdr := segHeader(2)
	if err := os.WriteFile(filepath.Join(dir, segName(2)), append(hdr[:], seg2.Bytes()[segHeaderSize:]...), 0o644); err != nil {
		t.Fatal(err)
	}
	// Corrupt record 5 of segment 1: segment 2's records sit past a hole
	// and must be discarded too.
	path := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := segHeaderSize + 5*(recHeaderSize+11) + recHeaderSize + 2
	data[off] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var replayed int
	l2, stats, err := Open(dir, Options{Policy: SyncAlways}, func([]byte) error { replayed++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if replayed != 5 {
		t.Fatalf("replayed %d, want 5", replayed)
	}
	if stats.DiscardedRecords != 15 {
		t.Fatalf("want 15 discarded (5 in segment 1, 10 in segment 2), got %+v", stats)
	}
	if _, err := os.Stat(filepath.Join(dir, segName(2))); !os.IsNotExist(err) {
		t.Fatalf("segment 2 must be deleted after the hole, stat err = %v", err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSyncIntervalAndNoneFlush(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncInterval, SyncNone} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			l, _, err := Open(dir, Options{Policy: policy, Interval: 10 * time.Millisecond}, nil)
			if err != nil {
				t.Fatal(err)
			}
			seq, err := l.Append([]byte("hello"))
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Commit(seq); err != nil { // cheap no-op
				t.Fatal(err)
			}
			// The background flusher must make the record visible without
			// Close.
			deadline := time.Now().Add(2 * time.Second)
			for {
				got, _ := collect(t, dir)
				if len(got) == 1 && bytes.Equal(got[0], []byte("hello")) {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("record never flushed by the interval loop")
				}
				time.Sleep(5 * time.Millisecond)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncPolicy
	}{{"always", SyncAlways}, {"interval", SyncInterval}, {"none", SyncNone}} {
		got, err := ParseSyncPolicy(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Errorf("String() = %q, want %q", got.String(), tc.in)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Error("bad policy must fail")
	}
}

func TestAppendRejectsBadPayloads(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Policy: SyncNone}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append(nil); err == nil {
		t.Error("empty payload must be rejected")
	}
}

// TestWriterReadRoundTrip: a standalone segment written to an
// io.Writer reads back through Read from a reader that hands over one
// byte at a time, a record longer than the read buffer included.
func TestWriterReadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	want := [][]byte{[]byte("first"), bytes.Repeat([]byte("long"), readBufSize), []byte("last")}
	for _, p := range want {
		w.Append(p)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	var got [][]byte
	stats, err := Read(iotest.OneByteReader(&buf), func(p []byte) error {
		got = append(got, bytes.Clone(p))
		return nil
	})
	if err != nil || stats.Records != len(want) || stats.Truncated {
		t.Fatalf("read %+v, %v", stats, err)
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d read back as %d bytes, want %d", i, len(got[i]), len(want[i]))
		}
	}
	if _, err := Read(bytes.NewReader([]byte("not a segment")), nil); !errors.Is(err, ErrNoHeader) {
		t.Fatalf("reading a header-less input: %v, want ErrNoHeader", err)
	}
}

// TestReadAllocatesWhatArrives: a record that claims the largest payload
// on a few bytes of input is a torn record, found without allocating
// the length it claims.
func TestReadAllocatesWhatArrives(t *testing.T) {
	hdr := segHeader(0)
	in := append(hdr[:], 0, 0, 0, 4, 0, 0, 0, 0, 'a', 'b', 'c', 'd') // MaxRecord bytes claimed
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	stats, err := Read(bytes.NewReader(in), nil)
	runtime.ReadMemStats(&after)
	if err != nil || !stats.Truncated || stats.DiscardedRecords != 1 || stats.DiscardedBytes != 12 {
		t.Fatalf("read %+v, %v; want one torn record of 12 bytes", stats, err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("a %d-byte input claiming %d bytes allocated %d", len(in), MaxRecord, got)
	}
}
