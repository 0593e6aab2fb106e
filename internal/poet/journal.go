package poet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"ocep/internal/event"
	"ocep/internal/fifo"
)

// The ingestion journal: one in-memory log of every input the collector
// accepted, in the order it accepted them, in the WAL's record encoding.
// Everything replayable is a view of it — the WAL appends the bytes it
// stores (recordLocked encodes each record once, under one lock), Dump
// and Snapshot copy its event records in ingestion order, and a replica
// session is a cursor over it whose resume offset counts its event
// records. The collector is a deterministic function of that order, so
// replaying any view rebuilds the same linearization and the same
// journal: an offset taken before a restart names the same prefix after.
//
// It is never truncated — a reader that starts past record zero would
// need a checkpoint of the collector's state, which no format carries
// yet — so the journal and retention refuse each other.

// recRemote is the journal-only record of a peer-shard send, which a
// standby must apply at the same position of the stream: its index in
// the journal's side log. It never reaches the disk or the wire.
const recRemote = 4

// journal stores each record once, as a uvarint length and the bytes
// recordLocked encoded, in chunks of fifo.ChunkBytes that no record straddles
// (a longer record gets a chunk of its own). A chunk is never moved or
// resliced, and its bytes past its last record stay zero — a length no
// record has — so a copy of the journal taken under mu is an immutable
// prefix, and a span cut from it stays valid outside the lock.
type journal struct {
	chunks  [][]byte
	fill    int                     // bytes written into the last chunk
	firsts  []int                   // firsts[k] is the index of chunk k's first record
	n       int                     // records
	size    int                     // bytes in chunks
	remotes fifo.Queue[shardExport] // the applied peer-shard sends, by value
	// others lists the indices of the non-event records, ascending: it
	// turns an event offset into a journal index without a scan.
	others []int
}

// journalCursor is a reader's place in the journal: a record boundary,
// and the index of the record there.
type journalCursor struct{ chunk, off, idx int }

// journalSpan is a run of whole records and the side log as of the cut.
type journalSpan struct {
	b       []byte
	remotes fifo.Queue[shardExport]
}

// append copies one encoded record to the journal's head.
func (j *journal) append(rec []byte) {
	if rec[0] != recEvent {
		j.others = append(j.others, j.n)
	}
	var hdr [binary.MaxVarintLen64]byte
	w := binary.PutUvarint(hdr[:], uint64(len(rec)))
	if len(j.chunks) == 0 || j.fill+w+len(rec) > len(j.chunks[len(j.chunks)-1]) {
		c := make([]byte, max(fifo.ChunkBytes, w+len(rec)))
		j.chunks, j.firsts = append(j.chunks, c), append(j.firsts, j.n)
		j.fill, j.size = 0, j.size+len(c)
	}
	c := j.chunks[len(j.chunks)-1]
	j.fill += copy(c[j.fill:], hdr[:w])
	j.fill += copy(c[j.fill:], rec)
	j.n++
}

// events is the number of event records: the head replica offsets are
// measured against.
func (j *journal) events() int { return j.n - len(j.others) }

// indexAfter translates an event offset into the journal index just
// past the offset-th event record.
func (j *journal) indexAfter(events int) int {
	if events == 0 {
		return 0
	}
	// others[k]-k is the number of event records before the k-th
	// non-event record, and never decreases with k.
	k := sort.Search(len(j.others), func(k int) bool { return j.others[k]-k >= events })
	return events + k
}

// seek returns the cursor at record idx: a search for its chunk, then a
// walk over the records before it in that chunk.
func (j *journal) seek(idx int) (cur journalCursor) {
	if cur.chunk = sort.Search(len(j.firsts), func(k int) bool { return j.firsts[k] > idx }) - 1; cur.chunk < 0 {
		return journalCursor{}
	}
	cur.idx = idx
	for skip := idx - j.firsts[cur.chunk]; skip > 0; skip-- {
		n, w := binary.Uvarint(j.chunks[cur.chunk][cur.off:])
		cur.off += w + int(n)
	}
	return cur
}

// span returns the records from cur to the end of its chunk (the fill,
// in the last one), cut with cap == len, and the cursor past them; an
// empty span and cur when cur is at the head.
func (j *journal) span(cur journalCursor) (journalSpan, journalCursor) {
	for ; cur.chunk < len(j.chunks)-1; cur = (journalCursor{cur.chunk + 1, 0, j.firsts[cur.chunk+1]}) {
		if c := j.chunks[cur.chunk]; cur.off < len(c) && c[cur.off] != 0 {
			return journalSpan{c[cur.off:], j.remotes}, journalCursor{cur.chunk + 1, 0, j.firsts[cur.chunk+1]}
		}
	}
	if cur.chunk == len(j.chunks)-1 && cur.off < j.fill {
		return journalSpan{j.chunks[cur.chunk][cur.off:j.fill:j.fill], j.remotes}, journalCursor{cur.chunk, j.fill, j.n}
	}
	return journalSpan{}, cur
}

// next returns the span's next record, or nil at its end.
func (s *journalSpan) next() (rec []byte) {
	if n, w := binary.Uvarint(s.b); n > 0 {
		rec, s.b = s.b[w:w+int(n)], s.b[w+int(n):]
	}
	return rec
}

// EnableReplicationLog turns the journal on (the name is its oldest
// reader's), so the collector can Dump, snapshot (OpenDurable calls this
// itself) and serve replica sessions. Must be called before any event is
// ingested — every reader needs the journal from record zero — and
// refuses a retaining collector. Idempotent. A collector on which it was
// never called keeps no copy of what it ingested.
func (c *Collector) EnableReplicationLog() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.journal != nil {
		return nil
	}
	if err := c.retainingLocked("the journal"); err != nil {
		return err
	}
	if c.ingests > 0 {
		return errors.New("poet: EnableReplicationLog must be called before any event is ingested (a dump, snapshot or replica needs the journal from record zero)")
	}
	c.journal = &journal{}
	c.repl.confirmed = make(map[int]int)
	return nil
}

// retainingLocked refuses, on behalf of a log read from record zero, a
// collector that already evicts (SetRetention states the converse).
func (c *Collector) retainingLocked(what string) error {
	if c.retain > 0 {
		return fmt.Errorf("poet: %s is incompatible with SetRetention (it is read from record zero, and only the delivery index can trim)", what)
	}
	return nil
}

// walTicket is the half of a record's durability that runs after mu is
// released: the fsync barrier for the append recordLocked made.
type walTicket struct {
	d   *Durability
	seq int64
	err error
}

func (t walTicket) commit() error {
	if t.d == nil || t.err != nil {
		return t.err
	}
	return t.d.commit(t.seq)
}

// recordLocked is the one place an accepted input enters the
// collector's history: Report, RegisterTrace (Seq 0) and
// SupplyRemoteSend call it in the critical section that applies the
// input. It counts the record and, when something keeps it, encodes it
// once: the journal stores those bytes and the WAL appends them, under
// mu, so the orders agree. Remote sends stay off the disk (peers
// re-stream them after a restart); the journal keeps them by value.
func (c *Collector) recordLocked(raw *RawEvent, remote *shardExport) (t walTicket) {
	logged := c.tel.walTraceRecs
	switch {
	case remote != nil:
		c.tel.shardRemote.Inc()
		if c.journal != nil {
			c.journal.remotes.Push(*remote)
			c.rec = binary.AppendUvarint(append(c.rec[:0], recRemote), uint64(c.journal.remotes.Len()-1))
			c.journal.append(c.rec)
		}
		return t
	case raw.Seq > 0:
		c.ingests++
		c.tel.ingested.Inc()
		if c.journal == nil && c.durable == nil {
			return t
		}
		logged = c.tel.walEventRecs
		c.rec = encodeEventRecord(c.rec[:0], raw, nil)
	default:
		c.rec = encodeTraceRecord(c.rec[:0], raw.Trace, nil)
	}
	if c.journal != nil {
		c.journal.append(c.rec)
	}
	if t.d = c.durable; t.d != nil {
		if t.seq, t.err = t.d.appendLocked(c.rec); t.err == nil {
			logged.Inc()
		}
	}
	return t
}

// registeredTracesLocked lists the registered trace names in ID order:
// what a dump's leading trace records and a replica attach replay to
// reproduce the trace numbering. The holes a sharded store leaves for
// peer-homed IDs are skipped: replaying a hole's fallback name would
// claim a home ID for it.
func (c *Collector) registeredTracesLocked() []string {
	names := make([]string, 0, len(c.registered))
	for t, home := range c.registered {
		if home {
			names = append(names, c.store.TraceName(event.TraceID(t)))
		}
	}
	return names
}
