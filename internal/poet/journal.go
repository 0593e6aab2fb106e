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
// copies its records in ingestion order, and a replica session is a
// cursor over it whose resume offset counts its event records. A record
// spells its strings through its chunk's table: the chunk's first record
// to spell one carries a one-byte marker before its kind, and the table
// starts empty there, as it does at the first such record after a new
// WAL write position (journal.cut). The collector is
// a deterministic function of that order, so replaying any view rebuilds
// the same linearization and the same journal: an offset taken before a
// restart names the same prefix after.
//
// It is never truncated — a reader that starts past record zero would
// need a checkpoint of the collector's state, which no format carries
// yet — so the journal and retention refuse each other.

// recRemote is the journal-only record of a peer-shard send, which a
// standby must apply at the same position of the stream: its index in
// Collector.remote. It never reaches the disk or the wire.
const recRemote = 4

// journal stores each record once, as a uvarint length and the bytes
// recordLocked encoded, in chunks of fifo.ChunkBytes that no record straddles
// (a longer record gets a chunk of its own). A chunk is never moved or
// resliced, and its bytes past its last record stay zero — a length no
// record has — so a copy of the journal taken under mu is an immutable
// prefix, and a span cut from it stays valid outside the lock.
type journal struct {
	chunks [][]byte
	fill   int         // bytes written into the last chunk
	firsts []int       // firsts[k] is the index of chunk k's first record
	n      int         // records
	size   int         // bytes in chunks
	strs   stringTable // the table since the last marker
	cut    bool        // the next record to spell a string opens a table
	// others lists the indices of the non-event records, ascending: it
	// turns an event offset into a journal index without a scan.
	others []int
}

// journalCursor is a reader's place in the journal: a record boundary,
// and the index of the record there.
type journalCursor struct{ chunk, off, idx int }

// journalSpan is a run of whole records and, for a reader that frames
// its recRemote records, Collector.remote as of the cut: the copy taken
// under mu, so the sends the records index stay readable outside it.
type journalSpan struct {
	b       []byte
	remotes fifo.Queue[shardExport]
}

// record encodes raw's record onto b and appends it; for a nil raw, the
// recRemote record of the remote-th peer-shard send.
func (j *journal) record(b []byte, raw *RawEvent, remote int) []byte {
	if raw == nil {
		j.reserve(2 * binary.MaxVarintLen64)
		b = binary.AppendUvarint(append(b, recRemote), uint64(remote))
	} else {
		j.reserve(8*binary.MaxVarintLen64 + len(raw.Trace) + len(raw.Type) + len(raw.Text))
		if j.cut {
			clear(j.strs)
			b, j.cut = append(b, recChunk), false
		}
		b = encodeRecord(b, raw, j.strs)
	}
	if raw == nil || raw.Seq == 0 {
		j.others = append(j.others, j.n)
	}
	c := j.chunks[len(j.chunks)-1]
	j.fill += binary.PutUvarint(c[j.fill:], uint64(len(b)))
	j.fill += copy(c[j.fill:], b)
	j.n++
	return b
}

// reserve makes room for a record of up to n bytes: in a new chunk, whose
// table starts empty, when the last cannot hold it.
func (j *journal) reserve(n int) {
	if n += binary.MaxVarintLen64; len(j.chunks) == 0 || j.fill+n > len(j.chunks[len(j.chunks)-1]) {
		c := make([]byte, max(fifo.ChunkBytes, n))
		j.chunks, j.firsts = append(j.chunks, c), append(j.firsts, j.n)
		j.fill, j.size, j.cut = 0, j.size+len(c), true
	}
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
// empty span and cur when cur is at the head. The span's remotes are
// the caller's to set.
func (j *journal) span(cur journalCursor) (journalSpan, journalCursor) {
	for ; cur.chunk < len(j.chunks)-1; cur = (journalCursor{cur.chunk + 1, 0, j.firsts[cur.chunk+1]}) {
		if c := j.chunks[cur.chunk]; cur.off < len(c) && c[cur.off] != 0 {
			return journalSpan{b: c[cur.off:]}, journalCursor{cur.chunk + 1, 0, j.firsts[cur.chunk+1]}
		}
	}
	if cur.chunk == len(j.chunks)-1 && cur.off < j.fill {
		return journalSpan{b: j.chunks[cur.chunk][cur.off:j.fill:j.fill]}, journalCursor{cur.chunk, j.fill, j.n}
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
// reader's), so the collector can Dump, write-ahead-log (OpenDurable
// calls this itself) and serve replica sessions. Must be called before
// any event is ingested — every reader needs the journal from record
// zero — and refuses a retaining collector. Idempotent. A collector on
// which it was never called keeps no copy of what it ingested.
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
		return errors.New("poet: EnableReplicationLog must be called before any event is ingested (a dump, the write-ahead log or a replica needs the journal from record zero)")
	}
	c.journal = &journal{strs: make(stringTable)}
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
	return t.d.log.Commit(t.seq)
}

// recordLocked is the one place an accepted input enters the
// collector's history: apply (an event, or at Seq 0 a registration)
// and SupplyRemoteSend call it in the critical section that applies the
// input. It counts the record and, when something keeps it, encodes it
// once: the journal stores those bytes and the WAL (durability turns the
// journal on) appends them, under mu, so the orders agree. A nil raw
// records the peer-shard send SupplyRemoteSend just pushed onto
// c.remote: the journal keeps its index there, and it stays off the disk
// (peers re-stream it after a restart).
func (c *Collector) recordLocked(raw *RawEvent) (t walTicket) {
	logged := c.tel.walTraceRecs
	switch {
	case raw == nil:
		c.tel.shardRemote.Inc()
	case raw.Seq > 0:
		c.ingests++
		c.tel.ingested.Inc()
		logged = c.tel.walEventRecs
	}
	if c.journal == nil {
		return t
	}
	c.rec = c.journal.record(c.rec[:0], raw, c.remote.Len()-1)
	if t.d = c.durable; t.d == nil || raw == nil {
		return walTicket{}
	}
	if t.seq, t.err = t.d.log.Append(c.rec); t.err == nil {
		logged.Inc()
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
