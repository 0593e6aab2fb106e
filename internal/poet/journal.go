package poet

import (
	"errors"
	"fmt"
	"sort"

	"ocep/internal/event"
)

// The ingestion journal: one in-memory log of every input the collector
// accepted, in the order it accepted them. Everything replayable is a
// view of it — the write-ahead log is its disk image (recordLocked
// appends to both under one lock), Dump and Snapshot write its event
// records in ingestion order, and a replica session is a cursor over it
// whose resume offset counts its event records. The collector is a
// deterministic function of that order, so replaying any view rebuilds
// the same linearization and the same journal: an offset taken before a
// restart names the same prefix after it.
//
// It is never truncated — a reader that starts past record zero would
// need a checkpoint of the collector's state, which no format carries
// yet — so the journal and retention refuse each other.

// tailLog is an append-only log that consumers tail by index: the
// journal and the shard export log, both guarded by the collector's mu.
// It is a fifo nobody pops, so a record is written once and never
// copied again as the log grows.
type tailLog[T any] struct {
	fifo[T]
	// grew is closed by the next append or wake. It exists only while
	// someone holds it, so an untailed log pays no channel per record.
	grew chan struct{}
}

func (l *tailLog[T]) append(rec T) {
	l.push(rec)
	l.wake()
}

// wake releases everyone parked on the growth signal.
func (l *tailLog[T]) wake() {
	if l.grew != nil {
		close(l.grew)
		l.grew = nil
	}
}

// signal returns the channel the next append or wake closes.
func (l *tailLog[T]) signal() <-chan struct{} {
	if l.grew == nil {
		l.grew = make(chan struct{})
	}
	return l.grew
}

// from returns the records from idx to the end of idx's chunk and the
// index just past them (a reader iterates), or — when there is nothing
// to read yet — the growth signal to park on. Records are immutable and
// an append writes only past every slice handed out, so the records stay
// safe to read after the lock is released.
func (l *tailLog[T]) from(idx int) (recs []T, next int, grew <-chan struct{}) {
	if idx >= l.n {
		return nil, l.n, l.signal()
	}
	recs = l.span(idx)
	return recs, idx + len(recs), nil
}

// journalRecord is one accepted input: an ingested event (Seq >= 1), an
// explicit trace registration (Seq 0, Trace the name), or a peer-shard
// send applied by SupplyRemoteSend (remote non-nil) — delivery order
// depends on when a remote send became available, so a standby must
// apply it at the same position of the stream.
type journalRecord struct {
	RawEvent
	remote *shardExport
}

// isEvent reports whether the record is an ingested event — the only
// kind replica offsets count and dumps carry.
func (r *journalRecord) isEvent() bool { return r.Seq > 0 }

type journal struct {
	tailLog[journalRecord]
	// others lists the indices of the non-event records, ascending: it
	// turns an event offset into a journal index without a scan.
	others []int
}

func (j *journal) append(rec journalRecord) {
	if !rec.isEvent() {
		j.others = append(j.others, j.len())
	}
	j.tailLog.append(rec)
}

// events is the number of event records: the head replica offsets are
// measured against.
func (j *journal) events() int { return j.len() - len(j.others) }

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
// collector's history: Report, RegisterTrace and SupplyRemoteSend call
// it in the critical section that applies the input. It counts the
// record and appends it to the journal, when one is kept, and to the
// WAL, when the collector is durable — under mu, so the orders agree.
// Remote sends stay off the disk: peers re-stream them after a restart.
func (c *Collector) recordLocked(rec journalRecord) (t walTicket) {
	if c.journal != nil {
		c.journal.append(rec)
	}
	logged := c.tel.walTraceRecs
	switch {
	case rec.remote != nil:
		c.tel.shardRemote.Inc()
		return t
	case rec.isEvent():
		c.ingests++
		c.tel.ingested.Inc()
		logged = c.tel.walEventRecs
	}
	if t.d = c.durable; t.d != nil {
		if t.seq, t.err = t.d.appendLocked(&rec.RawEvent); t.err == nil {
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
