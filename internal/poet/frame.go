package poet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"ocep/internal/event"
	"ocep/internal/vclock"
)

// The frame codec: all a connection speaks, in both directions, from
// its first byte. A frame is a uvarint body length, a kind byte, and
// that kind's fields — uvarints, strings as uvarint length plus bytes,
// lists as a uvarint count plus items. Three things are per-connection
// state, reset by every handshake: the string table (repeating strings
// are spelled once, then referenced), the set of announced trace IDs,
// and the last delta-encoded timestamp of each trace.
//
// A timestamp is always the last field and runs to the end of its
// frame, spelled as the frame's flags byte says: dense (every entry, in
// order) or delta, against the last timestamp of its event's trace on
// this connection, the own entry being the event's index. A causal
// history grows only at a join, so a delta timestamp is a tick (no
// bytes: it shares that timestamp's join clock) or a join ((trace,
// value) pairs for the foreign entries that rose). A clock never shrinks
// along a trace: a tick with no previous timestamp, an own entry that
// does not rise or a pair that lowers an entry is a desynchronized
// stream, and fails loudly instead of mis-stamping.
const (
	frameRaw       = recEvent // RawEvent, in the WAL's record encoding
	frameTraceReg  = recTrace // explicit trace registration (replica stream), ditto
	frameTrace     = 3        // trace announcement (monitor stream): id, name
	frameEvent     = 4        // delivered event: flags, id, kind, type, text, partner, timestamp
	frameExport    = 5        // cross-shard export record: flags, msgid, id, timestamp
	frameHead      = 6        // the sender's ingest count (replica stream) or export-log length (shard stream)
	frameHeartbeat = 7        // idle keep-alive
	frameDrain     = 8        // orderly shutdown ahead: pooled peers fail over now
	frameEnd       = 9        // graceful end of stream
	frameHello     = 10       // a session's first frame: magic, role, resume offset, traces
	frameAcks      = 11       // per-trace ingest positions: (trace, seq) pairs
	frameError     = 12       // refusal: retry bit, reason
	frameQuery     = 13       // query request: op, id, argument trace

	flagDelta = 1 // the timestamp is delta-encoded against its trace's previous one
	flagTick  = 2 // ...and shares that timestamp's join clock: no pairs follow
)

// Decoder bounds: frames come from outside the process.
const (
	maxFrameLen   = 1 << 24 // bytes in one frame body
	maxInternLen  = 255     // longest string the string table takes
	maxInterned   = 1 << 13 // strings in one connection's table: ≤ 2 MiB of them
	maxClockWidth = 1 << 20 // highest trace ID a timestamp entry or announcement may name, plus one
	frameBufSize  = 32 << 10
)

var (
	errFrameTooLong   = errors.New("poet: frame length out of bounds")
	errFrameKind      = errors.New("poet: unknown frame kind")
	errFrameOverrun   = errors.New("poet: field overruns its frame")
	errFrameMalformed = errors.New("poet: malformed frame")
	errStringRef      = errors.New("poet: string-table index not yet sent")
	errTraceRef       = errors.New("poet: event on a trace not yet announced")
	errDesync         = errors.New("poet: delta-encoded timestamp does not extend its trace's previous one (decoder out of sync)")
)

// frameWriter encodes frames into one connection's outbound buffer.
// Callers append every frame they have in hand and then flush; a full
// buffer flushes itself. Write errors stick to the buffer and surface at
// flush. Not safe for concurrent use.
type frameWriter struct {
	bw    *bufio.Writer
	body  []byte
	err   error
	strs  stringTable
	chunk []chunkRef // the strings of the journal chunk a replica stream is in
	// stamps[t] is the last timestamp of trace t sent delta-encoded.
	stamps []vclock.Stamp
	hdr    [binary.MaxVarintLen32]byte // emit's; a local escapes via bw.Write
}

func newFrameWriter(w io.Writer) *frameWriter {
	return &frameWriter{bw: bufio.NewWriterSize(w, frameBufSize), strs: make(stringTable)}
}

func (w *frameWriter) flush() error {
	if w.err != nil {
		return w.err
	}
	return w.bw.Flush()
}

// emit frames w.body into the buffer.
func (w *frameWriter) emit() {
	if len(w.body) > maxFrameLen {
		w.err = fmt.Errorf("%w: %d bytes, limit %d", errFrameTooLong, len(w.body), maxFrameLen)
		return
	}
	_, _ = w.bw.Write(w.hdr[:binary.PutUvarint(w.hdr[:], uint64(len(w.body)))]) // sticky; flush reports it
	_, _ = w.bw.Write(w.body)
}

// signal sends a fieldless frame: heartbeat, drain, or end.
func (w *frameWriter) signal(kind byte) {
	w.body = append(w.body[:0], kind)
	w.emit()
}

func (w *frameWriter) head(n int) {
	w.body = binary.AppendUvarint(append(w.body[:0], frameHead), uint64(n))
	w.emit()
}

func (w *frameWriter) hello(h *hello) {
	b := appendString(appendString(append(w.body[:0], frameHello), h.magic), h.role)
	b = binary.AppendUvarint(binary.AppendUvarint(b, uint64(h.from)), uint64(len(h.traces)))
	for _, name := range h.traces {
		b = appendRef(w.strs, b, name)
	}
	w.body = b
	w.emit()
}

// acks accepts a session, and carries a target's ack positions.
func (w *frameWriter) acks(acks []traceAck) {
	b := binary.AppendUvarint(append(w.body[:0], frameAcks), uint64(len(acks)))
	for _, a := range acks {
		b = binary.AppendUvarint(appendRef(w.strs, b, a.Trace), uint64(a.Seq))
	}
	w.body = b
	w.emit()
}

// refuse sends an error frame; retry marks the refusal as one the same
// hello may overcome later (a standby awaiting promotion, a draining
// server).
func (w *frameWriter) refuse(reason string, retry bool) {
	flag := byte(0)
	if retry {
		flag = 1
	}
	w.body = appendString(append(w.body[:0], frameError, flag), reason)
	w.emit()
}

func (w *frameWriter) query(q *queryReq) {
	b := appendID(binary.AppendUvarint(append(w.body[:0], frameQuery), uint64(q.op)), q.id)
	w.body = binary.AppendUvarint(b, uint64(q.arg))
	w.emit()
}

// raw frames an event, or at Seq 0 a trace registration.
func (w *frameWriter) raw(ev *RawEvent) {
	w.body = encodeRecord(w.body[:0], ev, w.strs)
	w.emit()
}

func (w *frameWriter) trace(id event.TraceID, name string) {
	w.body = binary.AppendUvarint(append(w.body[:0], frameTrace), uint64(id))
	w.body = appendString(w.body, name)
	w.emit()
}

// event sends a delivered event with the given partner (the caller reads
// e.Partner under the rule its context allows; see readablePartner) and
// returns the number of timestamp entries it put on the wire.
func (w *frameWriter) event(e *event.Event, partner event.Ref, delta bool) int {
	b := append(w.body[:0], frameEvent, 0) // stamp sets the flags
	b = appendID(b, e.ID)
	b = binary.AppendUvarint(b, uint64(e.Kind))
	b = appendRef(w.strs, b, e.Type)
	b = appendRef(w.strs, b, e.Text)
	b = appendID(b, partner.ID())
	return w.stamp(b, e.ID, e.VC, delta)
}

// export sends a cross-shard export record; the count is event's.
func (w *frameWriter) export(rec *shardExport, delta bool) int {
	b := binary.AppendUvarint(append(w.body[:0], frameExport, 0), rec.MsgID)
	return w.stamp(appendID(b, rec.ID), rec.ID, rec.VC, delta)
}

func appendID(b []byte, id event.ID) []byte {
	b = binary.AppendUvarint(b, uint64(id.Trace))
	return binary.AppendUvarint(b, uint64(id.Index))
}

// stamp appends v, the timestamp of event id, to the frame b, sets the
// frame's flags (b[1]) and emits it. A timestamp that does not extend
// its trace's previous one on this connection (never one the collector
// stamped) goes dense.
func (w *frameWriter) stamp(b []byte, id event.ID, v vclock.Stamp, delta bool) (entries int) {
	t, n := int(id.Trace), len(b)
	if !delta {
		b[1], entries = 0, v.Width()
		for u := 0; u < entries; u++ {
			b = binary.AppendUvarint(b, uint64(v.Get(u)))
		}
	} else {
		if t >= len(w.stamps) {
			w.stamps = append(w.stamps, make([]vclock.Stamp, t+1-len(w.stamps))...)
		}
		prev := w.stamps[t]
		if own := v.Get(t); own != id.Index || own <= prev.Get(t) {
			return w.stamp(b, id, v, false)
		}
		if b[1] = flagDelta; prev.Get(t) > 0 && v.Shares(prev) {
			b[1] |= flagTick
		} else if !v.Rises(prev, func(u int, x int32) {
			b = binary.AppendUvarint(binary.AppendUvarint(b, uint64(u)), uint64(x))
			entries++
		}) {
			return w.stamp(b[:n], id, v, false)
		}
		w.stamps[t] = v
	}
	w.body = b
	w.emit()
	return entries
}

// frame is one decoded frame; kind says which fields are set.
type frame struct {
	kind   byte
	raw    RawEvent      // frameRaw; frameTraceReg as Seq 0 (apply's registration)
	id     event.TraceID // frameTrace
	name   string        // frameTrace
	ev     *event.Event  // frameEvent
	exp    shardExport   // frameExport
	head   int           // frameHead
	hello  hello         // frameHello
	acks   []traceAck    // frameAcks
	reason string        // frameError
	retry  bool          // frameError
	query  queryReq      // frameQuery
}

// frameReader decodes frames from a connection's inbound buffer. Every
// length it allocates by is checked against a bound or against the bytes
// actually received first; malformed input is an error, never a panic.
type frameReader struct {
	br   *bufio.Reader
	strs []string
	// announced marks the trace IDs announced on this connection.
	announced []bool
	// stamps[t] is the last delta-decoded timestamp of trace t.
	stamps []vclock.Stamp
	// dense is the scratch clock a materialised timestamp is built in.
	dense vclock.VC
	// slab backs the decoded events and timestamps.
	slab event.Slab
}

// next decodes the next frame into f. io.EOF means the stream ended on a
// frame boundary.
func (r *frameReader) next(f *frame) error {
	n, err := binary.ReadUvarint(r.br)
	if err != nil {
		return err
	}
	if n == 0 || n > maxFrameLen {
		return fmt.Errorf("%w: %d bytes, limit %d", errFrameTooLong, n, maxFrameLen)
	}
	var p []byte
	if int(n) <= r.br.Size() {
		// The common case decodes in place; the bytes stay valid until
		// the next read, and decoded values own copies.
		if p, err = r.br.Peek(int(n)); err == nil {
			defer r.br.Discard(int(n))
		}
	} else {
		// A longer one is assembled as its bytes arrive: a length prefix
		// alone commits no memory.
		for len(p) < int(n) && err == nil {
			var q []byte
			q, err = r.br.Peek(min(int(n)-len(p), r.br.Size()))
			p = append(p, q...)
			_, _ = r.br.Discard(len(q))
		}
	}
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	f.kind = p[0]
	c := recordReader{p: p[1:], tab: &r.strs}
	switch f.kind {
	case frameRaw, frameTraceReg:
		f.raw = c.record(f.kind)
	case frameTrace:
		id := c.int()
		f.id, f.name = event.TraceID(id), c.string()
		if c.err == nil && id >= maxClockWidth {
			c.fail(fmt.Errorf("%w: trace id %d, limit %d", errFrameMalformed, id, maxClockWidth))
		}
		if c.err == nil {
			if id >= len(r.announced) {
				r.announced = append(r.announced, make([]bool, id+1-len(r.announced))...)
			}
			r.announced[id] = true
		}
	case frameEvent:
		flags := byte(c.uvarint())
		e := r.slab.New()
		e.ID = c.id()
		e.Kind = c.kind()
		e.Type, e.Text = c.interned(), c.interned()
		e.Partner = c.ref()
		if t := int(e.ID.Trace); c.err == nil && (t >= len(r.announced) || !r.announced[t]) {
			c.fail(fmt.Errorf("%w: trace %d", errTraceRef, t))
		}
		e.VC = r.stamp(&c, flags, e.ID)
		f.ev = e
	case frameExport:
		flags := byte(c.uvarint())
		f.exp = shardExport{MsgID: c.uvarint(), ID: c.id()}
		f.exp.VC = r.stamp(&c, flags, f.exp.ID)
	case frameHead:
		f.head = c.int()
	case frameHello:
		f.hello = hello{magic: c.string(), role: c.string(), from: c.int()}
		for n := c.count(); n > 0; n-- {
			f.hello.traces = append(f.hello.traces, c.interned())
		}
	case frameAcks:
		f.acks = f.acks[:0]
		for n := c.count(); n > 0; n-- {
			f.acks = append(f.acks, traceAck{Trace: c.interned(), Seq: c.int()})
		}
	case frameError:
		f.retry = c.uvarint() != 0
		f.reason = c.string()
	case frameQuery:
		f.query = queryReq{op: queryOp(c.int()), id: c.id(), arg: c.int()}
	case frameHeartbeat, frameDrain, frameEnd:
	default:
		return fmt.Errorf("%w: %d", errFrameKind, f.kind)
	}
	if c.err == nil && len(c.p) > 0 {
		c.fail(fmt.Errorf("%w: %d bytes past the last field of a kind-%d frame", errFrameMalformed, len(c.p), f.kind))
	}
	return c.err
}

func (r *recordReader) id() event.ID {
	return event.ID{Trace: event.TraceID(r.int()), Index: r.int()}
}

// ref reads an event's partner, which must name an event a stream can
// carry.
func (r *recordReader) ref() event.Ref {
	id := r.id()
	if r.err == nil && (id.Trace >= maxClockWidth || id.Index > math.MaxInt32) {
		r.fail(fmt.Errorf("%w: partner %v, limit t%d#%d", errFrameMalformed, id, maxClockWidth-1, math.MaxInt32))
	}
	if r.err != nil {
		return event.Ref{}
	}
	return event.RefTo(id)
}

// count reads a list length. A list names at most as many traces as a
// clock holds, and at most one item per byte left in the frame, so no
// list grows past what arrived.
func (r *recordReader) count() int {
	n := r.uvarint()
	if n > uint64(len(r.p)) || n > maxClockWidth {
		r.fail(fmt.Errorf("%w: a %d-item list", errFrameMalformed, n))
		return 0
	}
	return int(n)
}

// entry reads one timestamp value.
func (r *recordReader) entry() int32 {
	n := r.uvarint()
	if n > math.MaxInt32 {
		r.fail(fmt.Errorf("%w: timestamp entry %d out of range", errFrameMalformed, n))
	}
	return int32(n)
}

// stamp consumes the rest of the frame as the timestamp of event id.
// A tick is the previous timestamp of id's trace with id's index for its
// own entry, over the same join clock; a join or a dense timestamp is
// materialised.
func (r *frameReader) stamp(c *recordReader, flags byte, id event.ID) vclock.Stamp {
	t := int(id.Trace)
	if c.err == nil && (t >= maxClockWidth || id.Index > math.MaxInt32) {
		c.fail(fmt.Errorf("%w: timestamp of event %v, limit t%d#%d", errFrameMalformed, id, maxClockWidth-1, math.MaxInt32))
	}
	if c.err != nil {
		return vclock.Stamp{}
	}
	if flags&flagDelta == 0 {
		// One pass to size the vector by the varints actually present.
		width := 0
		for _, b := range c.p {
			if b < 0x80 {
				width++
			}
		}
		if width > maxClockWidth {
			c.fail(fmt.Errorf("%w: %d-entry timestamp, limit %d", errFrameMalformed, width, maxClockWidth))
			return vclock.Stamp{}
		}
		r.dense = append(r.dense[:0], make(vclock.VC, width)...)
		for i := range r.dense {
			r.dense[i] = c.entry()
		}
		if len(c.p) > 0 {
			c.fail(errFrameOverrun) // a last varint with no final byte
		}
		return r.materialise(t)
	}
	if t >= len(r.stamps) {
		r.stamps = append(r.stamps, make([]vclock.Stamp, t+1-len(r.stamps))...)
	}
	prev := r.stamps[t]
	switch had := prev.Get(t); {
	case id.Index <= had:
		c.fail(fmt.Errorf("%w: event %v after t%d#%d", errDesync, id, t, had))
	case flags&flagTick != 0 && had == 0:
		c.fail(fmt.Errorf("%w: event %v ticks a trace with no timestamp yet", errDesync, id))
	case flags&flagTick != 0:
		r.stamps[t] = prev.At(t, id.Index)
		return r.stamps[t]
	}
	r.dense = prev.At(t, id.Index).AppendDense(r.dense[:0])
	for len(c.p) > 0 {
		switch u, n := c.uvarint(), c.entry(); {
		case c.err != nil:
		case u >= maxClockWidth:
			c.fail(fmt.Errorf("%w: timestamp entry for trace %d, limit %d", errFrameMalformed, u, maxClockWidth))
		case int(u) < len(r.dense) && (n < r.dense[u] || int(u) == t):
			c.fail(fmt.Errorf("%w: event %v sets entry %d from %d to %d", errDesync, id, u, r.dense[u], n))
		default:
			if int(u) >= len(r.dense) {
				r.dense = append(r.dense, make(vclock.VC, int(u)+1-len(r.dense))...)
			}
			r.dense[u] = n
		}
	}
	if c.err != nil {
		return vclock.Stamp{}
	}
	r.stamps[t] = r.materialise(t)
	return r.stamps[t]
}

// materialise stamps an event of trace t with r.dense, trailing zeros
// trimmed: in a join clock carved from the reader's slab if it has a
// foreign entry, else in none.
func (r *frameReader) materialise(t int) vclock.Stamp {
	v := r.dense
	for len(v) > 0 && v[len(v)-1] == 0 {
		v = v[:len(v)-1]
	}
	for u, n := range v {
		if n != 0 && u != t {
			return vclock.NewStamp(v, t, &r.slab)
		}
	}
	return vclock.Stamp{}.At(t, v.Get(t))
}
