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
// and the baseline of the delta-encoded timestamps.
//
// A timestamp is always the last field and runs to the end of its
// frame, in one of two spellings named by the frame's flags byte: dense
// (every entry of the vector, in order) or delta ((trace, value) pairs
// for the entries that differ from the previous timestamp on this
// connection, explicit zeros for entries that vanished — the
// linearization interleaves traces, so timestamps are not per-component
// monotone along the stream). The first delta frame of a connection is
// flagged as the baseline, so a desynchronized decoder fails loudly
// instead of mis-stamping.
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

	flagDelta    = 1 // the timestamp is delta-encoded
	flagBaseline = 2 // ...against the all-zero vector: the first delta frame of a connection
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
	errNoBaseline     = errors.New("poet: delta-encoded timestamp without a baseline frame (decoder out of sync)")
)

// frameWriter encodes frames into one connection's outbound buffer.
// Callers append every frame they have in hand and then flush; a full
// buffer flushes itself. Write errors stick to the buffer and surface at
// flush. Not safe for concurrent use.
type frameWriter struct {
	bw   *bufio.Writer
	body []byte
	err  error
	strs stringTable
	// base is the previous timestamp sent delta-encoded, dense, and last
	// the same timestamp as stamped; sent reports that there was one.
	base vclock.VC
	last vclock.Stamp
	sent bool
	hdr  [binary.MaxVarintLen32]byte // emit's; a local escapes via bw.Write
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
		b = w.strs.append(b, name)
	}
	w.body = b
	w.emit()
}

// acks accepts a session, and carries a target's ack positions.
func (w *frameWriter) acks(acks []traceAck) {
	b := binary.AppendUvarint(append(w.body[:0], frameAcks), uint64(len(acks)))
	for _, a := range acks {
		b = binary.AppendUvarint(w.strs.append(b, a.Trace), uint64(a.Seq))
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

func (w *frameWriter) raw(ev *RawEvent) {
	w.body = encodeEventRecord(w.body[:0], ev, w.strs)
	w.emit()
}

func (w *frameWriter) traceReg(name string) {
	w.body = encodeTraceRecord(w.body[:0], name, w.strs)
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
func (w *frameWriter) event(e *event.Event, partner event.ID, delta bool) int {
	b := append(w.body[:0], frameEvent, w.flags(delta))
	b = appendID(b, e.ID)
	b = binary.AppendUvarint(b, uint64(e.Kind))
	b = w.strs.append(b, e.Type)
	b = w.strs.append(b, e.Text)
	b = appendID(b, partner)
	return w.stamp(b, e.VC, delta)
}

// export sends a cross-shard export record; the count is event's.
func (w *frameWriter) export(rec *shardExport, delta bool) int {
	b := append(w.body[:0], frameExport, w.flags(delta))
	b = binary.AppendUvarint(b, rec.MsgID)
	return w.stamp(appendID(b, rec.ID), rec.VC, delta)
}

func appendID(b []byte, id event.ID) []byte {
	b = binary.AppendUvarint(b, uint64(id.Trace))
	return binary.AppendUvarint(b, uint64(id.Index))
}

func (w *frameWriter) flags(delta bool) byte {
	switch {
	case !delta:
		return 0
	case !w.sent:
		return flagDelta | flagBaseline
	}
	return flagDelta
}

// stamp appends v to the frame b straight from the stamp, advances the
// delta baseline, and emits the frame.
func (w *frameWriter) stamp(b []byte, v vclock.Stamp, delta bool) (entries int) {
	if !delta {
		entries = v.Width()
		for t := 0; t < entries; t++ {
			b = binary.AppendUvarint(b, uint64(v.Get(t)))
		}
	} else {
		w.sent = true
		if n := v.Width(); n > len(w.base) {
			w.base = append(w.base, make(vclock.VC, n-len(w.base))...)
		}
		lo, hi := 0, len(w.base)
		if v.Shares(w.last) {
			// Only the own entry can differ from the previous stamp's.
			lo = v.Trace()
			hi = min(lo+1, hi)
		}
		for t := lo; t < hi; t++ {
			if n := int32(v.Get(t)); w.base[t] != n {
				w.base[t] = n
				b = binary.AppendUvarint(binary.AppendUvarint(b, uint64(t)), uint64(n))
				entries++
			}
		}
		w.last = v
	}
	w.body = b
	w.emit()
	return entries
}

// frame is one decoded frame; kind says which fields are set.
type frame struct {
	kind   byte
	raw    RawEvent      // frameRaw
	id     event.TraceID // frameTrace
	name   string        // frameTrace, frameTraceReg
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
	// base is the previous delta-decoded timestamp, dense, and last the
	// same timestamp as decoded; seen reports that a baseline frame
	// arrived.
	base vclock.VC
	last vclock.Stamp
	seen bool
	// dense is the scratch clock a dense frame decodes into.
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
	case frameRaw:
		f.raw = c.eventRecord()
	case frameTraceReg:
		f.name = c.interned()
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
		e.Kind = event.Kind(c.uvarint())
		e.Type, e.Text = c.interned(), c.interned()
		e.Partner = c.id()
		if t := int(e.ID.Trace); c.err == nil && (t >= len(r.announced) || !r.announced[t]) {
			c.fail(fmt.Errorf("%w: trace %d", errTraceRef, t))
		}
		e.VC = r.stamp(&c, flags, int(e.ID.Trace), true)
		f.ev = e
	case frameExport:
		flags := byte(c.uvarint())
		f.exp = shardExport{MsgID: c.uvarint(), ID: c.id()}
		f.exp.VC = r.stamp(&c, flags, int(f.exp.ID.Trace), false)
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

// stamp consumes the rest of the frame as the timestamp of an event on
// trace t. A delta frame of an event (share) whose one pair moves t one
// past the previous timestamp's own entry, when that timestamp was t's
// too, shares the previous join clock: the frame itself proves the two
// clocks differ in entry t alone. Every other timestamp — dense, a trace
// switch, a receive, an export — is materialised, trimmed to its last
// nonzero entry: the width the collector stamped it with.
func (r *frameReader) stamp(c *recordReader, flags byte, t int, share bool) vclock.Stamp {
	if c.err == nil && t >= maxClockWidth {
		c.fail(fmt.Errorf("%w: timestamp of trace %d, limit %d", errFrameMalformed, t, maxClockWidth))
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
		return r.materialise(r.dense, t)
	}
	switch {
	case flags&flagBaseline != 0:
		r.base, r.last, r.seen = r.base[:0], vclock.Stamp{}, true
	case !r.seen:
		c.fail(errNoBaseline)
		return vclock.Stamp{}
	}
	pairs, u := 0, uint64(0)
	for ; len(c.p) > 0; pairs++ {
		var n int32
		if u, n = c.uvarint(), c.entry(); c.err != nil {
			return vclock.Stamp{}
		}
		if u >= maxClockWidth {
			c.fail(fmt.Errorf("%w: timestamp entry for trace %d, limit %d", errFrameMalformed, u, maxClockWidth))
			return vclock.Stamp{}
		}
		if int(u) >= len(r.base) {
			r.base = append(r.base, make(vclock.VC, int(u)+1-len(r.base))...)
		}
		r.base[u] = n
	}
	if share && pairs == 1 && int(u) == t && r.last.Trace() == t && int(r.base[t]) == r.last.Get(t)+1 {
		r.last = r.last.Tick(t)
	} else {
		r.last = r.materialise(r.base, t)
	}
	return r.last
}

// materialise stamps an event of trace t with a copy of v carved from
// the reader's slab, trailing zeros trimmed.
func (r *frameReader) materialise(v vclock.VC, t int) vclock.Stamp {
	for len(v) > 0 && v[len(v)-1] == 0 {
		v = v[:len(v)-1]
	}
	return vclock.NewStamp(v, t, &r.slab)
}
