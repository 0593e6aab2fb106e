package poet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"slices"
	"strconv"
	"testing"
	"time"

	"ocep/internal/event"
	"ocep/internal/faultnet"
	"ocep/internal/vclock"
)

// writeFrame re-emits a decoded frame.
func writeFrame(fw *frameWriter, f *frame, delta bool) {
	switch f.kind {
	case frameRaw, frameTraceReg:
		fw.raw(&f.raw)
	case frameTrace:
		fw.trace(f.id, f.name)
	case frameEvent:
		fw.event(f.ev, f.ev.Partner, delta)
	case frameExport:
		fw.export(&f.exp, delta)
	case frameHead:
		fw.head(f.head)
	case frameHello:
		fw.hello(&f.hello)
	case frameAcks:
		fw.acks(f.acks)
	case frameError:
		fw.refuse(f.reason, f.retry)
	case frameQuery:
		fw.query(&f.query)
	default:
		fw.signal(f.kind)
	}
}

// sameFrame compares two decoded frames field by field, timestamps by
// value.
func sameFrame(a, b *frame) bool {
	if a.kind != b.kind {
		return false
	}
	switch a.kind {
	case frameRaw, frameTraceReg:
		return a.raw == b.raw
	case frameTrace:
		return a.id == b.id && a.name == b.name
	case frameEvent:
		return sameEvent(a.ev, b.ev) && a.ev.Partner == b.ev.Partner
	case frameExport:
		return a.exp.MsgID == b.exp.MsgID && a.exp.ID == b.exp.ID && a.exp.VC.Equal(b.exp.VC)
	case frameHead:
		return a.head == b.head
	case frameHello:
		return a.hello.magic == b.hello.magic && a.hello.role == b.hello.role && a.hello.from == b.hello.from &&
			slices.Equal(a.hello.traces, b.hello.traces)
	case frameAcks:
		return slices.Equal(a.acks, b.acks)
	case frameError:
		return a.reason == b.reason && a.retry == b.retry
	case frameQuery:
		return a.query == b.query
	}
	return true
}

// sampleFrames is one frame of every kind.
func sampleFrames() []frame {
	clock := func(t int, ns ...int32) vclock.Stamp { return vclock.VC(ns).Stamp(t) }
	p0, x9 := clock(0, 1), clock(5, 0, 3, 0, 0, 0, 9)
	return []frame{
		{kind: frameHello, hello: hello{magic: wireMagic, role: roleTarget, traces: []string{"alpha", "beta"}}},
		{kind: frameAcks, acks: []traceAck{{Trace: "alpha", Seq: 3}, {Trace: "gamma", Seq: 1 << 33}}},
		{kind: frameAcks},
		{kind: frameError, reason: "standby awaiting promotion", retry: true},
		{kind: frameError, reason: "unknown event t0#9"},
		{kind: frameQuery, query: queryReq{op: opGP, id: event.ID{Trace: 2, Index: 300}, arg: 1}},
		{kind: frameHello, hello: hello{magic: wireMagic, role: roleMonitor, from: 1 << 20}},
		{kind: frameHeartbeat},
		{kind: frameTraceReg, raw: RawEvent{Trace: "alpha"}},
		{kind: frameRaw, raw: RawEvent{Trace: "alpha", Seq: 1, Kind: event.KindSend, Type: "req", Text: "r0", MsgID: 7}},
		{kind: frameRaw, raw: RawEvent{Trace: "alpha", Seq: 300, Kind: event.KindInternal, Type: "req"}},
		{kind: frameTrace, id: 0, name: "alpha"},
		{kind: frameTrace, id: 2, name: "beta"},
		{kind: frameEvent, ev: &event.Event{ID: event.ID{Trace: 0, Index: 1}, Kind: event.KindSend, Type: "req", Text: "r0", VC: p0}},
		{kind: frameEvent, ev: &event.Event{ID: event.ID{Trace: 2, Index: 200}, Kind: event.KindReceive, Type: "resp",
			Partner: event.RefTo(event.ID{Trace: 0, Index: 1}), VC: clock(2, 1, 0, 200)}},
		{kind: frameEvent, ev: &event.Event{ID: event.ID{Trace: 0, Index: 2}, Kind: event.KindInternal, Type: "req", VC: p0.Tick(0)}},
		{kind: frameHead, head: 1 << 40},
		{kind: frameExport, exp: shardExport{MsgID: 1 << 50, ID: event.ID{Trace: 5, Index: 9}, VC: x9}},
		{kind: frameExport, exp: shardExport{MsgID: 2, ID: event.ID{Trace: 5, Index: 10}, VC: clock(5)}}, // dense even in a delta stream
		{kind: frameExport, exp: shardExport{MsgID: 3, ID: event.ID{Trace: 5, Index: 11}, VC: x9.At(5, 11)}},
		{kind: frameDrain},
		{kind: frameEnd},
	}
}

// TestFrameCodecRoundTrip sends every frame kind through the codec in
// both timestamp spellings and compares against the source field by
// field.
func TestFrameCodecRoundTrip(t *testing.T) {
	for _, delta := range []bool{false, true} {
		var buf bytes.Buffer
		fw := newFrameWriter(&buf)
		frames := sampleFrames()
		for i := range frames {
			writeFrame(fw, &frames[i], delta)
		}
		if err := fw.flush(); err != nil {
			t.Fatal(err)
		}
		fr := &frameReader{br: bufio.NewReader(&buf)}
		for i := range frames {
			var got frame
			if err := fr.next(&got); err != nil {
				t.Fatalf("delta=%v frame %d: %v", delta, i, err)
			}
			if !sameFrame(&got, &frames[i]) {
				t.Fatalf("delta=%v frame %d decoded to %+v, want %+v", delta, i, got, frames[i])
			}
		}
		if err := fr.next(new(frame)); err != io.EOF {
			t.Fatalf("after the last frame: %v, want io.EOF", err)
		}
	}
}

// TestFrameStringsSentOnce: a repeating trace name or event type is
// spelled once per connection; later frames carry a one-byte reference.
func TestFrameStringsSentOnce(t *testing.T) {
	var buf bytes.Buffer
	fw := newFrameWriter(&buf)
	ev := RawEvent{Trace: "a-rather-long-trace-name", Seq: 1, Kind: event.KindInternal, Type: "a-rather-long-event-type"}
	fw.raw(&ev)
	_ = fw.flush()
	first := buf.Len()
	ev.Seq = 2
	fw.raw(&ev)
	_ = fw.flush()
	if second := buf.Len() - first; second >= first-40 {
		t.Fatalf("second frame is %d bytes after a first of %d: the strings travelled again", second, first)
	}
}

// frameOf frames a body by hand.
func frameOf(body ...byte) []byte {
	return append(binary.AppendUvarint(nil, uint64(len(body))), body...)
}

// kind256Event announces t0 and sends t0#1 with kind 256: flags, id,
// kind, type and text each a new empty literal, partner, one dense
// timestamp entry.
var kind256Event = append(frameOf(frameTrace, 0, 1, 'a'), frameOf(frameEvent, 0, 0, 1, 0x80, 0x02, 0, 0, 0, 0, 0, 0, 1)...)

// decodeError decodes in to its first error: io.EOF if every frame
// decodes.
func decodeError(in []byte) error {
	fr := &frameReader{br: bufio.NewReader(bytes.NewReader(in))}
	for {
		if err := fr.next(new(frame)); err != nil {
			return err
		}
	}
}

// TestFrameDecoderBounds feeds the decoder each class of malformed
// input and requires that class's own error.
func TestFrameDecoderBounds(t *testing.T) {
	cases := []struct {
		name string
		in   []byte
		want error
	}{
		{"frame longer than the limit", binary.AppendUvarint(nil, maxFrameLen+1), errFrameTooLong},
		{"empty frame", frameOf(), errFrameTooLong},
		{"unknown kind", frameOf(200), errFrameKind},
		{"string-table index not sent", frameOf(frameRaw, 5), errStringRef},
		// flags, id t3#1, kind, type and text each a new empty literal
		// (reference 0, length 0), partner.
		{"event on an unannounced trace", frameOf(frameEvent, 0, 3, 1, 1, 0, 0, 0, 0, 0, 0), errTraceRef},
		// Kind 256 would wrap to 0 in a Kind's byte, 257 to KindInternal.
		{"event kind above the last", kind256Event, ErrEventKind},
		{"raw event kind above the last", frameOf(frameRaw, 0, 1, 'a', 1, 0x81, 0x02, 0, 0, 0, 0, 0), ErrEventKind},
		{"partner beyond the width limit", append(frameOf(frameTrace, 0, 1, 'a'), frameOf(append([]byte{frameEvent, 0, 0, 1, 1, 0, 0, 0, 0},
			append(binary.AppendUvarint(nil, maxClockWidth), 1, 1)...)...)...), errFrameMalformed},
		{"varint overruns the frame", frameOf(frameHead, 0x80), errFrameOverrun},
		{"string overruns the frame", frameOf(frameTrace, 1, 9, 'x'), errFrameOverrun},
		// flags, msgid 1, id t0#1, then the timestamp.
		{"tick on a trace with no timestamp yet", frameOf(frameExport, flagDelta|flagTick, 1, 0, 1), errDesync},
		{"timestamp entry beyond the width limit", frameOf(append([]byte{frameExport, flagDelta, 1, 0, 1},
			append(binary.AppendUvarint(nil, maxClockWidth), 1)...)...), errFrameMalformed},
		{"tick whose own entry does not rise", append(frameOf(frameExport, flagDelta, 1, 0, 2),
			frameOf(frameExport, flagDelta|flagTick, 1, 0, 2)...), errDesync},
		{"pair that lowers an entry", append(frameOf(frameExport, flagDelta, 1, 0, 1, 1, 5),
			frameOf(frameExport, flagDelta, 1, 0, 2, 1, 3)...), errDesync},
		{"bytes past the last field", frameOf(frameHeartbeat, 0), errFrameMalformed},
		{"cut mid-frame", frameOf(frameHead, 1)[:2], io.ErrUnexpectedEOF},
		{"long frame cut short", append(binary.AppendUvarint(nil, 1<<20), frameHead, 1), io.ErrUnexpectedEOF},
		{"acks list longer than its frame", frameOf(frameAcks, 5, 0, 1, 'a', 1), errFrameMalformed},
		{"hello trace list longer than its frame", frameOf(append([]byte{frameHello, 0, 0, 0},
			binary.AppendUvarint(nil, maxClockWidth+1)...)...), errFrameMalformed},
	}
	for _, tc := range cases {
		if err := decodeError(tc.in); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

// FuzzFrameDecode throws arbitrary bytes at the decoder: it must never
// panic, and whatever it does decode must survive re-encoding — decode ∘
// encode is the identity on the decoder's range. Seeded with one frame
// of every kind in both timestamp spellings, and with the delta streams
// a desynchronized encoder would send, each of which must fail to
// decode.
func FuzzFrameDecode(f *testing.F) {
	join := func(index byte, pairs ...byte) []byte { // an export of t0#index
		return frameOf(append([]byte{frameExport, flagDelta, 1, 0, index}, pairs...)...)
	}
	for _, in := range [][]byte{
		// A tick on a trace with no timestamp yet.
		frameOf(frameExport, flagDelta|flagTick, 1, 0, 1),
		// A tick whose own count is not above the previous one.
		append(join(2), frameOf(frameExport, flagDelta|flagTick, 1, 0, 2)...),
		// A pair that lowers an entry along a trace.
		append(join(1, 1, 5), join(2, 1, 3)...),
		// A join replayed after a resume into a decoder that was not
		// reset: its own count does not rise.
		append(append(join(4, 1, 5), frameOf(frameHello, 0, 0, 2, 0)...), join(3, 1, 5)...),
	} {
		if err := decodeError(in); !errors.Is(err, errDesync) {
			f.Fatalf("seed %x decodes to %v, want an out-of-sync error", in, err)
		}
		f.Add(in, true)
	}
	if err := decodeError(kind256Event); !errors.Is(err, ErrEventKind) {
		f.Fatalf("a kind-256 event decodes to %v, want %v", err, ErrEventKind)
	}
	f.Add(kind256Event, false)
	for _, delta := range []bool{false, true} {
		var all bytes.Buffer
		fw := newFrameWriter(&all)
		frames := sampleFrames()
		for i := range frames {
			before := all.Len()
			writeFrame(fw, &frames[i], delta)
			_ = fw.flush()
			f.Add(append([]byte(nil), all.Bytes()[before:]...), delta)
		}
		f.Add(all.Bytes(), delta)
	}
	f.Fuzz(func(t *testing.T, in []byte, delta bool) {
		fr := &frameReader{br: bufio.NewReader(bytes.NewReader(in))}
		var decoded []frame
		for {
			var fm frame
			if err := fr.next(&fm); err != nil {
				break
			}
			decoded = append(decoded, fm)
		}
		var buf bytes.Buffer
		fw := newFrameWriter(&buf)
		for i := range decoded {
			writeFrame(fw, &decoded[i], delta)
		}
		if err := fw.flush(); err != nil {
			t.Fatalf("re-encoding %d decoded frames: %v", len(decoded), err)
		}
		fr = &frameReader{br: bufio.NewReader(&buf)}
		for i := range decoded {
			var again frame
			if err := fr.next(&again); err != nil {
				t.Fatalf("frame %d of %d did not survive re-encoding: %v", i, len(decoded), err)
			}
			if !sameFrame(&again, &decoded[i]) {
				t.Fatalf("frame %d changed across re-encoding: %+v, was %+v", i, again, decoded[i])
			}
		}
	})
}

// TestHandshakeAndFramesInOneSegment: the handshake and the first frames
// may arrive in one TCP segment, in either direction. Whatever decodes
// the handshake must not swallow the frames behind it.
func TestHandshakeAndFramesInOneSegment(t *testing.T) {
	t.Run("server side", func(t *testing.T) {
		c, _, addr := startServer(t)
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		var seg bytes.Buffer
		fw := newFrameWriter(&seg)
		fw.hello(&hello{magic: wireMagic, role: roleTarget, traces: []string{"p0"}})
		const n = 50
		for i := 1; i <= n; i++ {
			fw.raw(&RawEvent{Trace: "p0", Seq: i, Kind: event.KindInternal, Type: "x"})
		}
		if err := fw.flush(); err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(seg.Bytes()); err != nil {
			t.Fatal(err)
		}
		waitFor(t, func() bool { return c.Delivered() == n })
	})

	t.Run("client side", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		const n = 50
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			var h frame
			if err := (&frameReader{br: bufio.NewReader(conn)}).next(&h); err != nil || h.kind != frameHello {
				return
			}
			var seg bytes.Buffer
			fw := newFrameWriter(&seg)
			fw.acks(nil)
			fw.trace(0, "p0")
			for i := 1; i <= n; i++ {
				fw.event(&event.Event{ID: event.ID{Index: i}, Kind: event.KindInternal, Type: "x", VC: vclock.VC{int32(i)}.Stamp(0)}, event.Ref{}, true)
			}
			fw.signal(frameEnd)
			_ = fw.flush()
			_, _ = conn.Write(seg.Bytes())
			_, _ = conn.Read(make([]byte, 1)) // hold the connection until the client is done
		}()
		mon, err := DialMonitor(ln.Addr().String(), WithSessionReconnect(0))
		if err != nil {
			t.Fatal(err)
		}
		defer mon.Close()
		for i := 1; i <= n; i++ {
			e, err := mon.Next()
			if err != nil {
				t.Fatalf("next %d: %v", i, err)
			}
			if e.ID.Index != i || e.VC.Get(0) != i {
				t.Fatalf("event %d decoded as %v vc=%v", i, e.ID, e.VC)
			}
		}
		if _, err := mon.Next(); err != io.EOF {
			t.Fatalf("after the last event: %v, want io.EOF", err)
		}
		if name, _ := mon.TraceName(0); name != "p0" {
			t.Fatalf("trace announcement lost: %q", name)
		}
	})
}

// TestLoneEventNeedsNoTimer: nothing in the write path waits for company.
// With every periodic timer set far beyond the test's patience, one
// event reported on an idle connection still reaches the collector, and
// one delivered on an idle monitor stream still reaches Next.
func TestLoneEventNeedsNoTimer(t *testing.T) {
	c := NewCollector()
	s := NewServer(c, t.Logf)
	s.SetWireTiming(time.Hour, time.Hour, time.Hour)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	mon, err := DialMonitor(addr, WithSessionHeartbeat(12*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	rep, err := DialReporter(addr, WithSessionHeartbeat(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()

	got := make(chan *event.Event, 1)
	go func() {
		if e, err := mon.Next(); err == nil {
			got <- e
		}
	}()
	if err := rep.Report(RawEvent{Trace: "p0", Seq: 1, Kind: event.KindInternal, Type: "lone"}); err != nil {
		t.Fatal(err)
	}
	select {
	case e := <-got:
		if e.Type != "lone" {
			t.Fatalf("got %+v", e)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a lone event sat in a buffer: something waits for a timer or a fuller batch")
	}
}

// TestFlushCountsShowBatching: a burst crosses each leg in far fewer
// syscalls than events, the byte count is what was flushed, and both are
// exported.
func TestFlushCountsShowBatching(t *testing.T) {
	c, srv, addr := startServer(t)
	evs := durWorkload(2000)
	rep, err := DialReporter(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	for _, e := range evs {
		if err := rep.Report(e); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return c.Delivered() == len(evs) })
	// A monitor arriving late replays the whole stream in full batches.
	mon, err := DialMonitor(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	drainMonitor(t, mon, len(evs))
	st := srv.WireStats()
	if st.TargetReads == 0 || st.TargetReads > len(evs)/4 {
		t.Fatalf("%d events arrived in %d reads: the target leg is not batching", len(evs), st.TargetReads)
	}
	if st.MonitorFlushes == 0 || st.MonitorFlushes > len(evs)/4 {
		t.Fatalf("%d events left in %d flushes: the monitor leg is not batching", len(evs), st.MonitorFlushes)
	}
	if st.MonitorBytes < len(evs) {
		t.Fatalf("MonitorBytes = %d for %d events: buffered bytes are not being counted", st.MonitorBytes, len(evs))
	}
}

// boundaryRecorder notes the stream offset at which every Read returned:
// the segment boundaries the reader actually saw.
type boundaryRecorder struct {
	r    io.Reader
	all  bytes.Buffer
	cuts map[int]bool
}

func (b *boundaryRecorder) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	b.all.Write(p[:n])
	b.cuts[b.all.Len()] = true
	return n, err
}

// TestTrickleCutsFramesMidHeaderAndMidVarint drives a monitor stream
// through the fault proxy's trickle setting the shard chaos suite uses
// (64-byte chunks) and checks what that suite relies on: the reader
// really is handed frames cut inside their header and inside a varint
// field, and decodes the stream exactly regardless.
func TestTrickleCutsFramesMidHeaderAndMidVarint(t *testing.T) {
	c, _, p := startFaultServer(t)
	// Indices beyond 127 make the index field a two-byte varint; texts of
	// varying length keep the frame size from settling on a divisor of
	// the chunk size, which would pin every cut to one frame offset. Each
	// text is new, so the frame spells it out rather than referencing it
	// in the string table.
	const traces, perTrace = 4, 500
	for i := 1; i <= perTrace; i++ {
		for tr := 0; tr < traces; tr++ {
			text := "xxxxxx"[:(i+tr)%7] + strconv.Itoa(i)
			ev := RawEvent{Trace: string(rune('a' + tr)), Seq: i, Kind: event.KindInternal, Type: "tick", Text: text}
			if err := c.Report(ev); err != nil {
				t.Fatal(err)
			}
		}
	}
	oracle := c.Ordered()
	p.SetChunk(64, 50*time.Microsecond)

	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(30 * time.Second))
	fw := newFrameWriter(conn)
	fw.hello(&hello{magic: wireMagic, role: roleMonitor})
	if err := fw.flush(); err != nil {
		t.Fatal(err)
	}
	rec := &boundaryRecorder{r: conn, cuts: make(map[int]bool)}
	br := bufio.NewReaderSize(rec, frameBufSize)
	fr := &frameReader{br: br}
	if err := fr.next(new(frame)); err != nil {
		t.Fatalf("hello answer: %v", err)
	}
	pos := rec.all.Len() - br.Buffered() // where the stream begins
	for i := 0; i < len(oracle); {
		var f frame
		if err := fr.next(&f); err != nil {
			t.Fatalf("frame before event %d: %v", i, err)
		}
		if f.kind != frameEvent {
			continue
		}
		if !sameEvent(f.ev, oracle[i]) {
			t.Fatalf("event %d decoded as %v vc=%v, want %v vc=%v", i, f.ev.ID, f.ev.VC, oracle[i].ID, oracle[i].VC)
		}
		i++
	}

	// Walk the consumed bytes frame by frame and classify the cuts. An
	// event frame is its header (length varint, kind byte), a flags byte,
	// the trace varint, the index varint, and the rest.
	end := rec.all.Len() - br.Buffered()
	stream := rec.all.Bytes()
	midHeader, midVarint := 0, 0
	for pos < end {
		n, w := binary.Uvarint(stream[pos:end])
		if w <= 0 {
			t.Fatalf("walker lost the framing at offset %d", pos)
		}
		kind := pos + w
		for cut := pos + 1; cut <= kind; cut++ {
			if rec.cuts[cut] {
				midHeader++
			}
		}
		if stream[kind] == frameEvent {
			_, tw := binary.Uvarint(stream[kind+2 : end])
			index := kind + 2 + tw
			_, iw := binary.Uvarint(stream[index:end])
			for cut := index + 1; cut < index+iw; cut++ {
				if rec.cuts[cut] {
					midVarint++
				}
			}
		}
		pos = kind + int(n)
	}
	if midHeader == 0 || midVarint == 0 {
		t.Fatalf("64-byte chunks cut %d frames mid-header and %d mid-varint over %d reads: the trickle case is not exercising split frames",
			midHeader, midVarint, len(rec.cuts))
	}
	t.Logf("%d reads; %d cuts mid-header, %d mid-varint", len(rec.cuts), midHeader, midVarint)
}

// TestReporterAckedExactAcrossReconnect: with part of the window acked
// before a cut and the rest after the resume, every event is counted
// acked exactly once.
func TestReporterAckedExactAcrossReconnect(t *testing.T) {
	c, _, p := startFaultServer(t)
	rep := fastReporter(t, p)
	const total = 600
	report := func(from, to int) {
		for i := from; i <= to; i++ {
			if err := rep.Report(RawEvent{Trace: "p0", Seq: i, Kind: event.KindInternal, Type: "x"}); err != nil {
				t.Fatal(err)
			}
		}
	}
	report(1, total/3)
	// Part of the window is acked and pruned...
	waitFor(t, func() bool { return rep.Stats().Acked == total/3 })
	// ...the next part is ingested but its ack never arrives...
	p.SetBlackholeDir(faultnet.ServerToClient, true)
	report(total/3+1, 2*total/3)
	waitFor(t, func() bool { return c.Delivered() == 2*total/3 })
	p.SetBlackholeDir(faultnet.ServerToClient, false)
	p.CutAll()
	// ...and the rest goes out after the resume, whose handshake acks the
	// middle third.
	report(2*total/3+1, total)
	if err := rep.Flush(); err != nil {
		t.Fatal(err)
	}
	st := rep.Stats()
	if st.Reconnects == 0 {
		t.Fatalf("stats = %+v: the cut never forced a reconnect (test proved nothing)", st)
	}
	if st.Acked != total || st.Reported != total {
		t.Fatalf("stats = %+v, want Acked = Reported = %d", st, total)
	}
	if c.Delivered() != total {
		t.Fatalf("delivered %d, want %d", c.Delivered(), total)
	}
}

// TestShardFollowerStopRacesInitialDial: Stop while the follower's first
// dial is still in flight must not strand the session. The peer answers
// the handshake only after Stop returned; the follower has to notice on
// its own and finish without sitting out its peer timeout.
func TestShardFollowerStopRacesInitialDial(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	c := NewCollector()
	if err := c.EnableSharding(0, 2); err != nil {
		t.Fatal(err)
	}
	f, err := FollowShardPeer(ln.Addr().String(), c, WithSessionHeartbeat(12*time.Second), WithSessionLog(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := (&frameReader{br: bufio.NewReader(conn)}).next(new(frame)); err != nil {
		t.Fatal(err)
	}
	// The follower is now inside its handshake, waiting for the answer,
	// with no connection published yet: Stop finds nothing to close.
	f.Stop()
	fw := newFrameWriter(conn)
	fw.acks(nil)
	if err := fw.flush(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-f.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("follower stopped during its initial dial never finished: the session it published after Stop is waiting out the peer timeout")
	}
	if err := f.Err(); err != nil {
		t.Fatalf("Err() = %v after Stop, want nil", err)
	}
	if st := f.Stats(); st.Connected {
		t.Fatalf("stats = %+v: a stopped follower reports a live session", st)
	}
}

// TestStringTableBound: texts that never repeat fill a connection's
// string tables up to their bound and no further — at most maxInterned
// strings of at most maxInternLen bytes, 2 MiB, the same strings on both
// sides — and still decode exactly, spelled literally once it is full.
func TestStringTableBound(t *testing.T) {
	const n, batch = 200000, 1000
	var wire bytes.Buffer
	before := liveHeap()
	fw := newFrameWriter(&wire)
	fr := &frameReader{br: bufio.NewReaderSize(&wire, frameBufSize)}
	text := func(i int) string {
		return strconv.Itoa(i) + string(bytes.Repeat([]byte{'x'}, 200-len(strconv.Itoa(i))))
	}
	var f frame
	for i := 0; i < n; i += batch {
		for j := i; j < i+batch; j++ {
			fw.raw(&RawEvent{Trace: "p" + strconv.Itoa(j%4), Seq: j/4 + 1, Kind: event.KindInternal, Type: "step", Text: text(j)})
		}
		if err := fw.flush(); err != nil {
			t.Fatal(err)
		}
		for j := i; j < i+batch; j++ {
			if err := fr.next(&f); err != nil {
				t.Fatalf("frame %d: %v", j, err)
			}
			if f.kind != frameRaw || f.raw.Text != text(j) || f.raw.Seq != j/4+1 {
				t.Fatalf("frame %d decoded as kind %d %+v", j, f.kind, f.raw)
			}
		}
	}
	held := liveHeap() - before
	const bound = maxInterned * maxInternLen
	wrote, read := 0, 0
	for s := range fw.strs {
		wrote += len(s)
	}
	for i, s := range fr.strs {
		read += len(s)
		if fw.strs[s] != uint64(i+1) {
			t.Fatalf("the reader's string %d is the writer's %d", i+1, fw.strs[s])
		}
	}
	t.Logf("tables hold %d strings, %d B (writer) and %d B (reader); %d B live with the codec state", len(fr.strs), wrote, read, held)
	if len(fw.strs) != maxInterned || len(fr.strs) != maxInterned || wrote != read || read > bound {
		t.Fatalf("tables hold %d (writer) and %d (reader) strings of %d and %d B, want %d each, at most %d B",
			len(fw.strs), len(fr.strs), wrote, read, maxInterned, bound)
	}
	if !raceEnabled && held > 3*bound {
		t.Fatalf("the codec state holds %d B after %d distinct texts, want at most %d", held, n, 3*bound)
	}
	runtime.KeepAlive(fw)
	runtime.KeepAlive(fr)
}
