package poet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"slices"
	"testing"
	"time"

	"ocep/internal/event"
	"ocep/internal/faultnet"
	"ocep/internal/vclock"
)

// writeFrame re-emits a decoded frame.
func writeFrame(fw *frameWriter, f *frame, delta bool) {
	switch f.kind {
	case frameRaw:
		fw.raw(&f.raw)
	case frameTraceReg:
		fw.traceReg(f.name)
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
	case frameRaw:
		return a.raw == b.raw
	case frameTraceReg:
		return a.name == b.name
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
	return []frame{
		{kind: frameHello, hello: hello{magic: wireMagic, role: roleTarget, traces: []string{"alpha", "beta"}}},
		{kind: frameAcks, acks: []traceAck{{Trace: "alpha", Seq: 3}, {Trace: "gamma", Seq: 1 << 33}}},
		{kind: frameAcks},
		{kind: frameError, reason: "standby awaiting promotion", retry: true},
		{kind: frameError, reason: "unknown event t0#9"},
		{kind: frameQuery, query: queryReq{op: opGP, id: event.ID{Trace: 2, Index: 300}, arg: 1}},
		{kind: frameHello, hello: hello{magic: wireMagic, role: roleMonitor, from: 1 << 20}},
		{kind: frameHeartbeat},
		{kind: frameTraceReg, name: "alpha"},
		{kind: frameRaw, raw: RawEvent{Trace: "alpha", Seq: 1, Kind: event.KindSend, Type: "req", Text: "r0", MsgID: 7}},
		{kind: frameRaw, raw: RawEvent{Trace: "alpha", Seq: 300, Kind: event.KindInternal, Type: "req"}},
		{kind: frameTrace, id: 0, name: "alpha"},
		{kind: frameTrace, id: 2, name: "beta"},
		{kind: frameEvent, ev: &event.Event{ID: event.ID{Trace: 0, Index: 1}, Kind: event.KindSend, Type: "req", Text: "r0", VC: clock(0, 1)}},
		{kind: frameEvent, ev: &event.Event{ID: event.ID{Trace: 2, Index: 200}, Kind: event.KindReceive, Type: "resp",
			Partner: event.ID{Trace: 0, Index: 1}, VC: clock(2, 1, 0, 200)}},
		{kind: frameEvent, ev: &event.Event{ID: event.ID{Trace: 0, Index: 2}, Kind: event.KindInternal, Type: "req", VC: clock(0, 2)}},
		{kind: frameHead, head: 1 << 40},
		{kind: frameExport, exp: shardExport{MsgID: 1 << 50, ID: event.ID{Trace: 5, Index: 9}, VC: clock(5, 0, 3, 0, 0, 0, 9)}},
		{kind: frameExport, exp: shardExport{MsgID: 2, ID: event.ID{Trace: 5, Index: 10}, VC: clock(5)}},
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

// TestFrameDecoderBounds feeds the decoder each class of malformed
// input and requires that class's own error.
func TestFrameDecoderBounds(t *testing.T) {
	frameOf := func(body ...byte) []byte {
		return append(binary.AppendUvarint(nil, uint64(len(body))), body...)
	}
	cases := []struct {
		name string
		in   []byte
		want error
	}{
		{"frame longer than the limit", binary.AppendUvarint(nil, maxFrameLen+1), errFrameTooLong},
		{"empty frame", frameOf(), errFrameTooLong},
		{"unknown kind", frameOf(200), errFrameKind},
		{"string-table index not sent", frameOf(frameRaw, 5), errStringRef},
		{"event on an unannounced trace", frameOf(frameEvent, 0, 3, 1, 1, 0, 0, 0, 0, 0), errTraceRef},
		{"varint overruns the frame", frameOf(frameHead, 0x80), errFrameOverrun},
		{"string overruns the frame", frameOf(frameTrace, 1, 9, 'x'), errFrameOverrun},
		{"delta without baseline", frameOf(frameExport, flagDelta, 1, 0, 1, 0, 1), errNoBaseline},
		{"timestamp entry beyond the width limit", frameOf(append([]byte{frameExport, flagDelta | flagBaseline, 1, 0, 1},
			append(binary.AppendUvarint(nil, maxClockWidth), 1)...)...), errFrameMalformed},
		{"bytes past the last field", frameOf(frameHeartbeat, 0), errFrameMalformed},
		{"cut mid-frame", frameOf(frameHead, 1)[:2], io.ErrUnexpectedEOF},
		{"long frame cut short", append(binary.AppendUvarint(nil, 1<<20), frameHead, 1), io.ErrUnexpectedEOF},
		{"acks list longer than its frame", frameOf(frameAcks, 5, 0, 1, 'a', 1), errFrameMalformed},
		{"hello trace list longer than its frame", frameOf(append([]byte{frameHello, 0, 0, 0},
			binary.AppendUvarint(nil, maxClockWidth+1)...)...), errFrameMalformed},
	}
	for _, tc := range cases {
		fr := &frameReader{br: bufio.NewReader(bytes.NewReader(tc.in))}
		if err := fr.next(new(frame)); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

// FuzzFrameDecode throws arbitrary bytes at the decoder: it must never
// panic, and whatever it does decode must survive re-encoding — decode ∘
// encode is the identity on the decoder's range. Seeded with one frame
// of every kind in both timestamp spellings.
func FuzzFrameDecode(f *testing.F) {
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
				fw.event(&event.Event{ID: event.ID{Index: i}, Kind: event.KindInternal, Type: "x", VC: vclock.VC{int32(i)}.Stamp(0)}, event.ID{}, true)
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
	// the chunk size, which would pin every cut to one frame offset.
	const traces, perTrace = 4, 500
	for i := 1; i <= perTrace; i++ {
		for tr := 0; tr < traces; tr++ {
			ev := RawEvent{Trace: string(rune('a' + tr)), Seq: i, Kind: event.KindInternal, Type: "tick", Text: "xxxxxx"[:(i+tr)%7]}
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
