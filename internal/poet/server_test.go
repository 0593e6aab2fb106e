package poet

import (
	"bufio"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"ocep/internal/event"
)

func startServer(t *testing.T) (*Collector, *Server, string) {
	t.Helper()
	c := NewCollector()
	s := NewServer(c, t.Logf)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
	})
	return c, s, addr
}

func TestServerEndToEnd(t *testing.T) {
	c, _, addr := startServer(t)

	// Monitor connects first and sees everything live.
	mon, err := DialMonitor(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()

	rep, err := DialReporter(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()

	raws := []RawEvent{
		{Trace: "p0", Seq: 1, Kind: event.KindSend, Type: "send", Text: "to-p1", MsgID: 1},
		{Trace: "p1", Seq: 1, Kind: event.KindReceive, Type: "recv", Text: "from-p0", MsgID: 1},
		{Trace: "p0", Seq: 2, Kind: event.KindInternal, Type: "work"},
	}
	for _, r := range raws {
		if err := rep.Report(r); err != nil {
			t.Fatal(err)
		}
	}

	var got []*event.Event
	for len(got) < len(raws) {
		e, err := mon.Next()
		if err != nil {
			t.Fatalf("monitor next: %v", err)
		}
		got = append(got, e)
	}
	if got[0].Kind != event.KindSend || got[1].Kind != event.KindReceive {
		t.Fatalf("unexpected order: %v %v", got[0].Kind, got[1].Kind)
	}
	if name, ok := mon.TraceName(got[0].ID.Trace); !ok || name != "p0" {
		t.Fatalf("trace name = %q, %v", name, ok)
	}
	if len(mon.Traces()) != 2 {
		t.Fatalf("announced traces = %d want 2", len(mon.Traces()))
	}
	if got[1].Partner != got[0].ID {
		t.Fatalf("partner not preserved over the wire")
	}
	if !got[0].Before(got[1]) {
		t.Fatalf("causality not preserved over the wire")
	}
	// The server-side collector agrees.
	waitFor(t, func() bool { return c.Delivered() == len(raws) })
}

func TestServerLateMonitorReplay(t *testing.T) {
	c, _, addr := startServer(t)

	rep, err := DialReporter(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	for s := 1; s <= 10; s++ {
		if err := rep.Report(RawEvent{Trace: "p0", Seq: s, Kind: event.KindInternal, Type: "x"}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return c.Delivered() == 10 })

	// A monitor that connects now still receives all ten events.
	mon, err := DialMonitor(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	for i := 1; i <= 10; i++ {
		e, err := mon.Next()
		if err != nil {
			t.Fatalf("next %d: %v", i, err)
		}
		if e.ID.Index != i {
			t.Fatalf("replayed event %d has index %d", i, e.ID.Index)
		}
	}
}

// TestServerLaggardDisconnectGapFree overflows a slow monitor's delivery
// queue under the drop policy and checks both halves of the wire
// contract: the laggard is disconnected, and everything it received
// before the disconnect is a contiguous, gap-free prefix of the stream —
// the server must never emit an event from beyond a drop.
func TestServerLaggardDisconnectGapFree(t *testing.T) {
	c := NewCollector()
	s := NewServer(c, t.Logf)
	s.SetMonitorQueue(8, BackpressureDrop)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
	})

	// Reconnect disabled: a reconnecting client would transparently heal
	// the cut by resuming, which is exactly what this test must not allow.
	mon, err := DialMonitor(addr, WithSessionReconnect(0))
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	rep, err := DialReporter(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()

	// The monitor does not read during the burst: encodes back up into
	// the socket buffers, the 8-slot queue overflows, and the server must
	// cut the stream at the gap instead of skipping over it.
	const total = 50000
	for i := 1; i <= total; i++ {
		if err := rep.Report(RawEvent{Trace: "p0", Seq: i, Kind: event.KindInternal, Type: "x"}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return c.Delivered() == total })

	last := 0
	for {
		e, err := mon.Next()
		if err != nil {
			// The mid-stream cut must be reported as an interruption, never
			// as a clean end of stream: io.EOF is reserved for the server's
			// explicit End frame.
			if err == io.EOF {
				t.Fatalf("mid-stream disconnect surfaced as clean io.EOF")
			}
			if !errors.Is(err, ErrStreamInterrupted) {
				t.Fatalf("disconnect error = %v, want ErrStreamInterrupted", err)
			}
			break
		}
		if e.ID.Index != last+1 {
			t.Fatalf("wire stream has a gap: index %d follows %d", e.ID.Index, last)
		}
		last = e.ID.Index
	}
	// last == 0 is possible: the disconnect may reset the connection
	// before the client drains its receive buffer. The invariant is that
	// whatever prefix did arrive has no gaps, checked in the loop above.
	if last == total {
		t.Fatal("monitor received the whole stream; the queue never overflowed (burst too small for the socket buffers)")
	}
}

func TestServerMultipleTargetsAndMonitors(t *testing.T) {
	c, _, addr := startServer(t)
	const traces = 4
	const perTrace = 100

	mon1, err := DialMonitor(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer mon1.Close()
	mon2, err := DialMonitor(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer mon2.Close()

	errs := make(chan error, traces)
	for tr := 0; tr < traces; tr++ {
		go func(tr int) {
			rep, err := DialReporter(addr)
			if err != nil {
				errs <- err
				return
			}
			defer rep.Close()
			for s := 1; s <= perTrace; s++ {
				if err := rep.Report(RawEvent{
					Trace: fmt.Sprintf("p%d", tr), Seq: s,
					Kind: event.KindInternal, Type: "x",
				}); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(tr)
	}
	for i := 0; i < traces; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return c.Delivered() == traces*perTrace })
	for _, mon := range []*MonitorClient{mon1, mon2} {
		for i := 0; i < traces*perTrace; i++ {
			if _, err := mon.Next(); err != nil {
				t.Fatalf("monitor next %d: %v", i, err)
			}
		}
	}
}

func TestServerRejectsBadHello(t *testing.T) {
	_, _, addr := startServer(t)
	// A reporter with the wrong magic is dropped by the server; the
	// next Report or the one after fails once the connection closes.
	conn, err := DialReporter(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Direct bad-magic connection.
	bad, err := dialRaw(addr, hello{magic: "WRONG", role: roleTarget})
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	// The server closes it; reading yields EOF eventually.
	buf := make([]byte, 1)
	if err := bad.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := bad.Read(buf); err == nil {
		t.Fatalf("expected close or deadline on bad-magic connection")
	}
}

// TestServerRejectsGobHello: a peer of an earlier build opens with a gob
// hello (OCEP-POET-1, -2 or -3). The server hangs up on it at once and
// logs why, naming the protocol it speaks, instead of reading gob bytes
// as frames or waiting for more of them.
func TestServerRejectsGobHello(t *testing.T) {
	logs := make(chan string, 16)
	s := NewServer(NewCollector(), func(format string, args ...any) {
		select {
		case logs <- fmt.Sprintf(format, args...):
		default:
		}
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	type v3Hello struct {
		Magic, Role string
		ResumeFrom  int
		Traces      []string
		DeltaVC     bool
		ReplicaFrom int
	}
	type v1Hello struct{ Magic, Role string }
	// A type definition longer than 127 bytes takes a two-byte gob length;
	// encoded third, its type id is spelled 0xFF and a byte.
	type longHello struct {
		MagicOfAnEarlierBuildSpelledAtLength, RoleOfThePeerSpelledAtLength    string
		ResumeOffsetOfTheStreamSpelledAtLength, AppliedRecordsSpelledAtLength int
	}
	for _, h := range []any{
		v3Hello{Magic: "OCEP-POET-3", Role: roleMonitor, Traces: []string{"p0"}, DeltaVC: true},
		v1Hello{Magic: "OCEP-POET-1", Role: roleTarget},
		longHello{MagicOfAnEarlierBuildSpelledAtLength: "OCEP-POET-2", RoleOfThePeerSpelledAtLength: roleReplica},
	} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		// The type definition and the value are two writes; the server may
		// hang up between them, so the second can fail.
		_ = gob.NewEncoder(conn).Encode(h)
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Read(make([]byte, 1)); err == nil || isTimeout(err) {
			t.Fatalf("%T: the server kept the connection open (read: %v)", h, err)
		}
		_ = conn.Close()
		select {
		case line := <-logs:
			if !strings.Contains(line, "gob-era hello") || !strings.Contains(line, wireMagic) {
				t.Fatalf("%T: logged %q, want the gob-era rejection naming %s", h, line, wireMagic)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%T: no rejection logged", h)
		}
	}
}

func TestMonitorNextEOFOnServerClose(t *testing.T) {
	_, srv, addr := startServer(t)
	mon, err := DialMonitor(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := mon.Next(); err != io.EOF {
		t.Fatalf("want io.EOF after server close, got %v", err)
	}
}

// TestServerToleratesStaleDuplicates: a retransmitted (already
// ingested) event is the normal aftermath of a reporter reconnect, so
// the server must treat it as an idempotent no-op — log, count, carry
// on — rather than sever the connection.
func TestServerToleratesStaleDuplicates(t *testing.T) {
	c, srv, addr := startServer(t)

	// A raw target connection, so we can inject the duplicate without the
	// Reporter's own dedup machinery getting in the way.
	conn, err := dialRaw(addr, hello{magic: wireMagic, role: roleTarget})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if f := conn.answer(t); f.kind != frameAcks {
		t.Fatalf("hello answered by a kind-%d frame (%q)", f.kind, f.reason)
	}
	send := func(r RawEvent) {
		t.Helper()
		conn.fw.raw(&r)
		if err := conn.fw.flush(); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	send(RawEvent{Trace: "p0", Seq: 1, Kind: event.KindInternal, Type: "x"})
	waitFor(t, func() bool { return c.Delivered() == 1 })

	// The stale duplicate is ignored and the connection survives: the
	// next fresh event on the same connection is still ingested.
	send(RawEvent{Trace: "p0", Seq: 1, Kind: event.KindInternal, Type: "x"})
	send(RawEvent{Trace: "p0", Seq: 2, Kind: event.KindInternal, Type: "x"})
	waitFor(t, func() bool { return c.Delivered() == 2 })
	waitFor(t, func() bool { return srv.WireStats().StaleEvents == 1 })
}

// TestServerRejectsMalformedEvent: a genuinely malformed event (here a
// receive without a message id) still hard-fails the connection, and
// the reason reaches the reporter so it stops retransmitting the poison
// event. Other targets keep working.
func TestServerRejectsMalformedEvent(t *testing.T) {
	c, _, addr := startServer(t)

	bad, err := DialReporter(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	if err := bad.Report(RawEvent{Trace: "p0", Seq: 1, Kind: event.KindInternal, Type: "x"}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return c.Delivered() == 1 })

	// Receive with MsgID 0 is malformed beyond repair: the server rejects
	// it with a reason instead of letting the reporter retransmit it on
	// every reconnect forever.
	_ = bad.Report(RawEvent{Trace: "p0", Seq: 2, Kind: event.KindReceive, Type: "recv"})
	waitFor(t, func() bool { return bad.Err() != nil })
	if err := bad.Err(); !strings.Contains(err.Error(), "no message id") {
		t.Fatalf("reporter error = %v, want the server's rejection reason", err)
	}
	// The failure is permanent: further reports are refused locally.
	if err := bad.Report(RawEvent{Trace: "p0", Seq: 3, Kind: event.KindInternal, Type: "x"}); err == nil {
		t.Fatal("Report succeeded after a permanent wire failure")
	}

	// A healthy target still works.
	good, err := DialReporter(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()
	if err := good.Report(RawEvent{Trace: "p1", Seq: 1, Kind: event.KindInternal, Type: "y"}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return c.Delivered() >= 2 })
}

// TestServerGarbageAfterHello: undecodable bytes after a valid target
// hello close that connection without harming the server.
func TestServerGarbageAfterHello(t *testing.T) {
	c, _, addr := startServer(t)
	conn, err := dialRaw(addr, hello{magic: wireMagic, role: roleTarget})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("\x01\x02garbage that is not a frame")); err != nil {
		t.Fatal(err)
	}
	// The server should close; a later good connection still works.
	good, err := DialReporter(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()
	if err := good.Report(RawEvent{Trace: "p0", Seq: 1, Kind: event.KindInternal, Type: "x"}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return c.Delivered() == 1 })
}

// rawSession is a hand-driven client connection: the frame writer that
// sent its hello carries the rest of what the test sends, and the frame
// reader what comes back.
type rawSession struct {
	net.Conn
	fw *frameWriter
	fr *frameReader
}

// dialRaw opens a connection and sends an arbitrary hello.
func dialRaw(addr string, h hello) (*rawSession, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &rawSession{Conn: conn, fw: newFrameWriter(conn), fr: &frameReader{br: bufio.NewReader(conn)}}
	s.fw.hello(&h)
	if err := s.fw.flush(); err != nil {
		_ = conn.Close()
		return nil, err
	}
	return s, nil
}

// answer reads the frame that answers the hello.
func (s *rawSession) answer(t *testing.T) frame {
	t.Helper()
	var f frame
	if err := s.fr.next(&f); err != nil {
		t.Fatalf("reading the hello's answer: %v", err)
	}
	return f
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("condition not met within deadline")
}
