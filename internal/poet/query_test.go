package poet

import (
	"strings"
	"testing"

	"ocep/internal/event"
)

func TestCollectorQueries(t *testing.T) {
	c := NewCollector()
	must := func(raw RawEvent) {
		t.Helper()
		if err := c.Report(raw); err != nil {
			t.Fatal(err)
		}
	}
	must(RawEvent{Trace: "p0", Seq: 1, Kind: event.KindSend, Type: "s", MsgID: 1})
	must(RawEvent{Trace: "p1", Seq: 1, Kind: event.KindReceive, Type: "r", MsgID: 1})
	must(RawEvent{Trace: "p1", Seq: 2, Kind: event.KindInternal, Type: "i"})

	send := event.ID{Trace: 0, Index: 1}
	if e, ok := c.GetEvent(send); !ok || e.Kind != event.KindSend {
		t.Fatalf("GetEvent(send) = %v, %v", e, ok)
	}
	if _, ok := c.GetEvent(event.ID{Trace: 0, Index: 9}); ok {
		t.Fatalf("unknown event must not resolve")
	}
	// LS of the send on p1 is the receive (index 1).
	if pos, err := c.QueryLS(send, 1); err != nil || pos != 1 {
		t.Fatalf("QueryLS = %d, %v", pos, err)
	}
	// GP of p1's internal event on p0 is the send.
	if pos, err := c.QueryGP(event.ID{Trace: 1, Index: 2}, 0); err != nil || pos != 1 {
		t.Fatalf("QueryGP = %d, %v", pos, err)
	}
	if _, err := c.QueryGP(event.ID{Trace: 5, Index: 1}, 0); err == nil {
		t.Fatalf("unknown event query must fail")
	}
}

func TestQueryOverTCP(t *testing.T) {
	c, _, addr := startServer(t)
	rep, err := DialReporter(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	raws := []RawEvent{
		{Trace: "p0", Seq: 1, Kind: event.KindSend, Type: "s", Text: "x", MsgID: 1},
		{Trace: "p1", Seq: 1, Kind: event.KindReceive, Type: "r", MsgID: 1},
		{Trace: "p1", Seq: 2, Kind: event.KindInternal, Type: "i"},
	}
	for _, r := range raws {
		if err := rep.Report(r); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return c.Delivered() == len(raws) })

	q, err := DialQuery(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()

	// The query role spells the clock dense: a trace's first event, a
	// receive, and an internal event sharing that receive's join clock
	// must all arrive whole.
	for _, tc := range []struct {
		id   event.ID
		want string
	}{{event.ID{Trace: 0, Index: 1}, "[1]"}, {event.ID{Trace: 1, Index: 1}, "[1 1]"}, {event.ID{Trace: 1, Index: 2}, "[1 2]"}} {
		e, err := q.Get(tc.id)
		if err != nil {
			t.Fatal(err)
		}
		local, _ := c.GetEvent(tc.id)
		if e.VC.String() != tc.want || !e.VC.Equal(local.VC) || e.VC.Get(int(tc.id.Trace)) != tc.id.Index {
			t.Fatalf("queried %v has clock %s, want %s (the collector holds %s)", tc.id, e.VC, tc.want, local.VC)
		}
	}

	send := event.ID{Trace: 0, Index: 1}
	e, err := q.Get(send)
	if err != nil {
		t.Fatal(err)
	}
	if e.Type != "s" || e.Text != "x" || e.VC.Get(0) != 1 {
		t.Fatalf("queried event wrong: %s", e)
	}
	// A query reads the collector's event under its lock, so a send names
	// the receive delivered since (the monitor stream never does).
	if recv := (event.ID{Trace: 1, Index: 1}); e.Partner.ID() != recv {
		t.Fatalf("queried send has partner %v, want its receive %v", e.Partner, recv)
	}
	if r, err := q.Get(event.ID{Trace: 1, Index: 1}); err != nil || r.Partner.ID() != send {
		t.Fatalf("queried receive = %v, %v; want partner %v", r, err, send)
	}
	if pos, err := q.LS(send, 1); err != nil || pos != 1 {
		t.Fatalf("remote LS = %d, %v", pos, err)
	}
	if pos, err := q.GP(event.ID{Trace: 1, Index: 1}, 0); err != nil || pos != 1 {
		t.Fatalf("remote GP = %d, %v", pos, err)
	}
	// Unknown events produce errors, and the connection survives them.
	if _, err := q.Get(event.ID{Trace: 7, Index: 7}); err == nil || !strings.Contains(err.Error(), "unknown event") {
		t.Fatalf("unknown event error = %v", err)
	}
	if _, err := q.Get(send); err != nil {
		t.Fatalf("connection must survive a failed query: %v", err)
	}
}

func TestQueryConstantTimeContract(t *testing.T) {
	// The Section VI contract: retrieval cost does not depend on how
	// many events were collected. We check the algorithmic side (map +
	// slice indexing) by asserting identical results at two scales, and
	// leave timing to the benchmarks.
	for _, n := range []int{100, 10_000} {
		c := NewCollector()
		for i := 1; i <= n; i++ {
			if err := c.Report(RawEvent{Trace: "p0", Seq: i, Kind: event.KindInternal, Type: "x"}); err != nil {
				t.Fatal(err)
			}
		}
		if e, ok := c.GetEvent(event.ID{Trace: 0, Index: n / 2}); !ok || e.ID.Index != n/2 {
			t.Fatalf("lookup failed at scale %d", n)
		}
	}
}
