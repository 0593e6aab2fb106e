package ocep_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"ocep"
)

const requestResponse = `
	Req  := [*, request, $id];
	Resp := [*, response, $id];
	pattern := Req -> Resp;
`

func TestMonitorAttach(t *testing.T) {
	collector := ocep.NewCollector()
	var mu sync.Mutex
	var matched []ocep.Match
	mon, err := ocep.NewMonitor(requestResponse, ocep.WithMatchHandler(func(m ocep.Match) {
		mu.Lock()
		matched = append(matched, m)
		mu.Unlock()
	}), ocep.WithTiming())
	if err != nil {
		t.Fatal(err)
	}
	mon.Attach(collector)

	report := func(raw ocep.RawEvent) {
		t.Helper()
		if err := collector.Report(raw); err != nil {
			t.Fatal(err)
		}
	}
	report(ocep.RawEvent{Trace: "client", Seq: 1, Kind: ocep.KindSend, Type: "request", Text: "42", MsgID: 1})
	report(ocep.RawEvent{Trace: "server", Seq: 1, Kind: ocep.KindReceive, Type: "response", Text: "42", MsgID: 1})

	if err := mon.Err(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(matched) != 1 {
		t.Fatalf("matched = %d want 1", len(matched))
	}
	if got := matched[0].Bindings["id"]; got != "42" {
		t.Fatalf("$id binding = %q want 42", got)
	}
	if stats := mon.Stats(); stats.Reported != 1 {
		t.Fatalf("stats.Reported = %d", stats.Reported)
	}
	if ts := mon.Timings(); len(ts) != 2 {
		t.Fatalf("timings = %d want 2", len(ts))
	}
}

func TestMonitorAttachReplaysHistory(t *testing.T) {
	collector := ocep.NewCollector()
	if err := collector.Report(ocep.RawEvent{Trace: "p", Seq: 1, Kind: ocep.KindInternal, Type: "request", Text: "1"}); err != nil {
		t.Fatal(err)
	}
	mon, err := ocep.NewMonitor(requestResponse)
	if err != nil {
		t.Fatal(err)
	}
	mon.Attach(collector) // the early event is replayed
	if err := collector.Report(ocep.RawEvent{Trace: "p", Seq: 2, Kind: ocep.KindInternal, Type: "response", Text: "1"}); err != nil {
		t.Fatal(err)
	}
	if err := mon.Err(); err != nil {
		t.Fatal(err)
	}
	if stats := mon.Stats(); stats.Reported != 1 {
		t.Fatalf("reported = %d want 1 (replay missed the early request?)", stats.Reported)
	}
}

func TestMonitorFeedDirect(t *testing.T) {
	mon, err := ocep.NewMonitor(`A := ['proc-7', ping, *]; pattern := A;`)
	if err != nil {
		t.Fatal(err)
	}
	tid := mon.RegisterTrace("proc-7")
	matches, err := mon.Feed(&ocep.Event{
		ID:   ocep.EventID{Trace: tid, Index: 1},
		Kind: ocep.KindInternal,
		Type: "ping",
		VC:   ocep.VC{1}.Stamp(int(tid)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 {
		t.Fatalf("matches = %d want 1", len(matches))
	}
	if mon.PatternLength() != 1 {
		t.Fatalf("pattern length = %d", mon.PatternLength())
	}
}

func TestMonitorOverTCP(t *testing.T) {
	collector := ocep.NewCollector()
	server := ocep.NewServer(collector, nil)
	addr, err := server.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	client, err := ocep.DialMonitor(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	mon, err := ocep.NewMonitor(requestResponse)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- mon.Run(client) }()

	rep, err := ocep.DialReporter(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	if err := rep.Report(ocep.RawEvent{Trace: "c", Seq: 1, Kind: ocep.KindSend, Type: "request", Text: "9", MsgID: 5}); err != nil {
		t.Fatal(err)
	}
	if err := rep.Report(ocep.RawEvent{Trace: "s", Seq: 1, Kind: ocep.KindReceive, Type: "response", Text: "9", MsgID: 5}); err != nil {
		t.Fatal(err)
	}

	deadline := time.After(5 * time.Second)
	for mon.Stats().Reported == 0 {
		select {
		case err := <-done:
			t.Fatalf("monitor loop ended early: %v", err)
		case <-deadline:
			t.Fatalf("no match within deadline")
		default:
			time.Sleep(2 * time.Millisecond)
		}
	}
	if err := server.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("monitor run: %v", err)
	}
}

func TestMonitorExplain(t *testing.T) {
	collector := ocep.NewCollector()
	var explanation string
	var mon *ocep.Monitor
	mon, err := ocep.NewMonitor(requestResponse, ocep.WithMatchHandler(func(m ocep.Match) {
		// Calling Explain from inside the handler must not deadlock.
		explanation = mon.Explain(m)
	}))
	if err != nil {
		t.Fatal(err)
	}
	mon.Attach(collector)
	if err := collector.Report(ocep.RawEvent{Trace: "c", Seq: 1, Kind: ocep.KindSend, Type: "request", Text: "8", MsgID: 1}); err != nil {
		t.Fatal(err)
	}
	if err := collector.Report(ocep.RawEvent{Trace: "s", Seq: 1, Kind: ocep.KindReceive, Type: "response", Text: "8", MsgID: 1}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"match:", "$id = \"8\"", "constraints:", "->"} {
		if !strings.Contains(explanation, want) {
			t.Errorf("explanation missing %q:\n%s", want, explanation)
		}
	}
}

func TestNewMonitorErrors(t *testing.T) {
	if _, err := ocep.NewMonitor(`garbage`); err == nil {
		t.Fatalf("bad source must fail")
	}
	if _, err := ocep.NewMonitor(`A := [*,a,*]; A $x; pattern := $x -> $x;`); err == nil {
		t.Fatalf("uncompilable pattern must fail")
	}
}

func TestCheckPattern(t *testing.T) {
	out, err := ocep.CheckPattern(requestResponse)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"classes:", "leaves (k=2):", "terminating", "Req", "->"} {
		if !strings.Contains(out, want) {
			t.Errorf("description missing %q:\n%s", want, out)
		}
	}
	if _, err := ocep.CheckPattern("x"); err == nil {
		t.Fatalf("CheckPattern must propagate errors")
	}
}

// TestPatternLengthLimit: the matcher indexes a pattern's leaves in one
// 64-bit mask, so a 64-leaf pattern compiles and matches and a 65-leaf
// one is refused by name, with its leaf count and the limit — it does not
// run on some other, slower engine.
func TestPatternLengthLimit(t *testing.T) {
	// One class and one occurrence per leaf, ordered pairwise: every
	// candidate domain holds one event, so the search is linear.
	chain := func(leaves int) string {
		var b strings.Builder
		for i := 0; i < leaves; i++ {
			fmt.Fprintf(&b, "C%d := [*, t%d, *];\nC%d $x%d;\n", i, i, i, i)
		}
		b.WriteString("pattern := ($x0 -> $x1)")
		for i := 2; i < leaves; i++ {
			fmt.Fprintf(&b, " && ($x%d -> $x%d)", i-1, i)
		}
		b.WriteString(";\n")
		return b.String()
	}
	for _, tc := range []struct {
		leaves  int
		refused bool
	}{{64, false}, {65, true}} {
		mon, err := ocep.NewMonitor(chain(tc.leaves))
		if tc.refused {
			if err == nil || !strings.Contains(err.Error(), "65") || !strings.Contains(err.Error(), "64") {
				t.Fatalf("%d leaves: err = %v, want a refusal naming 65 leaves and the limit 64", tc.leaves, err)
			}
			if _, err := ocep.CheckPattern(chain(tc.leaves)); err == nil {
				t.Fatalf("%d leaves: CheckPattern accepted what NewMonitor refuses", tc.leaves)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%d leaves: %v", tc.leaves, err)
		}
		collector := ocep.NewCollector()
		mon.Attach(collector)
		for seq := 1; seq <= tc.leaves; seq++ {
			if err := collector.Report(ocep.RawEvent{Trace: "p", Seq: seq, Kind: ocep.KindInternal, Type: fmt.Sprintf("t%d", seq-1)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := mon.Err(); err != nil {
			t.Fatal(err)
		}
		if st := mon.Stats(); mon.PatternLength() != tc.leaves || st.Reported != 1 {
			t.Fatalf("%d leaves: pattern length %d, stats %+v; want one match of the whole trace", tc.leaves, mon.PatternLength(), st)
		}
	}
}
