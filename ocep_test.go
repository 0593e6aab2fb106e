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

// TestSyncMonitorUnderRetention: a monitor attached to a retaining
// collector matches over the collector's store, its histories naming
// events by position, so the collector keeps every event such a
// monitor still holds as a candidate. A synchronous monitor, a
// MonitorSet member on the shared dispatcher and an async monitor with
// a store of its own each report both matches, the one whose request
// fell out of the retention window included; once a synchronous one
// detaches, the collector releases that request.
func TestSyncMonitorUnderRetention(t *testing.T) {
	for _, mode := range []string{"synchronous", "shared-dispatch", "async"} {
		collector := ocep.NewCollector()
		if err := collector.SetRetention(32); err != nil {
			t.Fatal(err)
		}
		var mon *ocep.Monitor
		var err error
		detach := func() { mon.Detach() }
		switch mode {
		case "synchronous":
			mon, err = ocep.NewMonitor(requestResponse)
		case "async":
			mon, err = ocep.NewMonitor(requestResponse, ocep.WithAsyncDelivery())
		case "shared-dispatch":
			set := ocep.NewMonitorSet(nil)
			err = set.Add("rr", requestResponse)
			mon, _ = set.Monitor("rr")
			set.Attach(collector)
			detach = set.Detach
		}
		if err != nil {
			t.Fatal(err)
		}
		if mode != "shared-dispatch" {
			mon.Attach(collector)
		}
		seq := map[string]int{}
		report := func(trace string, kind ocep.Kind, typ, text string, msg uint64) {
			t.Helper()
			seq[trace]++
			if err := collector.Report(ocep.RawEvent{Trace: trace, Seq: seq[trace], Kind: kind, Type: typ, Text: text, MsgID: msg}); err != nil {
				t.Fatal(err)
			}
		}
		noise := func() { // pushes what came before out of the window
			for i := 0; i < 100; i++ {
				report("client", ocep.KindInternal, "noise", "", 0)
				report("server", ocep.KindInternal, "noise", "", 0)
			}
			// An async monitor's cursor holds the log until it catches
			// up; the next Report trims past it.
			mon.Flush()
			report("server", ocep.KindInternal, "noise", "", 0)
		}
		report("client", ocep.KindInternal, "request", "1", 0)
		report("client", ocep.KindSend, "call", "", 1)
		noise()
		report("server", ocep.KindReceive, "response", "1", 1)
		report("client", ocep.KindInternal, "request", "2", 0)
		report("client", ocep.KindSend, "call", "", 2)
		report("server", ocep.KindReceive, "response", "2", 2)
		mon.Flush()
		if s := collector.RetentionStats(); s.StoreCompacted == 0 {
			t.Fatalf("%s: retention released nothing: %+v", mode, s)
		}
		if err := mon.Err(); err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if got := mon.Stats().Reported; got != 2 {
			t.Errorf("%s monitor reported %d matches, want 2", mode, got)
		}
		client, _ := collector.Store().TraceByName("client")
		if got := collector.Store().CompactedBefore(client); mode != "async" && got != 0 {
			t.Errorf("%s: the client trace is released below %d while request 1 is a candidate", mode, got)
		}
		detach()
		noise()
		if got := collector.Store().CompactedBefore(client); got == 0 {
			t.Errorf("%s: a detached monitor still pins the client trace", mode)
		}
	}
}

// TestRetentionPinUnderConcurrentReports: four reporters fill a
// retaining collector while a synchronous monitor and a MonitorSet
// member match over its store, capped histories letting it release
// events, and a reader polls their counters. Both report what an async
// monitor with a store of its own reports.
func TestRetentionPinUnderConcurrentReports(t *testing.T) {
	collector := ocep.NewCollector()
	if err := collector.SetRetention(64); err != nil {
		t.Fatal(err)
	}
	direct, err := ocep.NewMonitor(requestResponse, ocep.WithHistoryCap(8))
	if err != nil {
		t.Fatal(err)
	}
	async, err := ocep.NewMonitor(requestResponse, ocep.WithHistoryCap(8), ocep.WithAsyncDelivery())
	if err != nil {
		t.Fatal(err)
	}
	set := ocep.NewMonitorSet(nil)
	if err := set.Add("rr", requestResponse, ocep.WithHistoryCap(8)); err != nil {
		t.Fatal(err)
	}
	direct.Attach(collector)
	async.Attach(collector)
	set.Attach(collector)
	defer async.Detach()
	member, _ := set.Monitor("rr")
	var reporters, reader sync.WaitGroup
	done := make(chan struct{})
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-done:
				return
			default:
				_ = direct.Stats().Reported + member.Stats().Reported
			}
		}
	}()
	for r := 0; r < 4; r++ {
		reporters.Add(1)
		go func(r int) {
			defer reporters.Done()
			trace := fmt.Sprintf("p%d", r)
			for i := 1; i <= 2000; i++ {
				raw := ocep.RawEvent{Trace: trace, Seq: i, Kind: ocep.KindInternal, Type: "noise"}
				switch i % 10 {
				case 0:
					raw.Type, raw.Text = "request", fmt.Sprint(i/100)
				case 5:
					raw.Type, raw.Text = "response", fmt.Sprint(i/100)
				}
				if err := collector.Report(raw); err != nil {
					t.Error(err)
					return
				}
			}
		}(r)
	}
	reporters.Wait()
	close(done)
	reader.Wait()
	async.Flush()
	want := async.Stats().Reported
	if want == 0 || collector.RetentionStats().StoreCompacted == 0 {
		t.Fatalf("%d matches, %+v: the run shows nothing", want, collector.RetentionStats())
	}
	for name, mon := range map[string]*ocep.Monitor{"synchronous": direct, "shared-dispatch": member} {
		if err := mon.Err(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := mon.Stats().Reported; got != want {
			t.Errorf("%s monitor reported %d matches, the async one %d", name, got, want)
		}
	}
}
