package ocep_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"ocep"
)

func TestMonitorSetBasics(t *testing.T) {
	var mu sync.Mutex
	byPattern := map[string]int{}
	set := ocep.NewMonitorSet(func(pattern string, m ocep.Match) {
		mu.Lock()
		byPattern[pattern]++
		mu.Unlock()
	})
	if err := set.Add("stale-read", `
		W := [primary, write, $k];
		R := [replica, read,  $k];
		pattern := W || R;
	`); err != nil {
		t.Fatal(err)
	}
	if err := set.Add("ping", `P := [*, ping, *]; pattern := P;`); err != nil {
		t.Fatal(err)
	}
	if err := set.Add("ping", `P := [*, ping, *]; pattern := P;`); err == nil {
		t.Fatalf("duplicate name must fail")
	}
	if err := set.Add("bad", `garbage`); err == nil {
		t.Fatalf("uncompilable member must fail")
	}
	if got := set.Names(); len(got) != 2 || got[0] != "ping" || got[1] != "stale-read" {
		t.Fatalf("names = %v", got)
	}

	collector := ocep.NewCollector()
	// One event before attaching: replay must deliver it to members.
	if err := collector.Report(ocep.RawEvent{Trace: "primary", Seq: 1, Kind: ocep.KindInternal, Type: "ping"}); err != nil {
		t.Fatal(err)
	}
	set.Attach(collector)
	raws := []ocep.RawEvent{
		{Trace: "primary", Seq: 2, Kind: ocep.KindInternal, Type: "write", Text: "k1"},
		{Trace: "replica", Seq: 1, Kind: ocep.KindInternal, Type: "read", Text: "k1"},
	}
	for _, r := range raws {
		if err := collector.Report(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := set.Err(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if byPattern["ping"] != 1 {
		t.Fatalf("ping matches = %d want 1", byPattern["ping"])
	}
	if byPattern["stale-read"] != 1 {
		t.Fatalf("stale-read matches = %d want 1", byPattern["stale-read"])
	}
	stats := set.Stats()
	if len(stats) != 2 || stats["ping"].Reported != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if _, ok := set.Monitor("ping"); !ok {
		t.Fatalf("member lookup failed")
	}
	if _, ok := set.Monitor("nope"); ok {
		t.Fatalf("unknown member resolved")
	}
}

// TestMonitorSetLateAdd: a member added after Attach is auto-attached
// and replays history.
func TestMonitorSetLateAdd(t *testing.T) {
	set := ocep.NewMonitorSet(nil)
	collector := ocep.NewCollector()
	set.Attach(collector)
	if err := collector.Report(ocep.RawEvent{Trace: "p", Seq: 1, Kind: ocep.KindInternal, Type: "boom"}); err != nil {
		t.Fatal(err)
	}
	if err := set.Add("late", `B := [*, boom, *]; pattern := B;`); err != nil {
		t.Fatal(err)
	}
	if got := set.Stats()["late"].Reported; got != 1 {
		t.Fatalf("late member missed replayed history: reported = %d", got)
	}
}

func TestMonitorSetErrorNames(t *testing.T) {
	set := ocep.NewMonitorSet(nil)
	err := set.Add("broken", `pattern := Zed;`)
	if err == nil || !strings.Contains(err.Error(), "broken") {
		t.Fatalf("error must name the member: %v", err)
	}
}

// TestMonitorSetMatchesSoloMonitors is the public-path differential of
// the shared dispatcher: a set of many patterns, most subscribed to
// types the stream never carries, must report per pattern exactly what
// that pattern's own monitor reports on the same collector — and must
// have skipped member feeds to do it.
func TestMonitorSetMatchesSoloMonitors(t *testing.T) {
	sources := []string{`A := [*, a, *]; B := [*, b, *]; pattern := A -> B;`}
	for i := 1; i < 32; i++ {
		sources = append(sources, fmt.Sprintf(`A := [*, x%d, *]; B := [*, y%d, *]; pattern := A -> B;`, i, i))
	}
	collector := ocep.NewCollector()
	defer collector.Close()
	seqs := map[string]int{}
	report := func(trace string, kind ocep.Kind, typ string, msg uint64) {
		t.Helper()
		seqs[trace]++
		if err := collector.Report(ocep.RawEvent{Trace: trace, Seq: seqs[trace], Kind: kind, Type: typ, MsgID: msg}); err != nil {
			t.Fatal(err)
		}
	}
	for wave := uint64(1); wave <= 200; wave++ {
		report("p0", ocep.KindSend, "a", wave)
		report("p1", ocep.KindReceive, "b", wave)
		for j := 0; j < 4; j++ {
			report(fmt.Sprintf("p%d", j%2), ocep.KindInternal, "noise", 0)
		}
	}

	var mu sync.Mutex
	counts := map[string]int{}
	set := ocep.NewMonitorSet(func(name string, _ ocep.Match) {
		mu.Lock()
		counts[name]++
		mu.Unlock()
	})
	for i, src := range sources {
		if err := set.Add(fmt.Sprintf("p%03d", i), src, ocep.WithRepresentativeOnly()); err != nil {
			t.Fatal(err)
		}
	}
	set.Attach(collector)
	set.Flush()
	defer set.Detach()
	if err := set.Err(); err != nil {
		t.Fatal(err)
	}
	for i, src := range sources {
		solo, err := ocep.NewMonitor(src, ocep.WithRepresentativeOnly())
		if err != nil {
			t.Fatal(err)
		}
		solo.Attach(collector)
		want := solo.Stats()
		solo.Detach()
		name := fmt.Sprintf("p%03d", i)
		if got := set.Stats()[name]; got != want {
			t.Fatalf("%s: stats via the set %+v, solo %+v", name, got, want)
		}
		if counts[name] != want.Reported {
			t.Fatalf("%s: %d matches via the set, %d solo", name, counts[name], want.Reported)
		}
	}
	if counts["p000"] == 0 {
		t.Fatal("the matching pattern reported nothing: the comparison is vacuous")
	}
	if d := set.DispatchStats(); d.Members != len(sources) || d.Skipped == 0 {
		t.Fatalf("dispatch stats %+v: want %d members behind the shared dispatcher and skipped feeds", d, len(sources))
	}
}
