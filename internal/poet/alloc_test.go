package poet

import (
	"fmt"
	"testing"

	"ocep/internal/event"
)

// TestReportAllocs pins what Collector.Report allocates per in-order
// event with no subscriber: the event, its timestamp, and the amortized
// growth of the store and the order log — no boxing of the clock. A
// received event merges its send's stamp into a running clock that is
// already wide enough, so it must cost what a sent one does.
func TestReportAllocs(t *testing.T) {
	const (
		traces = 8
		warm   = 4096
		runs   = 2000
	)
	c := NewCollector()
	defer c.Close()
	names := make([]string, traces)
	seqs := make([]int, traces)
	for i := range names {
		names[i] = fmt.Sprintf("p%d", i)
		c.RegisterTrace(names[i])
	}
	var msg uint64
	report := func(tr int, kind event.Kind) {
		seqs[tr]++
		raw := RawEvent{Trace: names[tr], Seq: seqs[tr], Kind: kind, Type: "step"}
		if kind != event.KindInternal {
			raw.MsgID = msg
		}
		if err := c.Report(raw); err != nil {
			t.Fatal(err)
		}
	}
	// Warm: every clock as wide as it will get, the maps past their
	// early doublings.
	for i := 0; i < warm; i++ {
		msg++
		report(i%traces, event.KindSend)
		report((i+1)%traces, event.KindReceive)
	}
	i := 0
	internal := testing.AllocsPerRun(runs, func() { report(i%traces, event.KindInternal); i++ })
	sent := testing.AllocsPerRun(runs, func() { msg++; report(i%traces, event.KindSend); i++ })
	pair := testing.AllocsPerRun(runs, func() {
		msg++
		report(i%traces, event.KindSend)
		report((i+1)%traces, event.KindReceive)
		i++
	})
	t.Logf("allocs per event: internal %.2f, sent %.2f, received %.2f", internal, sent, pair-sent)
	if internal > 3 {
		t.Fatalf("an in-order internal event costs %.2f allocations in Report, want <= 3", internal)
	}
	if received := pair - sent; received > sent {
		t.Fatalf("a received event costs %.2f allocations, a sent one %.2f: the merge allocates", received, sent)
	}
}
