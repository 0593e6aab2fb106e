package ocep_test

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"ocep"
	"ocep/internal/baseline"
	"ocep/internal/core"
	"ocep/internal/event"
	"ocep/internal/pattern"
	"ocep/internal/poet"
	"ocep/internal/workload"
)

// recordingSink captures raw events in arrival order while forwarding
// them to a validating throwaway collector, so the exact same stream can
// be replayed serially into several delivery configurations. The workload
// generators run concurrent goroutines, so two generator invocations
// produce different arrival orders; recording once removes that
// nondeterminism from the differential.
type recordingSink struct {
	mu  sync.Mutex
	c   *poet.Collector
	raw []poet.RawEvent
}

func (r *recordingSink) Report(ev poet.RawEvent) error {
	r.mu.Lock()
	r.raw = append(r.raw, ev)
	r.mu.Unlock()
	return r.c.Report(ev)
}

// deliveryCase is one workload for the sync-vs-async differential. The
// sizes stay small because the test cross-checks against the exhaustive
// baseline oracle.
type deliveryCase struct {
	name     string
	pattern  string
	generate func(sink *recordingSink) error
}

func deliveryCases() []deliveryCase {
	return []deliveryCase{
		{
			name:    "deadlock",
			pattern: workload.DeadlockPattern(2),
			generate: func(sink *recordingSink) error {
				_, err := workload.GenDeadlock(workload.DeadlockConfig{
					Ranks: 4, CycleLen: 2, Rounds: 40, BugProb: 0.2, Seed: 7, Sink: sink,
				})
				return err
			},
		},
		{
			name:    "msgrace",
			pattern: workload.MsgRacePattern(),
			generate: func(sink *recordingSink) error {
				_, err := workload.GenMsgRace(workload.MsgRaceConfig{
					Ranks: 4, Waves: 4, Sink: sink,
				})
				return err
			},
		},
		{
			name:    "atomicity",
			pattern: workload.AtomicityPattern(),
			generate: func(sink *recordingSink) error {
				_, err := workload.GenAtomicity(workload.AtomicityConfig{
					Threads: 3, Iterations: 10, BugProb: 0.25, Seed: 7, Sink: sink,
				})
				return err
			},
		},
		{
			name:    "ordering",
			pattern: workload.OrderingPattern(),
			generate: func(sink *recordingSink) error {
				_, err := workload.GenReplication(workload.ReplicationConfig{
					Followers: 3, UpdatesPerSession: 2, BugProb: 0.5, Seed: 7, Sink: sink,
				})
				return err
			},
		},
	}
}

func recordWorkload(t *testing.T, c deliveryCase) []poet.RawEvent {
	t.Helper()
	sink := &recordingSink{c: poet.NewCollector()}
	if err := c.generate(sink); err != nil {
		t.Fatalf("generating %s workload: %v", c.name, err)
	}
	if !sink.c.Drained() {
		t.Fatalf("%s workload left %d events pending", c.name, sink.c.Pending())
	}
	return sink.raw
}

// matchKey canonicalizes a match for set comparison.
func matchKey(m ocep.Match) string {
	parts := make([]string, len(m.Events))
	for leaf, e := range m.Events {
		parts[leaf] = fmt.Sprintf("%d:%d#%d", leaf, e.ID.Trace, e.ID.Index)
	}
	return strings.Join(parts, " ")
}

// deliveryRun is one serial replay of a recorded stream through a single
// monitor in the given delivery mode.
type deliveryRun struct {
	matches  []ocep.Match
	coverage []ocep.CoveredPair
	stats    ocep.MatcherStats
	store    *event.Store // the collector's store (for the oracle)
}

func (r deliveryRun) keys() []string {
	out := make([]string, len(r.matches))
	for i, m := range r.matches {
		out[i] = matchKey(m)
	}
	sort.Strings(out)
	return out
}

func runDeliveryMode(t *testing.T, raws []poet.RawEvent, patternSrc string, async bool) deliveryRun {
	t.Helper()
	var mu sync.Mutex
	var run deliveryRun
	opts := []ocep.Option{
		ocep.WithGuaranteedCoverage(),
		ocep.WithMatchHandler(func(m ocep.Match) {
			mu.Lock()
			run.matches = append(run.matches, m)
			mu.Unlock()
		}),
	}
	if async {
		opts = append(opts, ocep.WithAsyncDelivery(), ocep.WithQueueDepth(32), ocep.WithMaxBatch(8))
	}
	mon, err := ocep.NewMonitor(patternSrc, opts...)
	if err != nil {
		t.Fatalf("compiling pattern: %v", err)
	}
	c := ocep.NewCollector()
	mon.Attach(c)
	for _, raw := range raws {
		if err := c.Report(raw); err != nil {
			t.Fatalf("replaying: %v", err)
		}
	}
	c.Flush()
	if err := mon.Err(); err != nil {
		t.Fatalf("monitor error: %v", err)
	}
	run.coverage = mon.Coverage()
	run.stats = mon.Stats()
	run.store = c.Store()
	mon.Detach()
	c.Close()
	if len(run.matches) != run.stats.Reported {
		t.Fatalf("handler saw %d matches, stats report %d", len(run.matches), run.stats.Reported)
	}
	return run
}

func coverageSet(pairs []ocep.CoveredPair) map[[2]int]bool {
	cov := make(map[[2]int]bool, len(pairs))
	for _, p := range pairs {
		cov[[2]int{p.Leaf, int(p.Trace)}] = true
	}
	return cov
}

func coverageEqual(a, b map[[2]int]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// TestDeliveryDifferential replays identical recorded workloads through a
// synchronous and an asynchronous monitor and requires byte-identical
// representative-match sets, identical coverage footprints, coverage
// equal to the exhaustive oracle's, and per-match soundness.
func TestDeliveryDifferential(t *testing.T) {
	for _, tc := range deliveryCases() {
		t.Run(tc.name, func(t *testing.T) {
			raws := recordWorkload(t, tc)
			if len(raws) == 0 {
				t.Fatal("workload produced no events")
			}
			syncRun := runDeliveryMode(t, raws, tc.pattern, false)
			asyncRun := runDeliveryMode(t, raws, tc.pattern, true)

			syncKeys, asyncKeys := syncRun.keys(), asyncRun.keys()
			if len(syncKeys) != len(asyncKeys) {
				t.Fatalf("sync reported %d matches, async %d", len(syncKeys), len(asyncKeys))
			}
			for i := range syncKeys {
				if syncKeys[i] != asyncKeys[i] {
					t.Fatalf("match sets diverge at %d:\n  sync  %s\n  async %s",
						i, syncKeys[i], asyncKeys[i])
				}
			}

			covSync := coverageSet(syncRun.coverage)
			covAsync := coverageSet(asyncRun.coverage)
			if !coverageEqual(covSync, covAsync) {
				t.Fatalf("coverage diverges: sync %d pairs, async %d pairs", len(covSync), len(covAsync))
			}

			f, err := pattern.Parse(tc.pattern)
			if err != nil {
				t.Fatal(err)
			}
			pat, err := pattern.Compile(f)
			if err != nil {
				t.Fatal(err)
			}
			oracle := baseline.Coverage(baseline.AllMatches(pat, syncRun.store))
			if !coverageEqual(covSync, oracle) {
				t.Fatalf("reported coverage (%d pairs) != oracle coverage (%d pairs)",
					len(covSync), len(oracle))
			}

			for _, m := range asyncRun.matches {
				if err := core.VerifyMatch(pat, m, syncRun.store.TraceName); err != nil {
					t.Fatalf("async match unsound: %v\n  %s", err, matchKey(m))
				}
			}

			if asyncRun.stats.EventsSeen != len(raws) {
				t.Fatalf("async monitor saw %d events, stream has %d", asyncRun.stats.EventsSeen, len(raws))
			}
		})
	}
}

// TestAsyncFlushDeterminism checks the drain contract: after Flush
// returns, the async monitor has processed every event the collector
// delivered before the call.
func TestAsyncFlushDeterminism(t *testing.T) {
	mon, err := ocep.NewMonitor(requestResponse, ocep.WithAsyncDelivery())
	if err != nil {
		t.Fatal(err)
	}
	c := ocep.NewCollector()
	mon.Attach(c)
	defer c.Close()
	for i := 1; i <= 500; i++ {
		typ := "request"
		if i%2 == 0 {
			typ = "response"
		}
		if err := c.Report(ocep.RawEvent{Trace: "p", Seq: i, Kind: ocep.KindInternal, Type: typ, Text: "x"}); err != nil {
			t.Fatal(err)
		}
		if i%100 == 0 {
			mon.Flush()
			if seen := mon.Stats().EventsSeen; seen != c.Delivered() {
				t.Fatalf("after flush at %d: monitor saw %d events, collector delivered %d",
					i, seen, c.Delivered())
			}
		}
	}
	st := mon.DeliveryStats()
	if st.Enqueued != 500 || st.Dropped != 0 {
		t.Fatalf("delivery stats %+v: want 500 enqueued, none dropped", st)
	}
	mon.Detach()
	if err := mon.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestMonitorReattach checks that Attach on an already-attached monitor
// replaces the previous subscription cleanly: the old collector stops
// feeding the matcher (no duplicate-feed errors, no leaked delivery
// goroutine still enqueueing), and the monitor's state reflects only the
// new collector's stream.
func TestMonitorReattach(t *testing.T) {
	for _, mode := range []struct {
		name  string
		async bool
	}{{"sync", false}, {"async", true}} {
		t.Run(mode.name, func(t *testing.T) {
			opts := []ocep.Option{}
			if mode.async {
				opts = append(opts, ocep.WithAsyncDelivery())
			}
			mon, err := ocep.NewMonitor(requestResponse, opts...)
			if err != nil {
				t.Fatal(err)
			}
			report := func(c *ocep.Collector, from, n int) {
				t.Helper()
				for i := 0; i < n; i++ {
					typ := "request"
					if (from+i)%2 == 0 {
						typ = "response"
					}
					if err := c.Report(ocep.RawEvent{
						Trace: "p", Seq: from + i, Kind: ocep.KindInternal, Type: typ, Text: "x",
					}); err != nil {
						t.Fatal(err)
					}
				}
			}
			c1 := ocep.NewCollector()
			defer c1.Close()
			mon.Attach(c1)
			report(c1, 1, 10)
			mon.Flush()
			if seen := mon.Stats().EventsSeen; seen != 10 {
				t.Fatalf("first attachment saw %d events, want 10", seen)
			}

			c2 := ocep.NewCollector()
			defer c2.Close()
			mon.Attach(c2) // re-attach without an explicit Detach
			report(c2, 1, 4)
			// Later traffic on the old collector must not reach the monitor.
			report(c1, 11, 6)
			mon.Flush()
			if err := mon.Err(); err != nil {
				t.Fatalf("monitor error after re-attach: %v", err)
			}
			if seen := mon.Stats().EventsSeen; seen != 4 {
				t.Fatalf("after re-attach monitor saw %d events, want 4 (c2's stream only)", seen)
			}
			if mode.async {
				if st := mon.DeliveryStats(); st.Enqueued != 4 || st.Dropped != 0 {
					t.Fatalf("delivery stats after re-attach %+v: want 4 enqueued, none dropped", st)
				}
			}
			mon.Detach()
		})
	}
}

// TestMonitorSetReattachSharedDispatch is the class-index counterpart
// of TestMonitorReattach: a MonitorSet routed through the shared
// dispatcher is re-attached to a second collector, and every member —
// including one whose types never appear — must get fresh index entries
// and fresh matcher state. A stale entry from the first attachment
// would either leak the old collector's stream into the counters or
// leave a member unreachable in the rebuilt index.
func TestMonitorSetReattachSharedDispatch(t *testing.T) {
	var mu sync.Mutex
	counts := map[string]int{}
	set := ocep.NewMonitorSet(func(name string, _ ocep.Match) {
		mu.Lock()
		counts[name]++
		mu.Unlock()
	})
	if err := set.Add("rr", requestResponse, ocep.WithRepresentativeOnly()); err != nil {
		t.Fatal(err)
	}
	// A member subscribed to types neither stream carries: the index
	// must skip it on every event, across both attachments.
	if err := set.Add("quiet", `A := [*, never1, *]; B := [*, never2, *]; pattern := A -> B;`,
		ocep.WithRepresentativeOnly()); err != nil {
		t.Fatal(err)
	}
	report := func(c *ocep.Collector, from, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			typ := "request"
			if (from+i)%2 == 0 {
				typ = "response"
			}
			if err := c.Report(ocep.RawEvent{
				Trace: "p", Seq: from + i, Kind: ocep.KindInternal, Type: typ, Text: "x",
			}); err != nil {
				t.Fatal(err)
			}
		}
	}

	c1 := ocep.NewCollector()
	defer c1.Close()
	set.Attach(c1)
	report(c1, 1, 10)
	set.Flush()
	for name, st := range set.Stats() {
		if st.EventsSeen != 10 {
			t.Fatalf("first attachment: %s saw %d events, want 10", name, st.EventsSeen)
		}
	}
	d1 := set.DispatchStats()
	if d1.Events != 10 || d1.Members != 2 || d1.Visited != 10 || d1.Skipped != 10 {
		t.Fatalf("first attachment dispatch stats %+v: want 10 events, 2 members, 10 visited, 10 skipped", d1)
	}
	mu.Lock()
	firstMatches := counts["rr"]
	mu.Unlock()
	if firstMatches == 0 {
		t.Fatal("no matches on the first attachment: re-attach check would be vacuous")
	}

	c2 := ocep.NewCollector()
	defer c2.Close()
	set.Attach(c2) // re-attach without an explicit Detach
	report(c2, 1, 4)
	// Later traffic on the old collector must not reach any member.
	report(c1, 11, 6)
	set.Flush()
	if err := set.Err(); err != nil {
		t.Fatalf("set error after re-attach: %v", err)
	}
	for name, st := range set.Stats() {
		if st.EventsSeen != 4 {
			t.Fatalf("after re-attach %s saw %d events, want 4 (c2's stream only)", name, st.EventsSeen)
		}
	}
	d2 := set.DispatchStats()
	if d2.Events != 4 || d2.Members != 2 || d2.Visited != 4 || d2.Skipped != 4 {
		t.Fatalf("re-attach dispatch stats %+v: want 4 events, 2 members, 4 visited, 4 skipped", d2)
	}
	mu.Lock()
	second := counts["rr"] - firstMatches
	quiet := counts["quiet"]
	mu.Unlock()
	if second == 0 {
		t.Fatal("rr matched nothing on the re-attached stream: stale index entry?")
	}
	if quiet != 0 {
		t.Fatalf("quiet member reported %d matches; its types never occur", quiet)
	}
	set.Detach()
	if d := set.DispatchStats(); d != (ocep.DispatchStats{}) {
		t.Fatalf("dispatch stats after Detach %+v: want zero", d)
	}
}

// TestAsyncHandlerReentrancy checks the documented contract that an
// async onMatch handler may call the monitor's and the collector's read
// methods without deadlocking.
func TestAsyncHandlerReentrancy(t *testing.T) {
	var mon *ocep.Monitor
	var c *ocep.Collector
	var mu sync.Mutex
	calls := 0
	handler := func(m ocep.Match) {
		mu.Lock()
		calls++
		mu.Unlock()
		// Monitor read methods.
		_ = mon.Stats()
		_ = mon.Coverage()
		_ = mon.DeliveryStats()
		_ = mon.Explain(m)
		// Collector read methods — only safe from the async path.
		_ = c.Delivered()
		_ = c.TraceStats()
	}
	var err error
	mon, err = ocep.NewMonitor(requestResponse, ocep.WithAsyncDelivery(), ocep.WithMatchHandler(handler))
	if err != nil {
		t.Fatal(err)
	}
	c = ocep.NewCollector()
	mon.Attach(c)
	defer c.Close()
	for i := 1; i <= 40; i++ {
		typ := "request"
		if i%2 == 0 {
			typ = "response"
		}
		if err := c.Report(ocep.RawEvent{Trace: "p", Seq: i, Kind: ocep.KindInternal, Type: typ, Text: "x"}); err != nil {
			t.Fatal(err)
		}
	}
	mon.Flush()
	mu.Lock()
	got := calls
	mu.Unlock()
	if got == 0 {
		t.Fatal("handler never ran")
	}
	if got != mon.Stats().Reported {
		t.Fatalf("handler ran %d times, stats report %d", got, mon.Stats().Reported)
	}
	mon.Detach()
}

// TestMonitorSetAsyncReentrancy checks the MonitorSet variant: the set
// callback may call set read methods from the async delivery goroutines.
func TestMonitorSetAsyncReentrancy(t *testing.T) {
	var set *ocep.MonitorSet
	var mu sync.Mutex
	seen := make(map[string]int)
	set = ocep.NewMonitorSet(func(name string, m ocep.Match) {
		mu.Lock()
		seen[name]++
		mu.Unlock()
		_ = set.Stats()
		_ = set.DeliveryStats()
		_ = set.Names()
	})
	if err := set.Add("reqresp", requestResponse, ocep.WithAsyncDelivery()); err != nil {
		t.Fatal(err)
	}
	if err := set.Add("reqresp-sync", requestResponse); err != nil {
		t.Fatal(err)
	}
	c := ocep.NewCollector()
	set.Attach(c)
	defer c.Close()
	for i := 1; i <= 20; i++ {
		typ := "request"
		if i%2 == 0 {
			typ = "response"
		}
		if err := c.Report(ocep.RawEvent{Trace: "p", Seq: i, Kind: ocep.KindInternal, Type: typ, Text: "x"}); err != nil {
			t.Fatal(err)
		}
	}
	set.Flush()
	if err := set.Err(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	asyncSeen, syncSeen := seen["reqresp"], seen["reqresp-sync"]
	mu.Unlock()
	if asyncSeen == 0 {
		t.Fatal("async member never reported")
	}
	if asyncSeen != syncSeen {
		t.Fatalf("async member reported %d matches, sync member %d", asyncSeen, syncSeen)
	}
	set.Detach()
}

// cursorStream is what one batch subscriber was handed, from delivery
// position start on; got is touched only by its consumer goroutine until
// the subscription is flushed or cancelled.
type cursorStream struct {
	start int
	got   []*event.Event
	sub   *poet.Subscription
}

// TestDeliveryCursorsUnderConcurrency feeds one seeded stream with
// send/receive back-patches, under retention, to five batch subscribers
// at once: three BackpressureBlock cursors (one from the start, one
// resuming mid-stream, one cancelled mid-stream), a WithAsyncDelivery
// monitor and a raw BackpressureDrop cursor whose handler stalls until
// reporting ends. Each Block stream must be the matching slice of the
// linearization a synchronous handler recorded, the async monitor must
// report the synchronous monitor's matches, coverage and Stats (its
// search counters aside), the Drop subscriber must have been evicted
// after a gap-free prefix, and no handler may ever see retention trim
// past the event it is handed. Run it with -race -count=10.
func TestDeliveryCursorsUnderConcurrency(t *testing.T) {
	pat := workload.DeadlockPattern(2)
	raws := recordWorkload(t, deliveryCase{name: "deadlock", generate: func(sink *recordingSink) error {
		_, err := workload.GenDeadlock(workload.DeadlockConfig{
			Ranks: 6, CycleLen: 2, Rounds: 150, BugProb: 0.1, Seed: 11, Sink: sink,
		})
		return err
	}})
	want := runDeliveryMode(t, raws, pat, false)

	c := ocep.NewCollector()
	if err := c.SetRetention(64); err != nil {
		t.Fatal(err)
	}
	var lin []*event.Event // appended under the collector's lock, by Report
	c.Subscribe(func(e *event.Event) { lin = append(lin, e) })

	block := func(s *cursorStream) poet.BatchHandler {
		return func(batch []*event.Event) {
			if trimmed := c.RetentionStats().TrimmedFrom; trimmed > s.start+len(s.got) {
				t.Errorf("retention trimmed below %d while a cursor was handed event %d", trimmed, s.start+len(s.got))
			}
			s.got = append(s.got, batch...)
		}
	}
	blockOpts := poet.AsyncOptions{QueueDepth: 16, MaxBatch: 4, Policy: poet.BackpressureBlock}
	full, cancelled, resumed := &cursorStream{}, &cursorStream{}, &cursorStream{}
	full.sub = c.SubscribeBatch(block(full), blockOpts)
	cancelled.sub = c.SubscribeBatch(block(cancelled), blockOpts)
	dropped, reported := &cursorStream{}, make(chan struct{})
	dropped.sub = c.SubscribeBatch(func(batch []*event.Event) {
		<-reported // lag behind the reporter
		dropped.got = append(dropped.got, batch...)
	}, poet.AsyncOptions{QueueDepth: 4, MaxBatch: 2, Policy: poet.BackpressureDrop})

	var mu sync.Mutex
	var matches []ocep.Match
	mon, err := ocep.NewMonitor(pat, ocep.WithGuaranteedCoverage(), ocep.WithAsyncDelivery(),
		ocep.WithQueueDepth(32), ocep.WithMaxBatch(8), ocep.WithMatchHandler(func(m ocep.Match) {
			mu.Lock()
			matches = append(matches, m)
			mu.Unlock()
		}))
	if err != nil {
		t.Fatal(err)
	}
	mon.Attach(c)

	// Resume and cancel from other goroutines while reporting goes on.
	third, half := make(chan struct{}), make(chan struct{})
	atCancel := 0
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		<-third
		for {
			resumed.start = max(c.RetentionStats().TrimmedFrom, c.Delivered()-20)
			sub, err := c.SubscribeBatchReplayFrom(resumed.start, block(resumed), blockOpts)
			if err == nil {
				resumed.sub = sub
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		<-half
		atCancel = c.Delivered()
		cancelled.sub.Cancel()
	}()
	for i, raw := range raws {
		switch i {
		case len(raws) / 3:
			close(third)
		case len(raws) / 2:
			close(half)
		}
		if err := c.Report(raw); err != nil {
			t.Fatal(err)
		}
	}
	close(reported)
	wg.Wait()
	c.Flush()
	dropped.sub.Flush() // evicted: c.Flush no longer waits for it
	if err := mon.Err(); err != nil {
		t.Fatal(err)
	}
	if st := c.RetentionStats(); st.Evicted == 0 {
		t.Fatalf("retention never trimmed: %+v", st)
	}
	total := len(raws)
	if len(lin) != total {
		t.Fatalf("the synchronous handler recorded %d events, want %d", len(lin), total)
	}
	sameSlice := func(name string, s *cursorStream, want []*event.Event) {
		t.Helper()
		if len(s.got) != len(want) {
			t.Fatalf("%s cursor was handed %d events, want %d", name, len(s.got), len(want))
		}
		for i := range want {
			if s.got[i] != want[i] {
				t.Fatalf("%s cursor's event %d is %v, the linearization's %v", name, s.start+i, s.got[i], want[i])
			}
		}
	}
	sameSlice("the full", full, lin)
	if resumed.start == 0 || resumed.start >= total {
		t.Fatalf("resumed at %d of %d: not mid-stream", resumed.start, total)
	}
	sameSlice("the resumed", resumed, lin[resumed.start:])
	if n := len(cancelled.got); n < atCancel || n >= total {
		t.Fatalf("the cancelled cursor was handed %d events: want at least the %d delivered before Cancel, and not all %d", n, atCancel, total)
	}
	sameSlice("the cancelled", cancelled, lin[:len(cancelled.got)])

	sameSlice("the evicted", dropped, lin[:len(dropped.got)])
	if st := dropped.sub.Stats(); st.Dropped <= 4 || st.Enqueued != len(dropped.got) || st.Handled != st.Enqueued {
		t.Fatalf("Drop cursor stats %+v: want an eviction past depth 4 after the %d events it was handed", st, len(dropped.got))
	}

	t.Logf("%d events, %d matches; the Drop cursor was handed %d, the cancelled one %d; retention %+v",
		total, len(want.matches), len(dropped.got), len(cancelled.got), c.RetentionStats())
	mu.Lock()
	got := deliveryRun{matches: matches, coverage: mon.Coverage(), stats: mon.Stats()}
	mu.Unlock()
	if !slices.Equal(got.keys(), want.keys()) {
		t.Fatalf("the async monitor reported %d matches, the synchronous %d, or different ones", len(got.matches), len(want.matches))
	}
	if !coverageEqual(coverageSet(got.coverage), coverageSet(want.coverage)) {
		t.Fatal("the async monitor's coverage differs from the synchronous monitor's")
	}
	// DomainsComputed is search work, not a result: on some recorded
	// streams a monitor on the collector's store and one on a private
	// store compute a few domains more or less (seen before cursors too).
	got.stats.DomainsComputed = want.stats.DomainsComputed
	if got.stats != want.stats {
		t.Fatalf("async monitor stats %+v, synchronous %+v", got.stats, want.stats)
	}
	mon.Detach()
	for _, s := range []*cursorStream{full, resumed, dropped} {
		s.sub.Cancel()
	}
	c.Close()
}
