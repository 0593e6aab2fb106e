package poet_test

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"ocep/internal/event"
	"ocep/internal/event/eventtest"
	"ocep/internal/poet"
	"ocep/internal/vclock"
	"ocep/internal/workload"
)

// recorder is a generator sink that keeps the stream it is handed.
type recorder struct {
	mu   sync.Mutex
	raws []poet.RawEvent
}

func (r *recorder) Report(raw poet.RawEvent) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.raws = append(r.raws, raw)
	return nil
}

// caseStudyStreams records one small run of each of the paper's four
// case-study generators, in the order its goroutines happened to report.
func caseStudyStreams(t *testing.T) [][]poet.RawEvent {
	t.Helper()
	var out [][]poet.RawEvent
	for _, gen := range []func(*recorder) error{
		func(r *recorder) error {
			_, err := workload.GenDeadlock(workload.DeadlockConfig{Ranks: 6, CycleLen: 3, Rounds: 12, BugProb: 0.1, Seed: 1, Sink: r})
			return err
		},
		func(r *recorder) error {
			_, err := workload.GenMsgRace(workload.MsgRaceConfig{Ranks: 5, Waves: 12, Sink: r})
			return err
		},
		func(r *recorder) error {
			_, err := workload.GenAtomicity(workload.AtomicityConfig{Threads: 4, Iterations: 10, BugProb: 0.1, Seed: 4, Sink: r})
			return err
		},
		func(r *recorder) error {
			_, err := workload.GenReplication(workload.ReplicationConfig{Followers: 4, UpdatesPerSession: 3, BugProb: 0.4, Seed: 6, Sink: r})
			return err
		},
	} {
		var r recorder
		if err := gen(&r); err != nil {
			t.Fatal(err)
		}
		if len(r.raws) > 400 {
			r.raws = r.raws[:400] // a prefix is a computation too: its last receives stay parked
		}
		out = append(out, r.raws)
	}
	return out
}

// syntheticStream is a random computation over a few traces: sends,
// their receives some events later, internal events.
func syntheticStream(rng *rand.Rand) []poet.RawEvent {
	traces, n := 2+rng.Intn(5), 40+rng.Intn(160)
	seq := make([]int, traces)
	type inFlight struct {
		msg uint64
		dst int
	}
	var open []inFlight
	var msg uint64
	var raws []poet.RawEvent
	emit := func(tr int, kind event.Kind, id uint64) {
		seq[tr]++
		raws = append(raws, poet.RawEvent{Trace: fmt.Sprintf("p%d", tr), Seq: seq[tr], Kind: kind, Type: "e", MsgID: id})
	}
	for len(raws) < n {
		tr := rng.Intn(traces)
		switch r := rng.Float64(); {
		case r < 0.35:
			msg++
			kind := event.KindSend
			if rng.Intn(4) == 0 {
				kind = event.KindSyncRelease
			}
			emit(tr, kind, msg)
			open = append(open, inFlight{msg, (tr + 1 + rng.Intn(traces-1)) % traces})
		case r < 0.7 && len(open) > 0:
			i := rng.Intn(len(open))
			emit(open[i].dst, event.KindReceive, open[i].msg)
			open = append(open[:i], open[i+1:]...)
		default:
			emit(tr, event.KindInternal, 0)
		}
	}
	return raws
}

// perturb turns a stream into one of the orders a collector must absorb:
// as generated, every receive ahead of its send, bursts reported in
// reverse, a full shuffle — then sprinkled with what reporters and bugs
// add: retransmitted duplicates, Seq 0, stale sequence numbers, a
// message id sent twice, a receive with no message id.
func perturb(rng *rand.Rand, base []poet.RawEvent) []poet.RawEvent {
	raws := append([]poet.RawEvent(nil), base...)
	switch rng.Intn(5) {
	case 0: // as generated
	case 1: // receives first: each receive moves ahead of its send
		at := make(map[uint64]int)
		for i := 0; i < len(raws); i++ {
			if r := raws[i]; r.Kind == event.KindSend || r.Kind == event.KindSyncRelease {
				at[r.MsgID] = i
			} else if s, ok := at[r.MsgID]; ok && r.MsgID != 0 {
				copy(raws[s+1:i+1], raws[s:i])
				raws[s] = r
			}
		}
	case 2: // bursts in reverse
		for i := 0; i < len(raws); {
			n := min(1+rng.Intn(12), len(raws)-i)
			for a, b := i, i+n-1; a < b; a, b = a+1, b-1 {
				raws[a], raws[b] = raws[b], raws[a]
			}
			i += n
		}
	case 3: // full shuffle
		rng.Shuffle(len(raws), func(i, j int) { raws[i], raws[j] = raws[j], raws[i] })
	case 4: // local shuffle: every event within a few places of where it was
		for i := range raws {
			j := min(i+rng.Intn(6), len(raws)-1)
			raws[i], raws[j] = raws[j], raws[i]
		}
	}
	for extra := rng.Intn(len(raws)/8 + 1); extra > 0; extra-- {
		r := raws[rng.Intn(len(raws))]
		switch rng.Intn(5) {
		case 0: // a retransmission, anywhere
		case 1:
			r.Seq = 0
		case 2:
			r.Seq = max(1, r.Seq-1-rng.Intn(3))
			r.Type = "stale"
		case 3: // a second sender for a message id already in the stream
			r.Kind, r.Seq, r.MsgID = event.KindSend, r.Seq+1000+extra, 1+uint64(rng.Intn(8))
		case 4:
			r.Kind, r.MsgID, r.Seq = event.KindReceive, 0, r.Seq+2000+extra
		}
		at := rng.Intn(len(raws) + 1)
		raws = append(raws[:at], append([]poet.RawEvent{r}, raws[at:]...)...)
	}
	return raws
}

// ingest is how one side of the differential takes an order in, and
// reads back what it holds.
type ingest struct {
	report  func(poet.RawEvent) error
	supply  func(uint64, event.ID, vclock.Stamp) error
	pending func() int
	ackFor  func(string) int
}

func collectorSide(c *poet.Collector) ingest {
	return ingest{c.Report, c.SupplyRemoteSend, c.Pending, c.AckFor}
}

func refSide(waitersFirst bool) func(*poet.Collector) ingest {
	return func(c *poet.Collector) ingest {
		r := poet.NewRef(c)
		return ingest{func(raw poet.RawEvent) error { return r.Report(raw, waitersFirst) }, r.SupplyRemoteSend, r.Pending, r.AckFor}
	}
}

const (
	modePlain = iota
	modeAdmission
	modeSharded
	numModes
)

// run feeds one order to a fresh collector through side and returns the
// collector, the side, and the per-call log: every call and the error it
// returned.
func run(t *testing.T, mode int, order []poet.RawEvent, side func(*poet.Collector) ingest) (*poet.Collector, ingest, []string) {
	t.Helper()
	c := poet.NewCollector()
	var log []string
	call := func(what string, err error) error {
		log = append(log, fmt.Sprintf("%s: %v", what, err))
		return err
	}
	switch mode {
	case modeAdmission:
		c.SetAdmissionLimit(2)
	case modeSharded:
		if err := c.EnableSharding(0, 2); err != nil {
			t.Fatal(err)
		}
	}
	in := side(c)
	report := func(r poet.RawEvent) error {
		return call(fmt.Sprintf("%s/%d k%d m%d", r.Trace, r.Seq, r.Kind, r.MsgID), in.report(r))
	}
	switch mode {
	case modePlain:
		for _, r := range order {
			_ = report(r)
		}
	case modeAdmission:
		// A reporter keeps what was refused and retransmits it, oldest
		// first, whenever something newer got in.
		var refused []poet.RawEvent
		retry := func() {
			for progress := true; progress; {
				progress = false
				kept := refused[:0]
				for _, r := range refused {
					if err := report(r); errors.Is(err, poet.ErrOverloaded) {
						kept = append(kept, r)
					} else {
						progress = progress || err == nil
					}
				}
				refused = kept
			}
		}
		for _, r := range order {
			if err := report(r); errors.Is(err, poet.ErrOverloaded) {
				refused = append(refused, r)
			} else if err == nil {
				retry()
			}
		}
	case modeSharded:
		// Every second trace, in order of first appearance, lives on the
		// peer shard: its events never reach this collector, its sends
		// arrive as export records at the place of the stream where they
		// were sent.
		onPeer := make(map[string]bool)
		remote := func(trace string) bool {
			if _, seen := onPeer[trace]; !seen {
				onPeer[trace] = len(onPeer)%2 == 1
			}
			return onPeer[trace]
		}
		exported := 0
		for _, r := range order {
			switch {
			case !remote(r.Trace):
				_ = report(r)
			case r.MsgID != 0 && (r.Kind == event.KindSend || r.Kind == event.KindSyncRelease):
				exported++
				id := event.ID{Trace: 1, Index: exported}
				_ = call(fmt.Sprintf("supply m%d", r.MsgID), in.supply(r.MsgID, id, vclock.VC{0, int32(exported)}.Stamp(1)))
			}
		}
	}
	return c, in, log
}

// state renders everything the issue's contract names: the linearization
// with stamps and partners, what is still buffered, the ack position of
// every trace, the ingest count.
func state(c *poet.Collector, in ingest) []string {
	var out []string
	for _, e := range c.Ordered() {
		out = append(out, fmt.Sprintf("%v k%d vc=%v p=%v", e.ID, e.Kind, e.VC, e.Partner))
	}
	out = append(out, fmt.Sprintf("pending %d ingested %d", in.pending(), c.IngestCount()))
	for _, ts := range c.TraceStats() {
		out = append(out, fmt.Sprintf("ack %s=%d", ts.Name, in.ackFor(ts.Name)))
	}
	return out
}

func firstDiff(a, b []string) string {
	for i := 0; i < len(a) || i < len(b); i++ {
		var x, y string
		if i < len(a) {
			x = a[i]
		}
		if i < len(b) {
			y = b[i]
		}
		if x != y {
			return fmt.Sprintf("at %d:\n  reference: %s\n  other:     %s", i, x, y)
		}
	}
	return ""
}

// differential runs every order through the reference and through other,
// in every mode, and returns the number of orders run, how many of the
// reference side's calls ended in each outcome the orders are meant to
// provoke, and a description of the first order on which the two sides
// disagree ("" when they never do).
func differential(t *testing.T, orders int, other func(*poet.Collector) ingest) (ran int, coverage map[string]int, diff string) {
	t.Helper()
	coverage = map[string]int{"<nil>": 0, "overloaded": 0, "supply": 0, "already delivered": 0,
		"already buffered": 0, "has sequence 0": 0, "duplicate message id": 0, "no message id": 0}
	reference := refSide(false)
	bases := caseStudyStreams(t)
	for seed := 0; ran < orders; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		base := syntheticStream(rng)
		if seed%3 == 0 {
			base = bases[seed/3%len(bases)]
		}
		order := perturb(rng, base)
		for mode := 0; mode < numModes; mode++ {
			wantC, wantIn, wantLog := run(t, mode, order, reference)
			gotC, gotIn, gotLog := run(t, mode, order, other)
			ran++
			for _, line := range wantLog {
				for what := range coverage {
					if strings.Contains(line, what) {
						coverage[what]++
					}
				}
			}
			d := firstDiff(wantLog, gotLog)
			if d == "" {
				d = firstDiff(state(wantC, wantIn), state(gotC, gotIn))
			}
			if d == "" && mode != modeSharded {
				// The two sides share deliver: hold the stamps to a replay
				// that shares nothing with it. (Sharded, the partners of the
				// supplied sends are not in the stream.)
				if err := eventtest.CheckStamps(gotC.Ordered()); err != nil {
					d = err.Error()
				}
			}
			if d != "" {
				// The case-study recordings differ from run to run: keep
				// the order that failed.
				return ran, coverage, fmt.Sprintf("seed %d mode %d diverges %s\norder: %+v", seed, mode, d, order)
			}
		}
	}
	return ran, coverage, ""
}

// TestLinearizationMatchesReference: whichever way an event enters —
// delivered on arrival, or buffered and drained — every call returns the
// error, and the collector ends in the state, that the path through
// pending[t] gives: same linearization, stamps, partners, buffered
// count, acks, ingest count. Over the case-study generators and
// synthetic scripts, plain, under admission control with retries, and
// sharded with peer sends supplied.
func TestLinearizationMatchesReference(t *testing.T) {
	t.Run("orders", func(t *testing.T) {
		const orders = 2400
		ran, coverage, diff := differential(t, orders, collectorSide)
		if diff != "" {
			t.Fatal(diff)
		}
		if ran < orders {
			t.Fatalf("ran %d orders, want %d", ran, orders)
		}
		t.Logf("%d orders; calls by outcome: %v", ran, coverage)
		for what, n := range coverage {
			if n < 100 {
				t.Errorf("only %d calls of %d orders ended in %q: the orders no longer provoke it", n, ran, what)
			}
		}
	})
	t.Run("deep backlog/plain", func(t *testing.T) { deepBacklog(t, modePlain) })
	t.Run("deep backlog/sharded", func(t *testing.T) { deepBacklog(t, modeSharded) })
}

// deepBacklog holds trace p1 backlogDepth deep behind its first event, a
// receive whose send p0/1 is reported last — after p0's receives of
// p1's sends, which wait behind it in turn. Sharded, p0 lives on the peer
// shard and the release is its export record. Both sides must agree
// while held and once released; then the queue must have let go of the
// backlog: the collector retains what one whose receive was released at
// once does.
func deepBacklog(t *testing.T, mode int) {
	const backlogDepth = 3000
	var held []poet.RawEvent
	for seq := 1; seq <= backlogDepth; seq++ {
		r := poet.RawEvent{Trace: "p1", Seq: seq, Kind: event.KindInternal, Type: "e"}
		switch {
		case seq == 1:
			r.Kind, r.MsgID = event.KindReceive, 1
		case seq%10 == 0:
			r.Kind, r.MsgID = event.KindSend, uint64(1000+seq)
		}
		held = append(held, r)
	}
	sends := backlogDepth / 10
	for j := 1; j <= sends; j++ {
		held = append(held, poet.RawEvent{Trace: "p0", Seq: j + 1, Kind: event.KindReceive, Type: "e", MsgID: uint64(1000 + 10*j)})
	}
	release := poet.RawEvent{Trace: "p0", Seq: 1, Kind: event.KindSend, Type: "e", MsgID: 1}
	full := append(append([]poet.RawEvent(nil), held...), release)
	// Sharded, p0's events never reach this collector: its receives are
	// not reported, its send is supplied.
	wantHeld, wantDelivered := backlogDepth, backlogDepth
	if mode == modePlain {
		wantHeld, wantDelivered = backlogDepth+sends, backlogDepth+sends+1
	}
	for _, tc := range []struct {
		order              []poet.RawEvent
		pending, delivered int
	}{{held, wantHeld, 0}, {full, 0, wantDelivered}} {
		wantC, wantIn, wantLog := run(t, mode, tc.order, refSide(false))
		gotC, gotIn, gotLog := run(t, mode, tc.order, collectorSide)
		if d := firstDiff(append(wantLog, state(wantC, wantIn)...), append(gotLog, state(gotC, gotIn)...)); d != "" {
			t.Fatalf("%d events in, the sides diverge %s", len(tc.order), d)
		}
		if n, ack, got := gotIn.pending(), gotIn.ackFor("p1"), len(gotC.Ordered()); n != tc.pending || ack != backlogDepth || got != tc.delivered {
			t.Fatalf("%d events in: %d pending, p1 acked to %d, %d delivered; want %d, %d, %d",
				len(tc.order), n, ack, got, tc.pending, backlogDepth, tc.delivered)
		}
	}
	retained := func(order []poet.RawEvent) int64 {
		before, _ := poet.LiveHeap()
		c, _, _ := run(t, mode, order, collectorSide)
		after, _ := poet.LiveHeap()
		runtime.KeepAlive(c)
		return after - before
	}
	if _, ok := poet.LiveHeap(); !ok {
		return
	}
	// p1 first, so the sharded run homes the same trace here.
	released := append([]poet.RawEvent{held[0], release}, held[1:]...)
	backlogged, inOrder := retained(full), retained(released)
	t.Logf("retained after the backlog drained: %d B, released at once: %d B", backlogged, inOrder)
	if backlogged > inOrder+16<<10 {
		t.Fatalf("a drained %d-deep backlog leaves %d B more live than one released at once", backlogDepth, backlogged-inOrder)
	}
}

// TestCheckStampsCatchesSharedJoin is the stamp oracle's own check: a
// collector that shares its trace's join clock across a receive — every
// stamp its trace predecessor's, ticked — is the plausible way to build
// shared stamps wrong, and CheckStamps must refuse the stream it
// delivers at seed 0 of the differential's synthetic orders.
func TestCheckStampsCatchesSharedJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(0))
	c, _, _ := run(t, modePlain, perturb(rng, syntheticStream(rng)), collectorSide)
	if err := eventtest.CheckStamps(c.Ordered()); err != nil {
		t.Fatalf("the collector's own stream: %v", err)
	}
	var last []vclock.Stamp
	var mutant []*event.Event
	for _, e := range c.Ordered() {
		tr := int(e.ID.Trace)
		for tr >= len(last) {
			last = append(last, vclock.Stamp{})
		}
		cp := *e
		cp.VC = last[tr].Tick(tr)
		last[tr] = cp.VC
		mutant = append(mutant, &cp)
	}
	err := eventtest.CheckStamps(mutant)
	if err == nil {
		t.Fatal("a stream whose receives share their trace's join clock passed CheckStamps")
	}
	t.Logf("caught: %v", err)
}

// TestLinearizationDifferentialCatchesWaitersFirst is the differential's
// own check: a fast path that wakes the receives parked on a send before
// the sender's buffered successors is the plausible way to build it
// wrong, and must not pass.
func TestLinearizationDifferentialCatchesWaitersFirst(t *testing.T) {
	ran, _, diff := differential(t, 2400, refSide(true))
	if diff == "" {
		t.Fatalf("%d orders do not tell a waiters-first fast path from the reference", ran)
	}
	t.Logf("caught after %d orders: %.200s", ran, diff)
}
