package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"ocep/internal/core"
	"ocep/internal/event"
	"ocep/internal/pattern"
	"ocep/internal/poet"
	"ocep/internal/shard"
)

// reference is what set-up computes once per input: the linearization
// and the coverage a single in-process collector and matcher produce.
// Every trial's coverage is checked against it. Coverage, not the match
// list: which matches represent a (class, trace) pair depends on the
// linearization, that the pair is covered does not, and coverage is the
// paper's contract.
type reference struct {
	pat      *pattern.Compiled
	coverage map[string]bool
	stats    core.Stats
	// store and ordered are the reference collector's stamped events,
	// kept only for the stages and probes that feed stamped events: a
	// run that does not need them should not carry them in its heap,
	// where they would stretch the garbage collector's pacing.
	store   *event.Store
	ordered []*event.Event
}

func compilePattern(src string) (*pattern.Compiled, error) {
	f, err := pattern.Parse(src)
	if err != nil {
		return nil, err
	}
	return pattern.Compile(f)
}

func computeReference(in *Input, keepStamped bool) (*reference, error) {
	pat, err := compilePattern(in.Pattern)
	if err != nil {
		return nil, fmt.Errorf("benchmark: pattern: %w", err)
	}
	c := poet.NewCollector()
	for i := range in.Events {
		if err := c.Report(in.Events[i]); err != nil {
			return nil, fmt.Errorf("benchmark: reference: event %d: %w", i, err)
		}
	}
	if !c.Drained() || c.Delivered() != len(in.Events) {
		return nil, fmt.Errorf("benchmark: reference: delivered %d of %d events, %d pending", c.Delivered(), len(in.Events), c.Pending())
	}
	store := c.Store()
	m := core.NewMatcherOn(pat, store, core.Options{})
	for _, e := range c.Ordered() {
		if _, err := m.Feed(e); err != nil {
			return nil, fmt.Errorf("benchmark: reference: feeding %v: %w", e.ID, err)
		}
	}
	ref := &reference{pat: pat, stats: m.Stats()}
	ref.coverage = coverageSet(m.Coverage(), func(t event.TraceID) (string, bool) { return store.TraceName(t), true })
	if keepStamped {
		ref.store, ref.ordered = store, c.Ordered()
	}
	return ref, nil
}

// coverageSet keys coverage by trace name: trace ids differ between a
// single collector and a striped tier, names do not.
func coverageSet(pairs []core.CoveredPair, name func(event.TraceID) (string, bool)) map[string]bool {
	set := make(map[string]bool, len(pairs))
	for _, p := range pairs {
		n, _ := name(p.Trace)
		set[fmt.Sprintf("%d/%s", p.Leaf, n)] = true
	}
	return set
}

// checkSound is the per-trial soundness check: the delivered stream is
// the reported stream, its order extends happens-before, and the
// monitor's coverage is the reference coverage.
func checkSound(in *Input, ref *reference, delivered []*event.Event, name func(event.TraceID) (string, bool), coverage []core.CoveredPair) error {
	if len(delivered) != len(in.Events) {
		return fmt.Errorf("delivered %d events, reported %d", len(delivered), len(in.Events))
	}
	var emitted []int32 // per trace id: events of that trace emitted so far
	for k, e := range delivered {
		t := int(e.ID.Trace)
		for t >= len(emitted) {
			emitted = append(emitted, 0)
		}
		n, ok := name(e.ID.Trace)
		if !ok {
			return fmt.Errorf("delivered event %d: trace %d has no name", k, t)
		}
		pos := in.pos[n]
		if e.ID.Index < 1 || e.ID.Index > len(pos) {
			return fmt.Errorf("delivered event %d: %s#%d was never reported", k, n, e.ID.Index)
		}
		if raw := in.Events[pos[e.ID.Index-1]]; raw.Type != e.Type || raw.Text != e.Text {
			return fmt.Errorf("delivered event %d: %s#%d is (%s,%s), reported as (%s,%s)", k, n, e.ID.Index, e.Type, e.Text, raw.Type, raw.Text)
		}
		var bad error
		e.VC.Range(func(u int, c int32) bool {
			switch {
			case u == t:
				if int(c) != e.ID.Index || emitted[t] != c-1 {
					bad = fmt.Errorf("delivered event %d: %s#%d out of trace order (own clock entry %d, %d emitted)", k, n, e.ID.Index, c, emitted[t])
				}
			case u >= len(emitted) || emitted[u] < c:
				bad = fmt.Errorf("delivered event %d: %s#%d emitted before its cause (trace %d event %d)", k, n, e.ID.Index, u, c)
			}
			return bad == nil
		})
		if bad != nil {
			return bad
		}
		emitted[t]++
	}
	got := coverageSet(coverage, name)
	if len(got) != len(ref.coverage) {
		return fmt.Errorf("coverage has %d pairs, reference %d", len(got), len(ref.coverage))
	}
	for k := range ref.coverage {
		if !got[k] {
			return fmt.Errorf("coverage misses reference pair %s", k)
		}
	}
	return nil
}

// tap sits between Monitor.Run and its event source. Run calls Next
// again only once the matcher has returned from the previous event, so
// the entry to Next is that event's detection time.
type tap struct {
	src  poet.EventSource
	in   *Input
	want int
	// onDone runs once, on the monitor goroutine, when the matcher has
	// returned from the want-th event.
	onDone func()

	delivered []*event.Event
	last      *event.Event

	// fedAt, when non-nil (open loop), receives per input position the
	// time the matcher returned from that event.
	fedAt []time.Time
	posOf [][]int32 // input positions by trace id, filled lazily

	// Traced runs time both halves of the loop.
	tr             *tracer
	trial, parent  int
	nextNs, feedNs int64
	lastRet        time.Time
	chunkStart     time.Time
	chunkNext      int64
	chunkFeed      int64
}

const spanChunk = 1024

func (t *tap) TraceName(id event.TraceID) (string, bool) { return t.src.TraceName(id) }

func (t *tap) position(e *event.Event) int32 {
	id := int(e.ID.Trace)
	for id >= len(t.posOf) {
		t.posOf = append(t.posOf, nil)
	}
	if t.posOf[id] == nil {
		n, _ := t.src.TraceName(e.ID.Trace)
		t.posOf[id] = t.in.pos[n]
	}
	return t.posOf[id][e.ID.Index-1]
}

func (t *tap) Next() (*event.Event, error) {
	timed := t.fedAt != nil || t.tr != nil
	var now time.Time
	if timed {
		now = time.Now()
	}
	if t.last != nil {
		if t.fedAt != nil {
			t.fedAt[t.position(t.last)] = now
		}
		if t.tr != nil {
			d := int64(now.Sub(t.lastRet))
			t.feedNs += d
			t.chunkFeed += d
			if len(t.delivered)%spanChunk == 0 || len(t.delivered) == t.want {
				mid := t.chunkStart.Add(time.Duration(t.chunkNext))
				t.tr.add("mon.next", t.trial, t.parent, t.chunkStart, mid)
				t.tr.add("mon.feed", t.trial, t.parent, mid, mid.Add(time.Duration(t.chunkFeed)))
				t.chunkStart, t.chunkNext, t.chunkFeed = now, 0, 0
			}
		}
		t.last = nil
		if len(t.delivered) == t.want {
			t.onDone()
		}
	}
	e, err := t.src.Next()
	if err != nil {
		return nil, err
	}
	t.delivered = append(t.delivered, e)
	t.last = e
	if t.tr != nil {
		ret := time.Now()
		d := int64(ret.Sub(now))
		t.nextNs += d
		t.chunkNext += d
		t.lastRet = ret
	}
	return e, nil
}

// trialMode says how one trial drives its stack.
type trialMode struct {
	// rate is the open-loop arrival rate in events/s; 0 is a closed loop.
	rate float64
	// tr, when non-nil, records spans under trial id trial.
	tr    *tracer
	trial int
	// flush waits for every reporter's acknowledgements (the workloads'
	// trials); the ladder skips it because with a 250 ms ack interval
	// the wait is the ack cadence, not work.
	flush bool
	// heap measures retained bytes (two forced collections per trial).
	heap bool
	// recover ends a durable trial by copying the data directory and
	// timing OpenDurable on the copy.
	recover bool
	// sample polls the collectors' backlog gauges every few
	// milliseconds and times every Report call.
	sample bool
	// beforeClose, when non-nil, runs on the finished trial's stack
	// while it is still up.
	beforeClose func(*stack) error
	opts        stackOpts
}

// trialResult is one trial's measurements.
type trialResult struct {
	events int
	// failed counts Report errors, events the matcher had not been fed by
	// the deadline, and — when the soundness check fails — every event.
	failed int
	sound  error
	// wall is first Report → matcher returned from the last event.
	wall time.Duration
	cpu  time.Duration
	// retained is live heap after the trial, stack still up, minus
	// before it.
	retained int64
	// mallocs is the process's heap allocation count over wall.
	mallocs uint64

	// Open loop, in milliseconds: latency percentiles per window, and
	// how late the generator ran.
	winP50, winP99 []float64
	genLagP99      float64
	unsustainable  bool

	flushWall, recoverWall time.Duration
	recovered              int
	nextNs, feedNs         int64
	reportCalls            []int64 // per-call durations, when sampling
	routerNs               int64

	pendingMax, heldMax, replLagMax int
	stats                           stackStats
}

// stackStats are the public counters of a stack at the end of a trial
// that the per-layer metrics read.
type stackStats struct {
	delivery    poet.DeliveryStats
	wire        poet.WireStats // AcksSent, VCEntriesSent, StaleEvents summed over servers
	retransmits int            // summed over reporters
	repl        poet.ReplicationStats
	shards      poet.ShardStats // Exports, RemoteSends summed over shards
	merge       shard.MergeStats
	// Bytes per link, from the counting proxies.
	reportBytes, monitorBytes, replBytes, peerBytes int64
}

// trialDeadline bounds one trial; an event not fed by then has failed.
const trialDeadline = 30 * time.Second

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func mallocCount() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// liveHeap forces two collections: what a sync.Pool held (the matcher
// pools its search state, which points at a whole store) survives one
// cycle in the pool's victim cache and is gone after the second.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// openTick is the open loop's arrival grain: every tick, the events due
// in it are reported back to back. Arrivals are bursts on purpose — a
// sleeping generator cannot space events 10 µs apart, and pretending to
// would book its own lateness as system latency.
const openTick = time.Millisecond

// openWarmup is the share of an open-loop trial's events left out of
// the latency sample: the first events pay for connection warm-up and
// heap growth, which a long-running deployment pays once.
const openWarmup = 0.1

// runTrial drives one fresh stack with in's events and tears it down.
func runTrial(kind stackKind, in *Input, ref *reference, m trialMode) (res trialResult, err error) {
	n := len(in.Events)
	res.events = n
	// Harness buffers come first so the heap baseline includes them.
	var dueAt, fedAt []time.Time
	var lags []float64
	if m.rate > 0 {
		dueAt = make([]time.Time, n)
		fedAt = make([]time.Time, n)
		lags = make([]float64, 0, 1+int(float64(n)/m.rate/openTick.Seconds()))
	}
	tp := &tap{in: in, want: n, delivered: make([]*event.Event, 0, n), fedAt: fedAt, tr: m.tr, trial: m.trial}
	if m.sample {
		res.reportCalls = make([]int64, 0, n)
	}
	var heap0 int64
	if m.heap {
		heap0 = liveHeap()
	}

	st, err := newStack(kind, in, m.opts)
	if err != nil {
		return res, fmt.Errorf("benchmark: starting stack: %w", err)
	}
	done := make(chan struct{})
	var end time.Time
	var cpu1 time.Duration
	var mallocs1 uint64
	finish := func() {
		end = time.Now()
		cpu1 = cpuTime()
		mallocs1 = mallocCount()
		close(done)
	}

	trialSpan, genSpan := 0, 0
	mallocs0 := mallocCount()
	cpu0 := cpuTime()
	start := time.Now()
	if m.tr != nil {
		trialSpan = m.tr.open("trial", m.trial, 0, start)
		genSpan = m.tr.open("gen", m.trial, trialSpan, start)
		tp.parent = m.tr.open("mon", m.trial, trialSpan, start)
		tp.chunkStart, tp.lastRet = start, start
	}
	// The monitor loop starts inside the timed interval, a few
	// microseconds in: it has nothing to receive before the first Report.
	runErr := make(chan error, 1)
	running := false
	if st.src != nil {
		tp.src, tp.onDone = st.src, finish
		running = true
		go func() { runErr <- st.mon.Run(tp) }()
	}
	defer func() {
		// Closing the clients ends the monitor loop; wait for it.
		st.close()
		if running {
			<-runErr
		}
	}()

	if m.sample {
		stop, stopped := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(stopped)
			tick := time.NewTicker(5 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					pending, held := 0, 0
					for _, c := range st.cols {
						pending += c.Pending()
						held += c.ShardStats().HeldEvents
					}
					res.pendingMax = max(res.pendingMax, pending)
					res.heldMax = max(res.heldMax, held)
					res.replLagMax = max(res.replLagMax, st.cols[0].ReplicationStats().Lag)
				}
			}
		}()
		defer func() { close(stop); <-stopped }()
	}

	// The generator. Closed loop: as fast as report accepts. Open loop:
	// on the tick grid, by due time, never by completion.
	report := st.report
	if m.sample && st.router != nil {
		report = func(e poet.RawEvent) error {
			t := time.Now()
			err := st.report(e)
			res.routerNs += int64(time.Since(t))
			return err
		}
	}
	sent := 0
	if m.rate == 0 {
		for sent < n && err == nil {
			stop := min(sent+spanChunk, n)
			chunkStart := time.Now()
			for ; sent < stop && err == nil; sent++ {
				if m.sample {
					t := time.Now()
					err = report(in.Events[sent])
					res.reportCalls = append(res.reportCalls, int64(time.Since(t)))
				} else {
					err = report(in.Events[sent])
				}
			}
			chunkEnd := time.Now()
			if m.tr != nil {
				m.tr.add("gen.report", m.trial, genSpan, chunkStart, chunkEnd)
			}
		}
	} else {
		// time.Sleep wakes up to a millisecond late on Linux (an idle P
		// parks in epoll_wait, whose timeout is whole milliseconds), which
		// on a 1 ms grid is the whole tick. nanosleep on a thread of the
		// generator's own is late by under 0.1 ms.
		runtime.LockOSThread()
		perTick := m.rate * openTick.Seconds()
		for k := 0; sent < n && err == nil; k++ {
			due := start.Add(time.Duration(k) * openTick)
			if d := time.Until(due); d > 0 {
				ts := syscall.NsecToTimespec(int64(d))
				_ = syscall.Nanosleep(&ts, nil) // an early return only shortens the wait
			}
			now := time.Now()
			lags = append(lags, float64(now.Sub(due))/1e6)
			stop := min(int(float64(k+1)*perTick), n)
			for ; sent < stop && err == nil; sent++ {
				dueAt[sent] = due
				err = report(in.Events[sent])
				if kind == stSync {
					// A synchronously attached matcher has returned from
					// the event when Report has: arrival is causal, so
					// each Report delivers exactly its own event.
					fedAt[sent] = time.Now()
				}
			}
			tickEnd := time.Now()
			if m.tr != nil {
				m.tr.add("gen.report", m.trial, genSpan, now, tickEnd)
			}
		}
		runtime.UnlockOSThread()
	}
	if err != nil {
		res.failed = n - sent
		return res, fmt.Errorf("benchmark: report %d: %w", sent, err)
	}
	genEnd := time.Now()

	// Wait for the matcher to have returned from the last event.
	deadline := time.NewTimer(trialDeadline)
	defer deadline.Stop()
	type flushResult struct {
		end time.Time
		err error
	}
	flushed := make(chan flushResult, 1)
	if m.flush && len(st.reporters) > 0 {
		go func() {
			err := st.flush()
			flushed <- flushResult{time.Now(), err}
		}()
	} else {
		flushed <- flushResult{genEnd, nil}
	}
	switch {
	case st.src != nil:
		select {
		case <-done:
		case err = <-runErr:
			running = false
			if err == nil {
				err = errors.New("event stream ended early")
			}
		case <-deadline.C:
			err = fmt.Errorf("matcher not fed all %d events after %v", n, trialDeadline)
		}
	case len(st.servers) > 0:
		// A wire stack without a monitor: ingestion is done when the
		// collectors have delivered everything.
		for st.delivered() < n && err == nil {
			select {
			case <-deadline.C:
				err = fmt.Errorf("collector delivered %d of %d events after %v", st.delivered(), n, trialDeadline)
			default:
				time.Sleep(200 * time.Microsecond)
			}
		}
		finish()
	case kind == stAsync:
		st.mon.Flush()
		finish()
	default:
		finish()
	}
	if err == nil {
		select {
		case f := <-flushed:
			err = f.err
			res.flushWall = f.end.Sub(genEnd)
			if m.tr != nil && m.flush {
				m.tr.add("gen.flush", m.trial, genSpan, genEnd, f.end)
			}
		case <-deadline.C:
			err = fmt.Errorf("reporters not acknowledged after %v", trialDeadline)
		}
	}
	if err != nil {
		res.failed = n
		return res, fmt.Errorf("benchmark: %w", err)
	}
	res.wall = end.Sub(start)
	res.cpu = cpu1 - cpu0
	res.mallocs = mallocs1 - mallocs0
	res.nextNs, res.feedNs = tp.nextNs, tp.feedNs
	if m.tr != nil {
		m.tr.finish(tp.parent, end)
		m.tr.finish(genSpan, genEnd.Add(res.flushWall))
		trialEnd := end
		if flushEnd := genEnd.Add(res.flushWall); flushEnd.After(trialEnd) {
			trialEnd = flushEnd
		}
		m.tr.finish(trialSpan, trialEnd)
	}
	if m.heap {
		res.retained = liveHeap() - heap0
	}

	// Correctness: delivered stream, order, coverage.
	delivered, name := tp.delivered, tp.TraceName
	if st.src == nil {
		c := st.cols[0]
		delivered = c.Ordered()
		name = func(t event.TraceID) (string, bool) { return c.Store().TraceName(t), true }
	}
	if st.mon != nil {
		if merr := st.mon.Err(); merr != nil {
			res.sound = merr
		} else {
			res.sound = checkSound(in, ref, delivered, name, st.mon.Coverage())
		}
	} else if got := st.delivered(); got != n {
		res.sound = fmt.Errorf("delivered %d events, reported %d", got, n)
	}
	if ms := st.merged; ms != nil && res.sound == nil {
		if s := ms.MergeStats(); s.Wedges != 0 || s.Incomplete != 0 {
			res.sound = fmt.Errorf("merge reported %d wedges, %d causally incomplete events", s.Wedges, s.Incomplete)
		}
	}
	if m.recover && st.durable != nil && res.sound == nil {
		res.recoverWall, res.recovered, res.sound = st.recoverCopy(m, trialSpan)
		if res.sound == nil && res.recovered != st.cols[0].Delivered() {
			res.sound = fmt.Errorf("recovery rebuilt %d events, collector delivered %d", res.recovered, st.cols[0].Delivered())
		}
	}
	if res.sound != nil {
		res.failed = n
	}

	if m.rate > 0 {
		res.summarizeOpen(dueAt, fedAt, lags)
	}
	res.stats = st.stats()
	if m.beforeClose != nil && res.sound == nil {
		res.sound = m.beforeClose(st)
	}
	return res, nil
}

// backlogShare is the share of an open-loop trial's arrival phase by
// which its last event may be late before the rate counts as
// unsustainable.
const backlogShare = 0.1

// openWindow is the length of the windows, by arrival order, an
// open-loop trial's latency sample is cut into. The run's percentiles
// are medians over windows, so an exceptional stall sets one window's
// number and not the run's. A window is long next to the stalls that
// recur — a garbage collection every few hundred milliseconds, an fsync
// every hundred — so every window's tail holds its share of those.
const openWindow = 500 * time.Millisecond

// summarizeOpen turns an open-loop trial's stamps into per-window
// latency percentiles and decides whether the rate was sustained.
func (res *trialResult) summarizeOpen(dueAt, fedAt []time.Time, lags []float64) {
	n := len(dueAt)
	skip := int(openWarmup * float64(n))
	lat := make([]float64, 0, n-skip)
	for i := skip; i < n; i++ {
		lat = append(lat, float64(fedAt[i].Sub(dueAt[i]))/1e6)
	}
	windows := max(1, int(dueAt[n-1].Sub(dueAt[skip])/openWindow))
	width := len(lat) / windows
	for k := 0; k < windows; k++ {
		win := sortedCopy(lat[k*width : (k+1)*width])
		res.winP50 = append(res.winP50, quantile(win, 0.50))
		res.winP99 = append(res.winP99, quantile(win, 0.99))
	}
	// A rate the stack cannot sustain leaves a backlog when arrivals
	// stop: the matcher returns from the last event long after it was
	// due. A tenth of the arrival phase is the line — a stall near the
	// end drains well inside it, an overloaded stack does not.
	limit := float64(dueAt[n-1].Sub(dueAt[0])) / 1e6 * backlogShare
	if lat[len(lat)-1] > limit {
		res.unsustainable = true
		for _, l := range lat {
			if l > limit {
				res.failed++
			}
		}
	}
	sort.Float64s(lags)
	res.genLagP99 = quantile(lags, 0.99)
}

// recoverCopy makes the WAL durable, copies the data directory as a
// crash would leave it, and times OpenDurable on the copy.
func (s *stack) recoverCopy(m trialMode, parent int) (time.Duration, int, error) {
	if err := s.durable.Sync(); err != nil {
		return 0, 0, err
	}
	dir, err := os.MkdirTemp(m.opts.dir, "crash-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	if err := copyDir(s.dataDir, dir); err != nil {
		return 0, 0, err
	}
	c := poet.NewCollector()
	start := time.Now()
	d, err := poet.OpenDurable(c, poet.DurableOptions{
		Dir: dir, Fsync: poet.SyncInterval, FsyncInterval: fsyncInterval, SnapshotEvery: -1,
	})
	end := time.Now()
	if err != nil {
		return 0, 0, fmt.Errorf("recovery: %w", err)
	}
	if m.tr != nil {
		m.tr.add("recover", m.trial, parent, start, end)
	}
	rec := d.Recovery()
	_ = d.Close() // closes the copy's log; the copy is deleted next
	c.Close()
	if rec.DiscardedRecords != 0 || rec.RejectedRecords != 0 {
		return 0, 0, fmt.Errorf("recovery discarded %d and rejected %d WAL records", rec.DiscardedRecords, rec.RejectedRecords)
	}
	return end.Sub(start), rec.Delivered, nil
}

func copyDir(from, to string) error {
	entries, err := os.ReadDir(from)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		if err := copyFile(filepath.Join(from, ent.Name()), filepath.Join(to, ent.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(from, to string) error {
	src, err := os.Open(from)
	if err != nil {
		return err
	}
	defer src.Close()
	dst, err := os.Create(to)
	if err != nil {
		return err
	}
	if _, err := io.Copy(dst, src); err != nil {
		dst.Close()
		return err
	}
	return dst.Close()
}

func dirBytes(dir string) int64 {
	var n int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	for _, ent := range entries {
		if info, err := ent.Info(); err == nil {
			n += info.Size()
		}
	}
	return n
}

// stats snapshots the stack's public counters.
func (s *stack) stats() stackStats {
	var out stackStats
	if s.mon != nil {
		out.delivery = s.mon.DeliveryStats()
	}
	for _, srv := range s.servers {
		w := srv.WireStats()
		out.wire.AcksSent += w.AcksSent
		out.wire.VCEntriesSent += w.VCEntriesSent
		out.wire.StaleEvents += w.StaleEvents
	}
	for _, r := range s.reporters {
		out.retransmits += r.Stats().Retransmits
	}
	out.repl = s.cols[0].ReplicationStats()
	for _, c := range s.cols {
		ss := c.ShardStats()
		out.shards.Exports += ss.Exports
		out.shards.RemoteSends += ss.RemoteSends
	}
	if s.merged != nil {
		out.merge = s.merged.MergeStats()
	}
	out.reportBytes = proxyBytes(s.reportProxies)
	out.monitorBytes = proxyBytes(s.monitorProxies)
	out.peerBytes = proxyBytes(s.peerProxies)
	out.replBytes = proxyBytes(s.replProxies)
	return out
}
