package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"ocep"
	"ocep/internal/core"
	"ocep/internal/event"
	"ocep/internal/poet"
	"ocep/internal/telemetry"
	"ocep/internal/wal"
)

// layerMetric is one per-layer metric as BENCHMARK.json lists it.
// Per-layer metrics carry no bound.
type layerMetric struct {
	Name   string
	Unit   string
	Higher bool // higher is better
}

// stageNames are the cumulative ladder: each stage is the deployment of
// the stage it is based on plus one layer. The ladder forks after s5:
// s6 and s7 add durability and a standby, s8 adds sharding to s5.
var stageNames = []string{
	"s0-matcher", "s1-dispatcher", "s2-collector", "s3-sync-attach", "s4-async-delivery",
	"s5-wire", "s6-wal-interval", "s7-standby", "s8-2shard-merged",
}

// stageBase[i] is the stage that stage i adds a layer to; -1 starts a
// chain, and the stage's delta is then its whole cost.
var stageBase = []int{-1, 0, -1, 2, 3, 4, 5, 6, 5}

// Auxiliary ladder entries, measured in the same sweeps but reported
// under their own names.
const (
	auxOwnStore  = 9  // core.NewMatcher (own store).Feed on stamped events
	auxMonFeed   = 10 // ocep.Monitor.Feed on stamped events
	auxTelemetry = 11 // s5 with a telemetry registry on every component
	ladderSlots  = 12
)

// layerRun accumulates one traced run's per-layer metrics.
type layerRun struct {
	r   *runResult
	log io.Writer
	dir string
}

func (l *layerRun) set(name, unit string, v float64) { l.r.Metrics[name] = one(unit, v) }

// setOf records the median of samples with their quartiles; the
// samples themselves are kept only for the gated metrics.
func (l *layerRun) setOf(name, unit string, samples []float64) {
	if len(samples) > 0 {
		m := of(unit, samples)
		m.Trials = nil
		l.r.Metrics[name] = m
	}
}

func per(total float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// runLayers is the traced run of one workload. Part one repeats the
// workload's closed-loop trial with spans on and off, and one open-loop
// trial with spans on. Part two runs the stage ladder and the layer
// probes on a smaller input of the same shape.
func runLayers(w *workload, seed int64, seconds float64, scratch, outDir string, log io.Writer) (*runResult, error) {
	begin := time.Now()
	budget := time.Duration(seconds * float64(time.Second))
	in, ref, err := setUp(w, seed, scratch)
	if err != nil {
		return nil, err
	}
	r := &runResult{
		Workload: w.Name, Seed: seed, Trace: true, Seconds: seconds, Correct: true,
		InputSHA256: in.SHA256(), InputEvents: len(in.Events), Metrics: map[string]metric{},
	}
	l := &layerRun{r: r, log: log, dir: scratch}
	fmt.Fprintf(log, "%s (traced): seed %d, %d events, sha256 %s\n", w.Name, seed, len(in.Events), r.InputSHA256)

	tr := newTracer()
	if err := l.tracedTrials(w, in, ref, tr, begin, budget); err != nil {
		return r, err
	}
	path := filepath.Join(outDir, "trace_"+w.Name+".json")
	if err := tr.write(path); err != nil {
		return r, err
	}
	fmt.Fprintf(log, "  %d spans written to %s\n", len(tr.spans), path)

	lin := w.gen(seed, ladderEvents)
	lref, err := computeReference(lin, true)
	if err != nil {
		return r, err
	}
	fmt.Fprintf(log, "  ladder input: %d events, sha256 %s\n", len(lin.Events), lin.SHA256())
	if err := l.probes(lin, lref); err != nil {
		return r, err
	}
	if err := l.census(lin, lref); err != nil {
		return r, err
	}
	if err := l.ladder(lin, lref, begin, budget); err != nil {
		return r, err
	}
	for _, m := range perLayer {
		if _, ok := r.Metrics[m.Name]; !ok {
			// Not applicable to this workload's deployment (for example the
			// monitor loop of an in-process monitor): reported as zero so
			// that every run lists every metric.
			l.set(m.Name, m.Unit, 0)
		}
	}
	return r, nil
}

// tracedTrials runs the workload's own deployment with spans.
func (l *layerRun) tracedTrials(w *workload, in *Input, ref *reference, tr *tracer, begin time.Time, budget time.Duration) error {
	base := trialMode{flush: true, recover: true, opts: stackOpts{dir: l.dir}}
	res, err := runTrial(w.Kind, in, ref, base)
	l.r.account(res, err, "warm-up trial", l.log)

	var plain, traced, genShare, nextShare, feedShare, genCover, monCover []float64
	trial := 0
	for pair := 0; pair < 2 || (pair < 4 && time.Since(begin) < budget*3/10); pair++ {
		for k := 0; k < 2; k++ {
			// Alternate which side of the pair goes first.
			if withSpans := (pair+k)%2 == 1; !withSpans {
				res, err := runTrial(w.Kind, in, ref, base)
				if l.r.account(res, err, "untraced trial", l.log) {
					plain = append(plain, float64(res.events)/res.wall.Seconds())
				}
				continue
			}
			trial++
			m := base
			m.tr, m.trial = tr, trial
			res, err := runTrial(w.Kind, in, ref, m)
			if !l.r.account(res, err, "traced trial", l.log) {
				continue
			}
			traced = append(traced, float64(res.events)/res.wall.Seconds())
			self := tr.selfTimes(trial)
			gen, mon := tr.total("gen", trial), tr.total("mon", trial)
			genShare = append(genShare, float64(self["gen.report"])/float64(res.wall))
			genCover = append(genCover, 100*float64(self["gen.report"]+self["gen.flush"])/float64(gen))
			if res.nextNs+res.feedNs > 0 {
				nextShare = append(nextShare, float64(self["mon.next"])/float64(mon))
				feedShare = append(feedShare, float64(self["mon.feed"])/float64(mon))
				monCover = append(monCover, 100*float64(self["mon.next"]+self["mon.feed"])/float64(mon))
			}
		}
	}
	if len(plain) == 0 || len(traced) == 0 {
		return fmt.Errorf("benchmark: %s: no traced trial completed", w.Name)
	}
	l.setOf("gen.report_share", "ratio", genShare)
	l.setOf("mon.next_wait_share", "ratio", nextShare)
	l.setOf("mon.feed_share", "ratio", feedShare)
	l.setOf("trace.gen_cover_pct", "%", genCover)
	l.setOf("trace.mon_cover_pct", "%", monCover)
	l.set("trace.overhead_pct", "%", 100*(1-median(traced)/median(plain)))
	l.setOf("trace.events_per_s", "ev/s", traced)

	trial++
	open := base
	open.rate, open.recover, open.tr, open.trial = w.Rate, false, tr, trial
	res, err = runTrial(w.Kind, in, ref, open)
	if l.r.account(res, err, "traced open trial", l.log) {
		l.set("gen.lag_ms_p99", "ms", res.genLagP99)
		l.setOf("latency.detect_ms_p50", "ms", res.winP50)
		l.setOf("latency.detect_ms_p99", "ms", res.winP99)
	}
	return nil
}

// trial runs one ladder or census trial and books it; a trial that
// fails, or fails its soundness check, ends the traced run.
func (l *layerRun) trial(kind stackKind, in *Input, ref *reference, m trialMode, what string) (trialResult, error) {
	m.opts.dir = l.dir
	res, err := runTrial(kind, in, ref, m)
	if !l.r.account(res, err, what, l.log) {
		return res, fmt.Errorf("benchmark: %s failed", what)
	}
	return res, nil
}

// feedAll feeds the reference linearization through feed rounds times,
// each round on a fresh consumer from fresh, and returns ns and heap
// allocations per event.
func feedAll(ref *reference, rounds int, fresh func() (feed func(*event.Event) error, err error)) (ns, allocs float64, err error) {
	var elapsed time.Duration
	var mallocs uint64
	for i := 0; i < rounds; i++ {
		feed, err := fresh()
		if err != nil {
			return 0, 0, err
		}
		m0 := mallocCount()
		start := time.Now()
		for _, e := range ref.ordered {
			if err := feed(e); err != nil {
				return 0, 0, err
			}
		}
		elapsed += time.Since(start)
		mallocs += mallocCount() - m0
	}
	n := rounds * len(ref.ordered)
	return per(float64(elapsed.Nanoseconds()), n), per(float64(mallocs), n), nil
}

// inProcessRounds repeats the in-process stages, which finish in a few
// milliseconds, so their timings are not all timer noise.
const inProcessRounds = 3

// stage runs ladder entry i once and returns ns and allocations per
// event. The soundness check of runTrial applies to every trial stage.
func (l *layerRun) stage(i int, in *Input, ref *reference, dispatchSkip *float64) (ns, allocs float64, err error) {
	trial := func(kind stackKind, opts stackOpts) (float64, float64, error) {
		res, err := l.trial(kind, in, ref, trialMode{opts: opts}, "ladder stage "+stageLabel(i))
		return per(float64(res.wall.Nanoseconds()), res.events), per(float64(res.mallocs), res.events), err
	}
	switch i {
	case 0:
		return feedAll(ref, inProcessRounds, func() (func(*event.Event) error, error) {
			m := core.NewMatcherOn(ref.pat, ref.store, core.Options{})
			return func(e *event.Event) error { _, err := m.Feed(e); return err }, nil
		})
	case 1:
		var d *core.Dispatcher
		ns, allocs, err = feedAll(ref, inProcessRounds, func() (func(*event.Event) error, error) {
			d = core.NewDispatcher(ref.store)
			d.Add(core.NewMatcherOn(ref.pat, ref.store, core.Options{}), nil)
			return d.Feed, nil
		})
		if st := d.Stats(); err == nil && st.Visited+st.Skipped > 0 {
			*dispatchSkip = float64(st.Skipped) / float64(st.Visited+st.Skipped)
		}
		return ns, allocs, err
	case 2:
		return trial(stCollector, stackOpts{})
	case 3:
		return trial(stSync, stackOpts{})
	case 4:
		return trial(stAsync, stackOpts{})
	case 5:
		return trial(stWire, stackOpts{})
	case 6:
		return trial(stWAL, stackOpts{})
	case 7:
		return trial(stStandby, stackOpts{})
	case 8:
		return trial(stShard, stackOpts{})
	case auxOwnStore:
		return feedAll(ref, inProcessRounds, func() (func(*event.Event) error, error) {
			m := core.NewMatcher(ref.pat, core.Options{})
			for t := 0; t < ref.store.NumTraces(); t++ {
				m.RegisterTrace(ref.store.TraceName(event.TraceID(t)))
			}
			return func(e *event.Event) error { _, err := m.Feed(e); return err }, nil
		})
	case auxMonFeed:
		return feedAll(ref, inProcessRounds, func() (func(*event.Event) error, error) {
			m, err := ocep.NewMonitor(in.Pattern)
			if err != nil {
				return nil, err
			}
			for t := 0; t < ref.store.NumTraces(); t++ {
				m.RegisterTrace(ref.store.TraceName(event.TraceID(t)))
			}
			return func(e *event.Event) error { _, err := m.Feed(e); return err }, nil
		})
	case auxTelemetry:
		return trial(stWire, stackOpts{reg: telemetry.NewRegistry()})
	}
	return 0, 0, fmt.Errorf("benchmark: no ladder stage %d", i)
}

func stageLabel(i int) string {
	switch i {
	case auxOwnStore:
		return "matcher-own-store"
	case auxMonFeed:
		return "monitor-feed"
	case auxTelemetry:
		return "s5-wire+telemetry"
	}
	return stageNames[i]
}

// ladder sweeps the stages, alternating direction so drift over a sweep
// does not favour one end, until the run's time is spent; at least three
// sweeps after one discarded warm-up sweep. A layer's cost is the median
// over sweeps of (stage − base stage) within one sweep.
func (l *layerRun) ladder(in *Input, ref *reference, begin time.Time, budget time.Duration) error {
	const minSweeps, maxSweeps = 3, 7
	var nsBy, allocsBy [ladderSlots][]float64
	var deltas [ladderSlots][]float64
	var telemetryDelta, facadeDelta, skips []float64
	for sweep := -1; sweep < maxSweeps; sweep++ {
		if sweep >= minSweeps && time.Since(begin) > budget {
			break
		}
		var ns, allocs [ladderSlots]float64
		var skip float64
		for k := 0; k < ladderSlots; k++ {
			i := k
			if sweep%2 != 0 {
				i = ladderSlots - 1 - k
			}
			var err error
			if ns[i], allocs[i], err = l.stage(i, in, ref, &skip); err != nil {
				return err
			}
		}
		if sweep < 0 {
			continue
		}
		for i := 0; i < ladderSlots; i++ {
			nsBy[i] = append(nsBy[i], ns[i])
			allocsBy[i] = append(allocsBy[i], allocs[i])
		}
		for i, b := range stageBase {
			d := ns[i]
			if b >= 0 {
				d -= ns[b]
			}
			deltas[i] = append(deltas[i], d)
		}
		telemetryDelta = append(telemetryDelta, ns[auxTelemetry]-ns[5])
		facadeDelta = append(facadeDelta, ns[auxMonFeed]-ns[auxOwnStore])
		skips = append(skips, skip)
	}
	for i, name := range stageNames {
		l.setOf("stage."+name+".ns_per_event", "ns", nsBy[i])
		l.setOf("stage."+name+".allocs_per_event", "count", allocsBy[i])
		l.setOf("stage."+name+".delta_ns", "ns", deltas[i])
	}
	l.setOf("core.allocs_per_event", "count", allocsBy[0])
	l.setOf("dispatch.skip_ratio", "ratio", skips)
	l.setOf("ocep.feed_overhead_ns", "ns", facadeDelta)
	l.setOf("collector.report_ns_per_event", "ns", nsBy[2])
	l.setOf("collector.allocs_per_event", "count", allocsBy[2])
	l.setOf("repl.delta_ns", "ns", deltas[7])
	l.setOf("telemetry.overhead_ns_per_event", "ns", telemetryDelta)
	return nil
}

// census runs each trial stage once more with the samplers on, flushing
// and (for the durable stage) recovering, and reads the layers' public
// counters; then the wire stages once through counting proxies. Nothing
// here is a timing of the pipeline, so the samplers' cost does not
// matter.
func (l *layerRun) census(in *Input, ref *reference) error {
	n := len(in.Events)
	run := func(kind stackKind, m trialMode, what string) (trialResult, error) {
		return l.trial(kind, in, ref, m, "census "+what)
	}

	res, err := run(stCollector, trialMode{heap: true}, "collector")
	if err != nil {
		return err
	}
	l.set("event.bytes_per_stored_event", "B", per(float64(res.retained), n))

	if res, err = run(stAsync, trialMode{}, "async"); err != nil {
		return err
	}
	d := res.stats.delivery
	l.set("delivery.batches", "count", float64(d.Batches))
	l.set("delivery.mean_batch", "count", per(float64(d.Handled), d.Batches))
	l.set("delivery.max_queued", "count", float64(d.MaxQueued))

	// The wire stage, sampled; a throwaway tracer switches the monitor
	// loop's timers on.
	if res, err = run(stWire, trialMode{flush: true, sample: true, tr: newTracer(), trial: 1}, "wire"); err != nil {
		return err
	}
	calls := make([]float64, len(res.reportCalls))
	var blocked float64
	for i, c := range res.reportCalls {
		calls[i] = float64(c)
		if c >= 100_000 {
			blocked += calls[i]
		}
	}
	sort.Float64s(calls)
	l.set("wire.report_call_ns_p50", "ns", quantile(calls, 0.50))
	l.set("wire.report_call_ns_p99", "ns", quantile(calls, 0.99))
	// Blocked: inside a Report call that took 100 µs or more — the
	// window was full, or the generator lost its core.
	l.set("wire.report_blocked_share", "ratio", blocked/float64(res.wall))
	l.set("wire.monitor_next_ns_per_event", "ns", per(float64(res.nextNs), n))
	l.set("wire.vc_entries_per_event", "count", per(float64(res.stats.wire.VCEntriesSent), n))
	l.set("wire.acks", "count", float64(res.stats.wire.AcksSent))
	l.set("wire.retransmits", "count", float64(res.stats.retransmits+res.stats.wire.StaleEvents))

	if res, err = run(stWire, trialMode{opts: stackOpts{noMonitor: true}}, "wire ingest"); err != nil {
		return err
	}
	l.set("wire.ingest_ns_per_event", "ns", per(float64(res.wall.Nanoseconds()), n))

	if res, err = run(stWire, trialMode{opts: stackOpts{defaultWindow: true}}, "default window"); err != nil {
		return err
	}
	l.set("wire.default_window_events_per_s", "ev/s", float64(n)/res.wall.Seconds())

	// The durable stage: recovery from a crash copy, a snapshot, and the
	// WAL on its own, fed the records this stage wrote.
	var snapshot time.Duration
	var walErr error
	var appendNs, replayNs, walBytes float64
	res, err = run(stWAL, trialMode{recover: true, beforeClose: func(st *stack) error {
		appendNs, replayNs, walBytes, walErr = walProbe(st.dataDir, l.dir)
		start := time.Now()
		err := st.durable.Snapshot()
		snapshot = time.Since(start)
		return err
	}}, "wal")
	if err == nil {
		err = walErr
	}
	if err != nil {
		return err
	}
	l.set("durable.recover_ns_per_event", "ns", per(float64(res.recoverWall.Nanoseconds()), res.recovered))
	l.set("durable.recovery_events_per_s", "ev/s", float64(res.recovered)/res.recoverWall.Seconds())
	l.set("durable.snapshot_ms", "ms", float64(snapshot)/1e6)
	l.set("wal.append_ns_per_record", "ns", appendNs)
	l.set("wal.replay_ns_per_record", "ns", replayNs)
	l.set("wal.bytes_per_event", "B", per(walBytes, n))

	if res, err = run(stStandby, trialMode{sample: true}, "standby"); err != nil {
		return err
	}
	l.set("repl.lag_max", "count", float64(res.replLagMax))
	l.set("repl.confirmed", "count", float64(res.stats.repl.Confirmed))

	if res, err = run(stShard, trialMode{sample: true, tr: newTracer(), trial: 1}, "shard"); err != nil {
		return err
	}
	l.set("shard.exports", "count", float64(res.stats.shards.Exports))
	l.set("shard.remote_sends", "count", float64(res.stats.shards.RemoteSends))
	l.set("shard.held_max", "count", float64(res.heldMax))
	l.set("merge.next_ns_per_event", "ns", per(float64(res.nextNs), n))
	l.set("merge.wedges", "count", float64(res.stats.merge.Wedges))
	l.set("merge.incomplete", "count", float64(res.stats.merge.Incomplete))
	l.set("router.report_ns_per_event", "ns", per(float64(res.routerNs), n))

	// Bytes per link.
	proxied := trialMode{opts: stackOpts{proxied: true}}
	if res, err = run(stWire, proxied, "wire bytes"); err != nil {
		return err
	}
	l.set("wire.report_bytes_per_event", "B", per(float64(res.stats.reportBytes), n))
	l.set("wire.monitor_bytes_per_event", "B", per(float64(res.stats.monitorBytes), n))
	if res, err = run(stStandby, proxied, "standby bytes"); err != nil {
		return err
	}
	l.set("repl.bytes_per_event", "B", per(float64(res.stats.replBytes), n))
	if res, err = run(stShard, proxied, "shard bytes"); err != nil {
		return err
	}
	l.set("shard.peer_bytes_per_event", "B", per(float64(res.stats.peerBytes), n))

	critical, drain, err := shardCriticalPath(in, l.dir)
	if err != nil {
		return err
	}
	l.r.Attempted += n
	l.set("shard.critical_path_events_per_s", "ev/s", float64(n)/critical.Seconds())
	l.set("shard.drain_ms", "ms", float64(drain)/1e6)
	return nil
}

// walProbe replays the WAL in dataDir (untouched: wal.Replay only reads)
// and appends the same payloads to a fresh log under scratch. It returns
// ns per appended record, ns per replayed record and the log's bytes.
func walProbe(dataDir, scratch string) (appendNs, replayNs, bytes float64, err error) {
	var payloads [][]byte
	start := time.Now()
	if _, err = wal.Replay(dataDir, func(p []byte) error {
		payloads = append(payloads, append([]byte(nil), p...))
		return nil
	}); err != nil {
		return 0, 0, 0, err
	}
	replayNs = per(float64(time.Since(start).Nanoseconds()), len(payloads))
	bytes = float64(dirBytes(dataDir))

	dir, err := os.MkdirTemp(scratch, "wal-")
	if err != nil {
		return 0, 0, 0, err
	}
	defer os.RemoveAll(dir)
	log, _, err := wal.Open(dir, wal.Options{Policy: wal.SyncInterval, Interval: fsyncInterval}, nil)
	if err != nil {
		return 0, 0, 0, err
	}
	start = time.Now()
	for _, p := range payloads {
		seq, err := log.Append(p)
		if err == nil {
			err = log.Commit(seq)
		}
		if err != nil {
			_ = log.Close()
			return 0, 0, 0, err
		}
	}
	appendNs = per(float64(time.Since(start).Nanoseconds()), len(payloads))
	return appendNs, replayNs, bytes, log.Close()
}

// shardCriticalPath times a two-shard tier one shard at a time, as
// `ocepbench -shardscale` does: the shards share no state, so on a host
// with a core per shard the tier's wall clock is the slowest shard's
// ingest plus the exchange drain, and timing them serially keeps the
// number independent of this host's core count. Ingest ends when the
// shard has ingested its events, not at the next 250 ms acknowledgement.
func shardCriticalPath(in *Input, dir string) (critical, drain time.Duration, err error) {
	st, err := newStack(stShard, in, stackOpts{dir: dir, noMonitor: true})
	if err != nil {
		return 0, 0, err
	}
	defer st.close()
	deadline := time.Now().Add(trialDeadline)
	var slowest time.Duration
	for shard, c := range st.cols {
		want := 0
		start := time.Now()
		for _, e := range in.Events {
			if shardHome(e.Trace) != shard {
				continue
			}
			want++
			if err := st.report(e); err != nil {
				return 0, 0, err
			}
		}
		for c.IngestCount() < want {
			if time.Now().After(deadline) {
				return 0, 0, fmt.Errorf("benchmark: shard %d ingested %d of %d events", shard, c.IngestCount(), want)
			}
			time.Sleep(200 * time.Microsecond)
		}
		slowest = max(slowest, time.Since(start))
	}
	start := time.Now()
	for st.delivered() < len(in.Events) {
		if time.Now().After(deadline) {
			return 0, 0, fmt.Errorf("benchmark: tier delivered %d of %d events", st.delivered(), len(in.Events))
		}
		time.Sleep(200 * time.Microsecond)
	}
	drain = time.Since(start)
	return slowest + drain, drain, nil
}

// probes are the measurements that need no stack: the matcher's
// per-trigger search time (the paper's Figures 6–10 number), clock
// comparison, pattern compilation, and an exact count of how the
// collector saw the stream arrive.
func (l *layerRun) probes(in *Input, ref *reference) error {
	n := len(in.Events)

	// Per-Feed timing; a Feed that raised Stats().Triggers was a trigger.
	m := core.NewMatcherOn(ref.pat, ref.store, core.Options{})
	var triggerUs []float64
	var idleNs float64
	triggers := 0
	for _, e := range ref.ordered {
		start := time.Now()
		if _, err := m.Feed(e); err != nil {
			return err
		}
		d := time.Since(start)
		if t := m.Stats().Triggers; t != triggers {
			triggers = t
			triggerUs = append(triggerUs, float64(d.Nanoseconds())/1e3)
		} else {
			idleNs += float64(d.Nanoseconds())
		}
	}
	sort.Float64s(triggerUs)
	st := m.Stats()
	l.set("core.trigger_us_p50", "us", quantile(triggerUs, 0.50))
	l.set("core.trigger_us_p99", "us", quantile(triggerUs, 0.99))
	l.set("core.feed_ns_per_event", "ns", per(idleNs, n-len(triggerUs)))
	l.set("core.triggers", "count", float64(st.Triggers))
	l.set("core.candidates_per_trigger", "count", per(float64(st.CandidatesTried), st.Triggers))
	l.set("core.backtracks", "count", float64(st.Backtracks))
	l.set("core.backjumps", "count", float64(st.Backjumps))

	// Clock comparison over a fixed pseudo-random pairing of the
	// delivered events, and the clocks' stored width.
	const pairs = 200000
	entries := 0
	for _, e := range ref.ordered {
		entries += e.VC.Weight()
	}
	before := 0
	start := time.Now()
	for i := 0; i < pairs; i++ {
		a, b := ref.ordered[i%n], ref.ordered[(i*7919+13)%n]
		if a.Before(b) {
			before++
		}
	}
	l.set("vclock.before_ns", "ns", per(float64(time.Since(start).Nanoseconds()), pairs))
	l.set("vclock.entries_per_event", "count", per(float64(entries), n))
	if before == pairs {
		return fmt.Errorf("benchmark: every sampled pair is ordered; the clock probe is degenerate")
	}

	var compile []float64
	for i := 0; i < 21; i++ {
		start := time.Now()
		if _, err := compilePattern(in.Pattern); err != nil {
			return err
		}
		compile = append(compile, float64(time.Since(start).Nanoseconds())/1e3)
	}
	l.setOf("pattern.compile_us", "us", compile)

	// Arrival census: an event that raises Pending() arrived before a
	// causal predecessor and was buffered.
	c := poet.NewCollector()
	pendingMax, buffered := 0, 0
	for i := range in.Events {
		before := c.Pending()
		if err := c.Report(in.Events[i]); err != nil {
			return err
		}
		if p := c.Pending(); p > before {
			buffered++
			pendingMax = max(pendingMax, p)
		}
	}
	l.set("collector.pending_max", "count", float64(pendingMax))
	l.set("collector.out_of_order_share", "ratio", per(float64(buffered), n))
	return nil
}

// perLayer is the list of per-layer metrics a traced run reports;
// README.md records, per layer, which end-to-end metric each should move
// and on which workload.
var perLayer = func() []layerMetric {
	list := []layerMetric{
		{"core.trigger_us_p50", "us", false},
		{"core.trigger_us_p99", "us", false},
		{"core.feed_ns_per_event", "ns", false},
		{"core.triggers", "count", false},
		{"core.candidates_per_trigger", "count", false},
		{"core.backtracks", "count", false},
		{"core.backjumps", "count", false},
		{"core.allocs_per_event", "count", false},
		{"dispatch.skip_ratio", "ratio", true},
		{"ocep.feed_overhead_ns", "ns", false},
		{"vclock.before_ns", "ns", false},
		{"vclock.entries_per_event", "count", false},
		{"event.bytes_per_stored_event", "B", false},
		{"pattern.compile_us", "us", false},
		{"collector.report_ns_per_event", "ns", false},
		{"collector.allocs_per_event", "count", false},
		{"collector.pending_max", "count", false},
		{"collector.out_of_order_share", "ratio", false},
		{"delivery.batches", "count", false},
		{"delivery.mean_batch", "count", true},
		{"delivery.max_queued", "count", false},
		{"wire.report_call_ns_p50", "ns", false},
		{"wire.report_call_ns_p99", "ns", false},
		{"wire.report_blocked_share", "ratio", false},
		{"wire.ingest_ns_per_event", "ns", false},
		{"wire.monitor_next_ns_per_event", "ns", false},
		{"wire.report_bytes_per_event", "B", false},
		{"wire.monitor_bytes_per_event", "B", false},
		{"wire.vc_entries_per_event", "count", false},
		{"wire.acks", "count", false},
		{"wire.retransmits", "count", false},
		{"wire.default_window_events_per_s", "ev/s", true},
		{"wal.append_ns_per_record", "ns", false},
		{"wal.replay_ns_per_record", "ns", false},
		{"wal.bytes_per_event", "B", false},
		{"durable.recover_ns_per_event", "ns", false},
		{"durable.recovery_events_per_s", "ev/s", true},
		{"durable.snapshot_ms", "ms", false},
		{"repl.delta_ns", "ns", false},
		{"repl.lag_max", "count", false},
		{"repl.bytes_per_event", "B", false},
		{"repl.confirmed", "count", true},
		{"shard.exports", "count", false},
		{"shard.remote_sends", "count", false},
		{"shard.held_max", "count", false},
		{"shard.drain_ms", "ms", false},
		{"shard.peer_bytes_per_event", "B", false},
		{"shard.critical_path_events_per_s", "ev/s", true},
		{"merge.next_ns_per_event", "ns", false},
		{"merge.wedges", "count", false},
		{"merge.incomplete", "count", false},
		{"router.report_ns_per_event", "ns", false},
		{"mon.next_wait_share", "ratio", false},
		{"mon.feed_share", "ratio", false},
		{"gen.report_share", "ratio", false},
		{"gen.lag_ms_p99", "ms", false},
		{"latency.detect_ms_p50", "ms", false},
		{"latency.detect_ms_p99", "ms", false},
		{"telemetry.overhead_ns_per_event", "ns", false},
		{"trace.overhead_pct", "%", false},
		{"trace.gen_cover_pct", "%", true},
		{"trace.mon_cover_pct", "%", true},
		{"trace.events_per_s", "ev/s", true},
	}
	for _, name := range stageNames {
		list = append(list,
			layerMetric{"stage." + name + ".ns_per_event", "ns", false},
			layerMetric{"stage." + name + ".allocs_per_event", "count", false},
			layerMetric{"stage." + name + ".delta_ns", "ns", false},
		)
	}
	return list
}()
