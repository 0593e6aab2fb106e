package main

// workload is one traffic mix: a generator, the deployment it runs on,
// the size of a trial and the frozen open-loop rate.
type workload struct {
	Name string
	// Why is the one-sentence reason the workload exists; BENCHMARK.json
	// and the README repeat it.
	Why  string
	Kind stackKind
	// Events is the target event count of one trial. The stack retains
	// every event, so this, not wall time, bounds a trial's memory.
	Events int
	// Rate is the open-loop arrival rate in events/s: the round number
	// nearest 40 % of the closed-loop events_per_s measured on the
	// reference host when the workload was defined, then frozen.
	Rate float64
	gen  func(seed int64, events int) *Input
}

// Generate builds the workload's input at its trial size.
func (w *workload) Generate(seed int64) *Input { return w.gen(seed, w.Events) }

// ladderEvents is the input size of the stage ladder and the layer
// probes: small enough that nine stages times several sweeps fit one
// traced run.
const ladderEvents = 30000

var workloads = []*workload{
	{
		Name:   "embed-atomicity",
		Why:    "Report into a synchronously attached monitor, no wire, no disk: matcher search, clock tests and stamping do the work, so a matcher or clock change shows here and a codec change must not.",
		Kind:   stSync,
		Events: 300000,
		Rate:   160000,
		gen: func(seed int64, events int) *Input {
			return genAtomicity(seed, 20, events, 0.01)
		},
	},
	{
		Name:   "wire-ring",
		Why:    "128-trace ring over one reporter and one monitor connection, rare-trigger pattern: gob, TCP, the collector lock and the delivery queue dominate, the matcher idles, 128-wide clocks show timestamp cost.",
		Kind:   stWire,
		Events: 120000,
		Rate:   60000,
		gen: func(seed int64, events int) *Input {
			return genRing(seed, 128, events, 0.125)
		},
	},
	{
		Name:   "durable-ha",
		Why:    "Deadlock-case traffic into a WAL-backed primary (fsync=interval) with a warm standby, then recovery from a crash copy: WAL append, the replica barrier and log replay are the delta over wire-ring.",
		Kind:   stStandby,
		Events: 100000,
		Rate:   40000,
		gen: func(seed int64, events int) *Input {
			return genDeadlock(seed, 32, events, 0.01)
		},
	},
	{
		Name:   "shard-ring",
		Why:    "32-trace ring whose every hop crosses two meshed shards, routed in, merged out: export log, peer followers, held receives and the merge frontier work only here; the slowest shard sets the tail.",
		Kind:   stShard,
		Events: 100000,
		Rate:   60000,
		gen: func(seed int64, events int) *Input {
			return genRing(seed, 32, events, 0.125)
		},
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}
