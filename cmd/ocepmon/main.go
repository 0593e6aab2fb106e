// Command ocepmon is the online OCEP monitor: it connects to a poetd
// server as a monitor client, receives the linearized event stream, and
// matches a causal event pattern, printing each reported match (the
// representative subset by default) as it is found.
//
// Usage:
//
//	ocepmon -pattern file.pat [-addr host:port] [-all] [-guarantee]
//	        [-stats] [-builtin name] [-reconnect d]
//	        [-max-steps n] [-deadline d] [-history-cap n]
//
// The governance flags bound the matcher's resources: -max-steps and
// -deadline cap the search work and wall-clock time per triggering
// event (an exhausted trigger aborts cleanly, reporting its partial
// results with Truncated set), and -history-cap bounds the per-leaf
// event histories with coverage-aware eviction, keeping a long-running
// monitor's footprint flat.
//
// The connection to poetd is fault-tolerant: if it dies mid-stream the
// client reconnects with exponential backoff and resumes from the exact
// event it had reached, so no match is lost or double-reported across
// the outage. -reconnect bounds the cumulative backoff spent per outage
// (default 30s; 0 disables reconnection and the first interruption ends
// the run with an error). A clean poetd shutdown ends the stream
// normally.
//
// -addr also accepts a comma-separated endpoint pool
// ("primary:7524,standby:7524") when poetd runs with a warm standby
// (-follow): the monitor connects to the first healthy endpoint, fails
// over on connection failures and drain notices, and resumes at its
// exact stream offset on the promoted standby — the match output is
// identical to a fault-free run.
//
// When -addr contains ';', it names a sharded collector tier (the same
// spec the shards themselves take as -peers: ';' separates shards in
// shard-ID order, ',' separates each shard's failover pool). The
// monitor dials every shard, merges their streams into one causally
// consistent linearization — a receive is never emitted before the
// cross-shard send it observed — and matches against that, so the
// output is identical to running the same workload through a single
// collector.
//
// Two flags govern how the merge behaves when a shard stalls:
// -wedge-timeout bounds how long the merged stream may make no progress
// before the run fails with a diagnosis naming the stalled shard and
// the blocking (trace, clock) frontier entry (default 0: wait forever,
// as a transient partition heals into a byte-identical run), and
// -degrade-after opts in to graceful degradation, declaring a shard
// lost after that long and matching the surviving streams with
// causally-incomplete events counted rather than hidden.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"ocep"
	"ocep/internal/shard"
	"ocep/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ocepmon: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// indent prefixes every line with two spaces.
func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = "  " + l
	}
	return strings.Join(lines, "\n") + "\n"
}

func run() error {
	var (
		addr       = flag.String("addr", "127.0.0.1:7524", "poetd server address, a comma-separated failover pool (\"primary:7524,standby:7524\"), or a ';'-separated sharded tier (\"shard0;shard1,standby1\")")
		patFile    = flag.String("pattern", "", "pattern definition file")
		builtin    = flag.String("builtin", "", "use a built-in case-study pattern (deadlock2, deadlock3, race, atomicity, ordering)")
		reportAll  = flag.Bool("all", false, "report every complete match, not just the representative subset")
		guarantee  = flag.Bool("guarantee", false, "run pinned searches so the k*n subset guarantee is exact")
		printStats = flag.Bool("stats", false, "print matcher statistics when the stream ends")
		explain    = flag.Bool("explain", false, "print the causal evidence for each match")
		reconnect  = flag.Duration("reconnect", 30*time.Second, "cumulative backoff budget for resuming a dead connection (0 disables reconnection)")
		wedgeAfter = flag.Duration("wedge-timeout", 0, "sharded tier only: report a wedge (naming the stalled shard and blocking frontier entry) when the merge emits nothing for this long instead of waiting forever (0 = wait forever)")
		degrade    = flag.Duration("degrade-after", 0, "sharded tier only: declare a shard lost after this long without progress and keep matching the remaining streams, counting causally-incomplete events (0 = never degrade)")
		maxSteps   = flag.Int("max-steps", 0, "abort a trigger's search after n candidate steps (0 = unlimited)")
		deadline   = flag.Duration("deadline", 0, "abort a trigger's search after this wall-clock time (0 = none)")
		historyCap = flag.Int("history-cap", 0, "bound per-(leaf,trace) histories with coverage-aware eviction (0 = unbounded)")
	)
	flag.Parse()

	var src string
	switch {
	case *builtin != "":
		switch *builtin {
		case "deadlock2":
			src = workload.DeadlockPattern(2)
		case "deadlock3":
			src = workload.DeadlockPattern(3)
		case "race":
			src = workload.MsgRacePattern()
		case "atomicity":
			src = workload.AtomicityPattern()
		case "ordering":
			src = workload.OrderingPattern()
		default:
			return fmt.Errorf("unknown built-in %q", *builtin)
		}
	case *patFile != "":
		data, err := os.ReadFile(*patFile)
		if err != nil {
			return err
		}
		src = string(data)
	default:
		return fmt.Errorf("a pattern is required: -pattern file.pat or -builtin name")
	}

	// A ';' in -addr means a sharded tier: dial every shard and merge
	// their streams. Otherwise a single client (with an optional ','
	// failover pool) is the stream.
	var client interface {
		ocep.EventSource
		Close() error
	}
	if strings.Contains(*addr, ";") {
		mopts := []shard.MergeOption{shard.WithMergeLog(log.Printf)}
		if *wedgeAfter > 0 {
			mopts = append(mopts, shard.WithWedgeTimeout(*wedgeAfter))
		}
		if *degrade > 0 {
			mopts = append(mopts, shard.WithDegradeAfter(*degrade))
		}
		merged, err := shard.DialMergedMonitor(*addr, mopts,
			ocep.WithSessionReconnect(*reconnect),
			ocep.WithSessionLog(log.Printf))
		if err != nil {
			return err
		}
		client = merged
	} else {
		single, err := ocep.DialMonitor(*addr,
			ocep.WithSessionReconnect(*reconnect),
			ocep.WithSessionLog(log.Printf))
		if err != nil {
			return err
		}
		client = single
	}
	defer client.Close()

	count := 0
	var mon *ocep.Monitor
	opts := []ocep.Option{ocep.WithMatchHandler(func(m ocep.Match) {
		count++
		fmt.Printf("match #%d:\n", count)
		if *explain {
			fmt.Print(indent(mon.Explain(m)))
			return
		}
		for _, e := range m.Events {
			name, _ := client.TraceName(e.ID.Trace)
			fmt.Printf("  %s on %s: type=%q text=%q vc=%s\n", e.ID, name, e.Type, e.Text, e.VC)
		}
		if len(m.Bindings) > 0 {
			var parts []string
			for k, v := range m.Bindings {
				parts = append(parts, fmt.Sprintf("$%s=%q", k, v))
			}
			fmt.Printf("  bindings: %s\n", strings.Join(parts, " "))
		}
	})}
	if *reportAll {
		opts = append(opts, ocep.WithReportAll())
	}
	if *guarantee {
		opts = append(opts, ocep.WithGuaranteedCoverage())
	}
	if *maxSteps > 0 {
		opts = append(opts, ocep.WithMaxTriggerSteps(*maxSteps))
	}
	if *deadline > 0 {
		opts = append(opts, ocep.WithTriggerDeadline(*deadline))
	}
	if *historyCap > 0 {
		opts = append(opts, ocep.WithHistoryCap(*historyCap))
	}
	var err2 error
	mon, err2 = ocep.NewMonitor(src, opts...)
	if err2 != nil {
		return err2
	}
	log.Printf("connected to %s; pattern length k=%d", *addr, mon.PatternLength())
	if err := mon.Run(client); err != nil {
		return err
	}
	log.Printf("stream ended: %d matches reported", count)
	if *printStats {
		s := mon.Stats()
		fmt.Printf("events seen:      %d\n", s.EventsSeen)
		fmt.Printf("events matched:   %d\n", s.EventsMatched)
		fmt.Printf("triggers:         %d\n", s.Triggers)
		fmt.Printf("complete matches: %d\n", s.CompleteMatches)
		fmt.Printf("reported:         %d\n", s.Reported)
		fmt.Printf("redundant:        %d\n", s.Redundant)
		fmt.Printf("history size:     %d (pruned %d, evicted %d)\n", s.HistorySize, s.HistoryPruned, s.HistoryEvicted)
		if s.TriggersAborted > 0 {
			fmt.Printf("triggers aborted: %d (budget exhausted; partial results marked truncated)\n", s.TriggersAborted)
		}
	}
	return nil
}
