// MPI deadlock detection over TCP (Section V-C1): a parallel random walk
// exchanges walkers between neighbouring ranks; a protocol bug
// occasionally leaves a send-receive cycle — the unsafe state that can
// deadlock when the eager buffer fills.
//
// Unlike the other examples, this one exercises the distributed
// deployment: a POET server on a TCP port, the instrumented application
// reporting over one connection, and the monitor receiving the
// linearized stream over another — the same architecture the paper's
// POET deployment uses.
//
// Run with:
//
//	go run ./examples/mpi-deadlock
package main

import (
	"errors"
	"fmt"
	"log"
	"sync"
	"time"

	"ocep"
	"ocep/internal/workload"
)

func main() {
	// POET server on an ephemeral port.
	collector := ocep.NewCollector()
	server := ocep.NewServer(collector, nil)
	addr, err := server.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer server.Close()
	fmt.Printf("poet server on %s\n", addr)

	// Online monitor over TCP, watching for 2-cycles of concurrent
	// sends.
	client, err := ocep.DialMonitor(addr)
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	var mu sync.Mutex
	cycles := 0
	mon, err := ocep.NewMonitor(workload.DeadlockPattern(2),
		ocep.WithMatchHandler(func(m ocep.Match) {
			mu.Lock()
			cycles++
			n := cycles
			mu.Unlock()
			if n <= 5 {
				fmt.Printf("send cycle: %s <-> %s (ranks %s and %s)\n",
					m.Events[0].ID, m.Events[1].ID, m.Bindings["p0"], m.Bindings["p1"])
			}
		}))
	if err != nil {
		log.Fatal(err)
	}
	monDone := make(chan error, 1)
	go func() { monDone <- mon.Run(client) }()

	// The instrumented application reports over its own TCP connection.
	rep, err := ocep.DialReporter(addr)
	if err != nil {
		log.Fatal(err)
	}
	sink := &lockedSink{rep: rep}
	res, err := workload.GenDeadlock(workload.DeadlockConfig{
		Ranks:    8,
		CycleLen: 2,
		Rounds:   500,
		BugProb:  0.02,
		Seed:     7,
		Sink:     sink,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := errors.Join(rep.Flush(), rep.Close()); err != nil {
		log.Fatal(err)
	}

	// Wait for the monitor to drain the stream, then shut down.
	for mon.Stats().EventsSeen < res.Events {
		time.Sleep(time.Millisecond)
	}
	if err := server.Close(); err != nil {
		log.Fatal(err)
	}
	if err := <-monDone; err != nil {
		log.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	fmt.Printf("\nrun: %d events, %d buggy rounds seeded, %d cycle matches reported\n",
		res.Events, len(res.Markers), cycles)
	if cycles == 0 {
		log.Fatal("no cycles detected; expected seeded violations")
	}
}

// lockedSink serializes the workload's concurrent ranks onto one TCP
// reporter connection.
type lockedSink struct {
	mu  sync.Mutex
	rep interface{ Report(ocep.RawEvent) error }
}

func (s *lockedSink) Report(raw ocep.RawEvent) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rep.Report(raw)
}
