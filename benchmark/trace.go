package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval recorded around a call the harness makes
// into the stack. Spans of one trial share its id; Parent is the ID of
// the enclosing span (0 for a trial).
//
// The generator-side spans gen.report cover 1024 consecutive Report
// calls each: the closed-loop generator does nothing between them, so
// the chunk is the call time. The monitor loop alternates Next and Feed
// per event, so per 1024 events it records one mon.next and one
// mon.feed span whose durations are the exact sums of the chunk's calls,
// laid end to end from the chunk's start; their positions inside the
// chunk are nominal, their lengths are not.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Trial   int    `json:"trial"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its id.
func (tr *tracer) add(name string, trial, parent int, start, end time.Time) int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	id := len(tr.spans) + 1
	tr.spans = append(tr.spans, span{
		ID: id, Parent: parent, Trial: trial, Name: name,
		StartNs: int64(start.Sub(tr.t0)), EndNs: int64(end.Sub(tr.t0)),
	})
	return id
}

// open reserves an id for a span whose children finish before it does;
// finish fills in its end.
func (tr *tracer) open(name string, trial, parent int, start time.Time) int {
	return tr.add(name, trial, parent, start, start)
}

func (tr *tracer) finish(id int, end time.Time) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans[id-1].EndNs = int64(end.Sub(tr.t0))
}

// selfTimes returns, per span name, the summed duration of its spans
// minus the part their direct children cover, over the given trial
// (0 = every trial).
func (tr *tracer) selfTimes(trial int) map[string]time.Duration {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	covered := make(map[int]int64)
	for _, s := range tr.spans {
		if s.Parent != 0 {
			covered[s.Parent] += s.EndNs - s.StartNs
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range tr.spans {
		if trial != 0 && s.Trial != trial {
			continue
		}
		out[s.Name] += time.Duration(s.EndNs - s.StartNs - covered[s.ID])
	}
	return out
}

// total returns the summed duration of the named spans of a trial.
func (tr *tracer) total(name string, trial int) time.Duration {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var d int64
	for _, s := range tr.spans {
		if s.Name == name && s.Trial == trial {
			d += s.EndNs - s.StartNs
		}
	}
	return time.Duration(d)
}

func (tr *tracer) write(path string) error {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{tr.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
