package shard

import (
	"errors"
	"fmt"
	"testing"
)

// recorder is a TraceReporter that remembers what it was given.
type recorder struct {
	got []string
	err error
}

func (r *recorder) Report(raw string) error {
	if r.err != nil {
		return r.err
	}
	r.got = append(r.got, raw)
	return nil
}

func newTestRouter(t *testing.T, recs map[string]*recorder) *Router[string] {
	t.Helper()
	shards := make(map[string]TraceReporter[string], len(recs))
	for k, r := range recs {
		shards[k] = r
	}
	r, err := NewRouter(shards, func(s string) string { return s })
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRouterRoutesByHomeShardAndSticks(t *testing.T) {
	recs := map[string]*recorder{"s0": {}, "s1": {}, "s2": {}}
	r := newTestRouter(t, recs)
	for i := 0; i < 300; i++ {
		trace := fmt.Sprintf("t%d", i%30) // 10 events per trace
		if err := r.Report(trace); err != nil {
			t.Fatal(err)
		}
	}
	// Every trace's events all landed on its assigned shard.
	for i := 0; i < 30; i++ {
		trace := fmt.Sprintf("t%d", i)
		home, ok := r.Partitioner().Assigned(trace)
		if !ok {
			t.Fatalf("no assignment recorded for %s", trace)
		}
		n := 0
		for _, got := range recs[home].got {
			if got == trace {
				n++
			}
		}
		if n != 10 {
			t.Fatalf("%s: %d of 10 events on home shard %s", trace, n, home)
		}
	}
	total := int64(0)
	for _, n := range r.Routed() {
		total += n
	}
	if total != 300 {
		t.Fatalf("Routed total = %d", total)
	}
}

func TestRouterPropagatesReportErrors(t *testing.T) {
	boom := errors.New("shard down")
	recs := map[string]*recorder{"only": {err: boom}}
	r := newTestRouter(t, recs)
	if err := r.Report("x"); !errors.Is(err, boom) {
		t.Fatalf("Report error = %v", err)
	}
}

func TestNewRouterValidation(t *testing.T) {
	if _, err := NewRouter(map[string]TraceReporter[string]{}, func(s string) string { return s }); err == nil {
		t.Fatal("empty tier accepted")
	}
	if _, err := NewRouter(map[string]TraceReporter[string]{"a": &recorder{}}, nil); err == nil {
		t.Fatal("nil traceOf accepted")
	}
}
