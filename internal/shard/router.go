package shard

import (
	"fmt"
	"strings"
	"sync"

	"ocep/internal/pool"
)

// SplitSpec splits a tier spec into per-shard pool specs: ';' separates
// shards, ',' separates one shard's failover pool, whitespace is
// trimmed and empty segments dropped. "p0,s0;p1" describes a two-shard
// tier whose first shard has a standby.
func SplitSpec(spec string) []string {
	var out []string
	for _, part := range strings.Split(spec, ";") {
		eps := pool.ParseAddrs(part)
		if len(eps) == 0 {
			continue
		}
		out = append(out, strings.Join(eps, ","))
	}
	return out
}

// TraceReporter is the slice of a reporter the router needs: internal/
// poet's Reporter satisfies it, and tests substitute recorders.
type TraceReporter[E any] interface {
	Report(raw E) error
}

// Router fans a single Report stream out to a sharded tier: every raw
// event goes to its trace's home shard, decided by the Partitioner on
// first sight and sticky forever after. The zero-th type parameter is
// the raw event type (poet.RawEvent in production) so the router does
// not import the wire layer.
type Router[E any] struct {
	parts   *Partitioner
	byKey   map[string]TraceReporter[E]
	traceOf func(E) string

	mu     sync.Mutex
	routed map[string]int64 // events routed per shard key
}

// NewRouter builds a router over a tier: shards maps each shard key to
// its reporter, traceOf extracts an event's trace name. The keys (in
// any order) seed the partitioner.
func NewRouter[E any](shards map[string]TraceReporter[E], traceOf func(E) string) (*Router[E], error) {
	keys := make([]string, 0, len(shards))
	for k := range shards {
		keys = append(keys, k)
	}
	parts, err := NewPartitioner(keys)
	if err != nil {
		return nil, err
	}
	if traceOf == nil {
		return nil, fmt.Errorf("shard: NewRouter needs a traceOf extractor")
	}
	return &Router[E]{
		parts:   parts,
		byKey:   shards,
		traceOf: traceOf,
		routed:  make(map[string]int64),
	}, nil
}

// Report routes one raw event to its trace's home shard.
func (r *Router[E]) Report(raw E) error {
	key := r.parts.Assign(r.traceOf(raw))
	r.mu.Lock()
	r.routed[key]++
	r.mu.Unlock()
	return r.byKey[key].Report(raw)
}

// Partitioner exposes the router's trace->shard table.
func (r *Router[E]) Partitioner() *Partitioner { return r.parts }

// Routed returns the events-routed count per shard key.
func (r *Router[E]) Routed() map[string]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.routed))
	for k, n := range r.routed {
		out[k] = n
	}
	return out
}
