// Package shard is the client half of the horizontally sharded
// collector tier: it decides which shard of the tier each trace is
// reported to (Partitioner, Router) and merges the shards' per-shard
// linearizations back into the single causally-consistent stream a
// monitor needs (MergedClient).
//
// A tier is an ordered list of shards; position in the list is the
// shard ID, matching poetd's -shard-id/-peers convention, and a shard
// homed trace's global trace ID t satisfies t % numShards == shardID
// (the collectors stripe their IDs). Each shard entry is itself a
// comma-separated failover pool, so "p0,s0;p1,s1" is a two-shard tier
// where each shard has a warm standby.
package shard

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
)

// Partitioner maps trace names to the shard keys of a fixed tier by
// rendezvous (highest-random-weight) hashing, with an explicit
// assignment table layered on top. Two properties matter:
//
//   - The hash choice depends only on the (trace, key) pairs, never on
//     the order keys were listed in, so every participant that knows
//     the tier membership computes the same home shard — reporters,
//     operators, and tests may list the peers in any order.
//   - Assignments are sticky: the first decision for a trace (hashed or
//     explicitly Placed) is recorded and never revisited, so a trace's
//     home shard cannot move mid-run even if the load picture changes.
type Partitioner struct {
	keys []string // sorted, deduplicated

	mu    sync.Mutex
	table map[string]int // trace name -> index into keys
}

// NewPartitioner builds a partitioner over the tier's shard keys
// (normally the shards' pool specs or addresses). Order is irrelevant;
// duplicates and empty keys are rejected.
func NewPartitioner(keys []string) (*Partitioner, error) {
	if len(keys) == 0 {
		return nil, errors.New("shard: no shard keys")
	}
	sorted := make([]string, len(keys))
	copy(sorted, keys)
	sort.Strings(sorted)
	for i, k := range sorted {
		if k == "" {
			return nil, errors.New("shard: empty shard key")
		}
		if i > 0 && sorted[i-1] == k {
			return nil, fmt.Errorf("shard: duplicate shard key %q", k)
		}
	}
	return &Partitioner{keys: sorted, table: make(map[string]int)}, nil
}

// Keys returns the shard keys in the partitioner's canonical (sorted)
// order.
func (p *Partitioner) Keys() []string {
	out := make([]string, len(p.keys))
	copy(out, p.keys)
	return out
}

// NumShards returns the tier width.
func (p *Partitioner) NumShards() int { return len(p.keys) }

// Assign returns trace's home shard key, deciding it by rendezvous
// hashing on first sight and from the sticky table afterwards.
func (p *Partitioner) Assign(trace string) string {
	p.mu.Lock()
	defer p.mu.Unlock()
	if i, ok := p.table[trace]; ok {
		return p.keys[i]
	}
	i := p.rendezvous(trace)
	p.table[trace] = i
	return p.keys[i]
}

// Place records an explicit home shard for trace — an operator or a
// harness pinning a trace before it is first routed.
// It fails if the trace is already assigned to a different shard: a
// home shard never moves mid-run.
func (p *Partitioner) Place(trace, key string) error {
	idx := -1
	for i, k := range p.keys {
		if k == key {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("shard: %q is not a shard key of this tier", key)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if prev, ok := p.table[trace]; ok {
		if prev != idx {
			return fmt.Errorf("shard: trace %q is already homed on %q; a home shard never moves", trace, p.keys[prev])
		}
		return nil
	}
	p.table[trace] = idx
	return nil
}

// Assigned reports trace's recorded home shard, without deciding one.
func (p *Partitioner) Assigned(trace string) (key string, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	i, ok := p.table[trace]
	if !ok {
		return "", false
	}
	return p.keys[i], true
}

// Assignments returns a copy of the sticky table.
func (p *Partitioner) Assignments() map[string]string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]string, len(p.table))
	for t, i := range p.table {
		out[t] = p.keys[i]
	}
	return out
}

// rendezvous picks the key with the highest FNV-64a score for trace,
// breaking score ties toward the lexicographically smaller key. Called
// with mu held (the table is consulted first), but depends on nothing
// but its inputs.
func (p *Partitioner) rendezvous(trace string) int {
	best, bestScore := 0, score(trace, p.keys[0])
	for i := 1; i < len(p.keys); i++ {
		if s := score(trace, p.keys[i]); s > bestScore {
			best, bestScore = i, s
		}
	}
	// keys are sorted, so the first maximum is the smaller key.
	return best
}

func score(trace, key string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(trace))
	_, _ = h.Write([]byte{0}) // unambiguous (trace, key) framing
	_, _ = h.Write([]byte(key))
	return h.Sum64()
}
