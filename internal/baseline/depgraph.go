package baseline

import (
	"ocep/internal/event"
)

// DepGraphDetector is a dependency-graph deadlock detector in the style
// of the tool OCEP compares against in Section V-C1 (Agarwal et al.): it
// maintains a wait-for graph over processes — an edge i -> j while i has
// an in-flight blocking send to j — and searches for a cycle after every
// edge insertion. The cycle search makes its per-event cost grow with
// graph size, the behaviour the paper contrasts with OCEP's pruned
// pattern search.
type DepGraphDetector struct {
	// edges[i][j] counts in-flight sends from i to j.
	edges []map[int]int
	// pendingDst maps a send event's ID to its destination, resolved
	// when the matching receive arrives.
	pendingDst map[event.ID]int
	// Cycles accumulates the detected cycles (as process lists).
	Cycles [][]int
	// maxLen bounds the reported cycle length (0 = unbounded).
	maxLen int
}

// NewDepGraphDetector builds a detector for n processes. maxLen bounds
// the cycle length searched for (0 = any length).
func NewDepGraphDetector(n, maxLen int) *DepGraphDetector {
	d := &DepGraphDetector{
		edges:      make([]map[int]int, n),
		pendingDst: make(map[event.ID]int),
		maxLen:     maxLen,
	}
	for i := range d.edges {
		d.edges[i] = make(map[int]int)
	}
	return d
}

// Feed processes one delivered event: a send adds a wait-for edge toward
// the destination named by its text attribute (resolved via the store's
// trace names); the matching receive removes it. It returns a detected
// cycle involving the new edge, or nil.
func (d *DepGraphDetector) Feed(st *event.Store, e *event.Event) []int {
	switch e.Kind {
	case event.KindSend:
		dst, ok := st.TraceByName(e.Text)
		if !ok {
			return nil
		}
		src := int(e.ID.Trace)
		d.edges[src][int(dst)]++
		d.pendingDst[e.ID] = int(dst)
		if cyc := d.findCycle(src); cyc != nil {
			d.Cycles = append(d.Cycles, cyc)
			return cyc
		}
	case event.KindReceive:
		partner := e.Partner.ID()
		if dst, ok := d.pendingDst[partner]; ok {
			src := int(partner.Trace)
			if d.edges[src][dst] > 0 {
				d.edges[src][dst]--
				if d.edges[src][dst] == 0 {
					delete(d.edges[src], dst)
				}
			}
			delete(d.pendingDst, partner)
		}
	}
	return nil
}

// findCycle runs a depth-first search for a cycle through start.
func (d *DepGraphDetector) findCycle(start int) []int {
	var path []int
	onPath := make(map[int]bool)
	var dfs func(u int) []int
	dfs = func(u int) []int {
		if d.maxLen > 0 && len(path) >= d.maxLen {
			return nil
		}
		path = append(path, u)
		onPath[u] = true
		defer func() {
			path = path[:len(path)-1]
			delete(onPath, u)
		}()
		for v := range d.edges[u] {
			if v == start && len(path) > 1 {
				return append([]int{}, path...)
			}
			if !onPath[v] && v != start {
				if cyc := dfs(v); cyc != nil {
					return cyc
				}
			}
		}
		return nil
	}
	return dfs(start)
}

// EdgeCount returns the number of live wait-for edges.
func (d *DepGraphDetector) EdgeCount() int {
	n := 0
	for _, m := range d.edges {
		n += len(m)
	}
	return n
}
