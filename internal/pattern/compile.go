package pattern

import (
	"fmt"
	"sort"
)

// Rel is a compiled pairwise causal constraint between two pattern-tree
// leaves, stated from the perspective of the first leaf.
type Rel int

// Compiled relations. RelNone (zero) means unconstrained.
const (
	// RelNone means the pair is unconstrained.
	RelNone Rel = iota
	// RelBefore requires the first leaf's event to happen before the
	// second's.
	RelBefore
	// RelAfter requires the second leaf's event to happen before the
	// first's.
	RelAfter
	// RelConcurrent requires the events to be causally unrelated.
	RelConcurrent
	// RelLink requires the events to be the two halves of one
	// point-to-point communication.
	RelLink
	// RelLim requires the first to happen before the second with no
	// same-class event causally between (limited precedence).
	RelLim
	// RelLimAfter is the mirror of RelLim.
	RelLimAfter
)

// String returns a short name for the relation.
func (r Rel) String() string {
	switch r {
	case RelNone:
		return "none"
	case RelBefore:
		return "before"
	case RelAfter:
		return "after"
	case RelConcurrent:
		return "concurrent"
	case RelLink:
		return "link"
	case RelLim:
		return "lim-before"
	case RelLimAfter:
		return "lim-after"
	default:
		return fmt.Sprintf("Rel(%d)", int(r))
	}
}

// mirror returns the relation as seen from the other leaf.
func (r Rel) mirror() Rel {
	switch r {
	case RelBefore:
		return RelAfter
	case RelAfter:
		return RelBefore
	case RelLim:
		return RelLimAfter
	case RelLimAfter:
		return RelLim
	default:
		return r
	}
}

// Leaf is one leaf of the compiled pattern tree: a distinct event to be
// matched. Multiple occurrences of the same event variable share a leaf.
type Leaf struct {
	// Index is the leaf's position in Compiled.Leaves.
	Index int
	// Class is the event class the leaf matches.
	Class *Class
	// Var is the event-variable name when the leaf came from variable
	// occurrences, "" otherwise.
	Var string
}

// String names the leaf for diagnostics.
func (l *Leaf) String() string {
	if l.Var != "" {
		return fmt.Sprintf("$%s(%s)", l.Var, l.Class.Name)
	}
	return fmt.Sprintf("%s#%d", l.Class.Name, l.Index)
}

// Disjunct is a compound-level constraint that cannot be decomposed into
// pairwise leaf constraints: weak precedence or entanglement between
// compound operands. It is checked once all involved leaves are
// instantiated.
type Disjunct struct {
	// Op is OpBefore (weak precedence: at least one pair in causal
	// order, operands not entangled) or OpEntangled (operands cross).
	Op Op
	// A and B are the leaf indices of the left and right operands.
	A, B []int
}

// Compiled is the matcher-ready form of a pattern: the leaves in a stable
// order, the pairwise constraint matrix, compound disjuncts, and the
// per-terminating-leaf evaluation orders.
type Compiled struct {
	// Source is the parsed file the pattern was compiled from.
	Source *File
	// Leaves are the pattern-tree leaves.
	Leaves []*Leaf
	// Rel[i][j] is the constraint between leaves i and j (from i's
	// perspective). Rel[i][i] is RelNone.
	Rel [][]Rel
	// Disjuncts are compound-level constraints checked at completion.
	Disjuncts []Disjunct
	// Terminating[i] reports whether a newly arrived event matching
	// leaf i can complete a match (the leaf can be causally maximal).
	Terminating []bool
	// Orders[i] is the evaluation order used when leaf i triggers the
	// search: a permutation of all leaves starting with i. Nil for
	// non-terminating leaves.
	Orders [][]int
}

// K returns the pattern length (number of leaves), the k of the paper's
// k*n subset-cardinality bound.
func (c *Compiled) K() int { return len(c.Leaves) }

// Compile builds the matcher-ready representation of a parsed pattern.
func Compile(f *File) (*Compiled, error) {
	c := &compiler{
		file:    f,
		varLeaf: make(map[string]*Leaf),
		out:     &Compiled{Source: f},
	}
	top, err := c.walk(f.Pattern)
	if err != nil {
		return nil, err
	}
	_ = top
	if len(c.out.Leaves) == 0 {
		return nil, fmt.Errorf("pattern has no event occurrences")
	}
	if k := len(c.out.Leaves); k > MaxIndexLeaves {
		return nil, fmt.Errorf("pattern has %d event occurrences; the limit is %d", k, MaxIndexLeaves)
	}
	if err := c.closeBefore(); err != nil {
		return nil, err
	}
	c.markTerminating()
	c.buildOrders()
	return c.out, nil
}

type compiler struct {
	file    *File
	varLeaf map[string]*Leaf
	out     *Compiled
}

func (c *compiler) newLeaf(cls *Class, varName string) *Leaf {
	l := &Leaf{Index: len(c.out.Leaves), Class: cls, Var: varName}
	c.out.Leaves = append(c.out.Leaves, l)
	for i := range c.out.Rel {
		c.out.Rel[i] = append(c.out.Rel[i], RelNone)
	}
	c.out.Rel = append(c.out.Rel, make([]Rel, len(c.out.Leaves)))
	return l
}

func (c *compiler) setRel(a, b int, r Rel, pos Pos) error {
	if a == b {
		return errf(pos, "operator %s applied to the same event occurrence", r)
	}
	cur := c.out.Rel[a][b]
	if cur != RelNone && cur != r {
		return errf(pos, "contradictory constraints between %s and %s: %s vs %s",
			c.out.Leaves[a], c.out.Leaves[b], cur, r)
	}
	c.out.Rel[a][b] = r
	c.out.Rel[b][a] = r.mirror()
	return nil
}

// walk compiles an expression and returns the leaf indices it covers.
func (c *compiler) walk(e Expr) ([]int, error) {
	switch n := e.(type) {
	case *ClassRef:
		cls, _ := c.file.ClassByName(n.Name)
		l := c.newLeaf(cls, "")
		return []int{l.Index}, nil
	case *VarRef:
		if l, ok := c.varLeaf[n.Name]; ok {
			return []int{l.Index}, nil
		}
		var clsName string
		for _, d := range c.file.VarDecls {
			if d.VarName == n.Name {
				clsName = d.ClassName
				break
			}
		}
		cls, _ := c.file.ClassByName(clsName)
		l := c.newLeaf(cls, n.Name)
		c.varLeaf[n.Name] = l
		return []int{l.Index}, nil
	case *Binary:
		left, err := c.walk(n.L)
		if err != nil {
			return nil, err
		}
		right, err := c.walk(n.R)
		if err != nil {
			return nil, err
		}
		all := append(append([]int{}, left...), right...)
		switch n.Op {
		case OpAnd:
			// Pure connector; no constraint.
		case OpBefore, OpLim:
			if len(left) == 1 && len(right) == 1 {
				r := RelBefore
				if n.Op == OpLim {
					r = RelLim
				}
				if err := c.setRel(left[0], right[0], r, n.Pos); err != nil {
					return nil, err
				}
			} else {
				if n.Op == OpLim {
					return nil, errf(n.Pos, "lim-> requires primitive operands")
				}
				c.out.Disjuncts = append(c.out.Disjuncts, Disjunct{Op: OpBefore, A: left, B: right})
			}
		case OpStrongBefore:
			for _, a := range left {
				for _, b := range right {
					if err := c.setRel(a, b, RelBefore, n.Pos); err != nil {
						return nil, err
					}
				}
			}
		case OpConcurrent:
			for _, a := range left {
				for _, b := range right {
					if err := c.setRel(a, b, RelConcurrent, n.Pos); err != nil {
						return nil, err
					}
				}
			}
		case OpLink:
			if len(left) != 1 || len(right) != 1 {
				return nil, errf(n.Pos, "~ (link) requires primitive operands")
			}
			if err := c.setRel(left[0], right[0], RelLink, n.Pos); err != nil {
				return nil, err
			}
		case OpEntangled:
			if len(left) < 2 || len(right) < 2 {
				return nil, errf(n.Pos, "<-> (entanglement) requires compound operands with at least two events each")
			}
			c.out.Disjuncts = append(c.out.Disjuncts, Disjunct{Op: OpEntangled, A: left, B: right})
		default:
			return nil, errf(n.Pos, "unsupported operator %s", n.Op)
		}
		return all, nil
	default:
		return nil, fmt.Errorf("unknown expression node %T", e)
	}
}

// closeBefore computes the transitive closure of the before constraints
// (a->b and b->c imply a->c, which strengthens domain pruning) and
// rejects contradictions: precedence cycles and pairs that are required
// to be both ordered and concurrent. Link pairs imply a causal order
// between partners but its direction is unknown until match time, so
// links do not participate in the closure.
func (c *compiler) closeBefore() error {
	k := len(c.out.Leaves)
	before := make([][]bool, k)
	for i := range before {
		before[i] = make([]bool, k)
		for j := range before[i] {
			r := c.out.Rel[i][j]
			before[i][j] = r == RelBefore || r == RelLim
		}
	}
	for m := 0; m < k; m++ {
		for i := 0; i < k; i++ {
			if !before[i][m] {
				continue
			}
			for j := 0; j < k; j++ {
				if before[m][j] {
					before[i][j] = true
				}
			}
		}
	}
	for i := 0; i < k; i++ {
		if before[i][i] {
			return fmt.Errorf("pattern requires %s to happen before itself (precedence cycle)", c.out.Leaves[i])
		}
		for j := 0; j < k; j++ {
			if !before[i][j] {
				continue
			}
			switch c.out.Rel[i][j] {
			case RelConcurrent:
				return fmt.Errorf("pattern requires %s and %s to be both ordered and concurrent",
					c.out.Leaves[i], c.out.Leaves[j])
			case RelAfter, RelLimAfter:
				return fmt.Errorf("pattern requires %s both before and after %s",
					c.out.Leaves[i], c.out.Leaves[j])
			case RelNone:
				c.out.Rel[i][j] = RelBefore
				c.out.Rel[j][i] = RelAfter
			}
		}
	}
	return nil
}

// markTerminating marks the leaves that can be the causally maximal event
// of a complete match. A leaf constrained to happen before another leaf
// can never be delivered last among the match's events, so only leaves
// with no outgoing precedence edge are terminating.
func (c *compiler) markTerminating() {
	k := len(c.out.Leaves)
	c.out.Terminating = make([]bool, k)
	for i := 0; i < k; i++ {
		maximal := true
		for j := 0; j < k; j++ {
			if r := c.out.Rel[i][j]; r == RelBefore || r == RelLim {
				maximal = false
				break
			}
		}
		c.out.Terminating[i] = maximal
	}
}

// buildOrders assigns, for every terminating leaf, the evaluation order
// of the remaining leaves: a greedy most-constrained-first order so the
// causality intervals of Figure 4 prune as early as possible.
func (c *compiler) buildOrders() {
	k := len(c.out.Leaves)
	c.out.Orders = make([][]int, k)
	for t := 0; t < k; t++ {
		if !c.out.Terminating[t] {
			continue
		}
		order := make([]int, 0, k)
		placed := make([]bool, k)
		order = append(order, t)
		placed[t] = true
		for len(order) < k {
			best, bestScore := -1, -1
			for cand := 0; cand < k; cand++ {
				if placed[cand] {
					continue
				}
				score := 0
				for _, p := range order {
					if c.out.Rel[cand][p] != RelNone {
						score++
						if c.out.Rel[cand][p] == RelLink {
							score += k // links pin the event exactly; place first
						}
					}
				}
				if score > bestScore {
					best, bestScore = cand, score
				}
			}
			order = append(order, best)
			placed[best] = true
		}
		c.out.Orders[t] = order
	}
}

// TerminatingLeaves returns the indices of the terminating leaves in
// ascending order.
func (c *Compiled) TerminatingLeaves() []int {
	var out []int
	for i, t := range c.Terminating {
		if t {
			out = append(out, i)
		}
	}
	sort.Ints(out)
	return out
}
