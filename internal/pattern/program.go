package pattern

// This file holds the compiled execution form of a pattern — the
// structures the matcher's hot path reads instead of walking the generic
// AST-derived Compiled representation.
//
// A Compiled pattern is the semantic form: a leaf list, a k×k relation
// matrix of slices, and class pointers whose attribute specs are matched
// by interpreting AttrKind switches. That layout is ideal for the
// compiler and the explain/describe tooling, but on the trigger path it
// costs an O(k) class scan per arriving event per pattern, and
// pointer-chasing per relation lookup inside the search. A Program is
// built once, at matcher construction, and denormalizes everything the
// per-event and per-candidate loops touch:
//
//   - a type-indexed trigger table (TypeIndex/AlwaysMask): one map
//     lookup yields the bitmask of leaves an event of that type could
//     match, so an event whose type no leaf accepts is rejected with no
//     per-leaf work at all — and a Dispatcher aggregates these masks
//     across many attached patterns, skipping whole patterns;
//   - the relation matrix flattened into one contiguous slice (Rel),
//     read with a single multiply-add instead of two slice derefs;
//   - the lim-> pair list (LimPairs) so the per-complete-match
//     completion check no longer scans the full k×k matrix;
//   - denormalized attribute specs (procs/types/texts) for the
//     variable-free prefilter, laid out contiguously.
//
// The Program carries no matcher state: it is immutable after
// NewProgram and safe to share between matchers and goroutines.

// MaxIndexLeaves bounds the pattern length: a LeafMask holds one bit per
// leaf, and Compile refuses a longer pattern. No realistic pattern
// approaches it (the paper's case studies use 2-6 leaves).
const MaxIndexLeaves = 64

// LeafMask is a bitset over a Program's leaves (bit i = leaf i).
type LeafMask uint64

// Program is the compiled execution form of one pattern. Build with
// NewProgram; immutable afterwards.
type Program struct {
	// Source is the semantic form the program was compiled from.
	Source *Compiled

	k       int
	relFlat []Rel

	limPairs [][2]int
	hasLim   bool

	term     []int
	termMask LeafMask

	typeIndex  map[string]LeafMask
	alwaysMask LeafMask

	procs []AttrSpec
	types []AttrSpec
	texts []AttrSpec
}

// NewProgram compiles the execution form of a pattern.
func NewProgram(c *Compiled) *Program {
	k := c.K()
	p := &Program{
		Source:    c,
		k:         k,
		relFlat:   make([]Rel, k*k),
		typeIndex: make(map[string]LeafMask),
		procs:     make([]AttrSpec, k),
		types:     make([]AttrSpec, k),
		texts:     make([]AttrSpec, k),
	}
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			r := c.Rel[i][j]
			p.relFlat[i*k+j] = r
			if r == RelLim {
				p.limPairs = append(p.limPairs, [2]int{i, j})
				p.hasLim = true
			}
		}
		cls := c.Leaves[i].Class
		p.procs[i], p.types[i], p.texts[i] = cls.Proc, cls.Type, cls.Text
		bit := LeafMask(1) << uint(i)
		if c.Terminating[i] {
			p.term = append(p.term, i)
			p.termMask |= bit
		}
		if p.types[i].Kind == AttrExact {
			p.typeIndex[p.types[i].Value] |= bit
		} else {
			p.alwaysMask |= bit
		}
	}
	return p
}

// K returns the pattern length.
func (p *Program) K() int { return p.k }

// Rel returns the relation between leaves i and j from i's perspective,
// out of the flattened table.
func (p *Program) Rel(i, j int) Rel { return p.relFlat[i*p.k+j] }

// LimPairs returns the (i, j) pairs with Rel[i][j] == RelLim. Callers
// must not modify it.
func (p *Program) LimPairs() [][2]int { return p.limPairs }

// HasLim reports whether the pattern uses limited precedence, whose
// completion check needs full class histories (disables pruning and
// eviction).
func (p *Program) HasLim() bool { return p.hasLim }

// Terminating returns the terminating leaf indices in ascending order.
// Callers must not modify it.
func (p *Program) Terminating() []int { return p.term }

// TermMask returns the bitmask of terminating leaves.
func (p *Program) TermMask() LeafMask { return p.termMask }

// AlwaysMask returns the leaves whose type attribute is not exact: they
// must be considered for every arriving event regardless of its type.
func (p *Program) AlwaysMask() LeafMask { return p.alwaysMask }

// ExactTypes returns the distinct exact type strings the program's
// leaves require, in no particular order. A Dispatcher uses them to
// index whole patterns by event type.
func (p *Program) ExactTypes() []string {
	out := make([]string, 0, len(p.typeIndex))
	for t := range p.typeIndex {
		out = append(out, t)
	}
	return out
}

// CandidateLeaves returns the bitmask of leaves an event of the given
// type could match, before the proc/text prefilter: the leaves whose
// exact type equals typ plus the leaves whose type is a wildcard or
// variable. Zero means no leaf can match and the event needs no further
// per-leaf work.
func (p *Program) CandidateLeaves(typ string) LeafMask {
	return p.typeIndex[typ] | p.alwaysMask
}

// attrAccepts mirrors the interpreted MatchesIgnoringVars attribute
// check: exact specs must equal the value, wildcards and variables
// accept anything.
func attrAccepts(s AttrSpec, v string) bool {
	return s.Kind != AttrExact || s.Value == v
}

// LeafMatchesIgnoringVars reports whether the event could match leaf i
// under some environment, using the denormalized specs. It is the
// compiled equivalent of Leaf.Class.MatchesIgnoringVars.
func (p *Program) LeafMatchesIgnoringVars(i int, typ, text, traceName string) bool {
	return attrAccepts(p.types[i], typ) &&
		attrAccepts(p.procs[i], traceName) &&
		attrAccepts(p.texts[i], text)
}
