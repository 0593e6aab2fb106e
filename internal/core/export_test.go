package core

import (
	"ocep/internal/event"
	"ocep/internal/pattern"
)

// The interpreted execution (the per-leaf class scan in advance, the Rel
// matrix in search.rel, the k×k scan in checkLim, fresh search state)
// is the reference the compiled execution is differentially tested
// against. These constructors are the only way to select it, and they
// exist only in this package's test binary.

// NewInterpretedMatcher is NewMatcher running the interpreted reference.
func NewInterpretedMatcher(pat *pattern.Compiled, opts Options) *Matcher {
	m := NewMatcher(pat, opts)
	m.compiled = false
	return m
}

// NewInterpretedMatcherOn is NewMatcherOn running the interpreted
// reference.
func NewInterpretedMatcherOn(pat *pattern.Compiled, st *event.Store, opts Options) *Matcher {
	m := NewMatcherOn(pat, st, opts)
	m.compiled = false
	return m
}

// Compiled reports which execution m runs, so a differential test can
// check that it really compares two.
func (m *Matcher) Compiled() bool { return m.compiled }
