package core

import "time"

// budget is the per-trigger resource governor: one instance is created
// per trigger (when any of MaxTriggerSteps, TriggerDeadline or
// MaxTriggerMatches is set) and shared by every search that serves the
// trigger — the main search and the GuaranteeCoverage pinned sweeps,
// which run one after another — so the configured ceiling bounds the
// trigger's total work, not each search's. Once exhausted it stays
// exhausted, and every later search of the trigger stops at its first
// check.
//
// A nil *budget is valid and means "unlimited"; every method is a
// nil-safe no-op, so the un-governed fast path costs one nil check.
type budget struct {
	maxSteps int
	maxFound int
	deadline time.Time

	steps     int
	found     int
	exhausted bool
}

// deadlinePollMask throttles the time.Now() syscall on the step path:
// the deadline is checked once every 64 steps, so a trigger can overrun
// TriggerDeadline by at most 64 candidate instantiations.
const deadlinePollMask = 63

// newBudget builds the trigger's budget, or nil when no ceiling is
// configured.
func newBudget(opts Options) *budget {
	if opts.MaxTriggerSteps <= 0 && opts.TriggerDeadline <= 0 && opts.MaxTriggerMatches <= 0 {
		return nil
	}
	b := &budget{
		maxSteps: opts.MaxTriggerSteps,
		maxFound: opts.MaxTriggerMatches,
	}
	if opts.TriggerDeadline > 0 {
		b.deadline = time.Now().Add(opts.TriggerDeadline)
	}
	return b
}

// step consumes one search step (a goForward candidate-loop iteration)
// and reports whether the search may continue. False means the budget
// is exhausted.
func (b *budget) step() bool {
	if b == nil {
		return true
	}
	if b.exhausted {
		return false
	}
	b.steps++
	if b.maxSteps > 0 && b.steps > b.maxSteps {
		b.exhausted = true
	} else if !b.deadline.IsZero() && b.steps&deadlinePollMask == 0 && time.Now().After(b.deadline) {
		b.exhausted = true
	}
	return !b.exhausted
}

// out reports whether the budget has been exhausted.
func (b *budget) out() bool { return b != nil && b.exhausted }

// noteMatch accounts one complete match against MaxTriggerMatches: the
// match that fills the cap is still reported, and it exhausts the
// budget, so the search stops at its next step check.
func (b *budget) noteMatch() {
	if b == nil || b.maxFound <= 0 {
		return
	}
	b.found++
	if b.found >= b.maxFound {
		b.exhausted = true
	}
}
