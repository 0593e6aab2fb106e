package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"ocep/internal/event"
)

// Dispatcher fans one delivered event stream out to many matchers
// through a shared class index, so an arriving event only touches the
// matchers whose patterns could match it. Each member's Program
// publishes the exact event types its leaves require; the dispatcher
// merges those into one map from type to member list, and an event pays
// one lookup plus the members that subscribe to its type — a matcher
// none of whose leaves accept the type costs nothing per event. This is
// what makes the many-patterns regime flat: with 100 attached patterns
// over disjoint event classes, the per-event work is that of roughly
// one pattern, not 100.
//
// Members that must observe every event sit in an always-visit list:
// matchers with a wildcard- or variable-typed leaf (any type can
// match) and matchers with history eviction enabled (eviction decisions
// are made per arriving event, so skipping events would change eviction
// timing and, under MaxHistoryPerTrace, the match set).
//
// The dispatcher owns the per-trace communication counts and the
// stream validation its members would otherwise each repeat, and it
// counts the stream for them: a member's Stats().EventsSeen covers
// every dispatched event, not only the ones its index selected.
//
// Feed locks the dispatcher and then runs member feed callbacks, which
// typically take per-monitor locks; the lock order is therefore
// collector → dispatcher → monitor, and member callbacks must not call
// back into the dispatcher.
type Dispatcher struct {
	mu    sync.Mutex
	store *event.Store
	// members is every registered member in registration order.
	members []*dispatchMember
	// byType[t] lists the members whose trigger index subscribes to
	// exact event type t; always lists the members visited for every
	// event. The two are disjoint.
	byType map[string][]*dispatchMember
	always []*dispatchMember
	// comm counts, per trace, the communication events dispatched so
	// far (delivery-time counts for the members' duplicate rule).
	comm []int
	// seen counts dispatched events; members derive EventsSeen from it.
	seen   atomic.Int64
	visits int64
	skips  int64
}

type dispatchMember struct {
	m    *Matcher
	feed func(e *event.Event, commAt int)
}

// DispatchStats are cumulative dispatcher counters.
type DispatchStats struct {
	// Events counts events dispatched.
	Events int64
	// Visited counts member feeds actually run.
	Visited int64
	// Skipped counts member feeds avoided by the class index: the sum
	// over events of (members - visited members). Skipped/(Visited+
	// Skipped) is the skip rate (the ledger's dispatch.skip_ratio).
	Skipped int64
	// Members is the current member count.
	Members int
}

// NewDispatcher builds a dispatcher over the shared event store its
// members were built on (NewMatcherOn with the same store).
func NewDispatcher(st *event.Store) *Dispatcher {
	return &Dispatcher{store: st, byType: make(map[string][]*dispatchMember)}
}

// Add registers a matcher. feed, when non-nil, is invoked — in delivery
// order, under the dispatcher lock — once per event the matcher must
// examine, and must route the event to m.FeedDispatched (wrapping it in
// the member's own locking and match delivery); nil feeds the matcher
// directly and discards matches (read results via Stats/Coverage). The
// matcher must share the dispatcher's store.
func (d *Dispatcher) Add(m *Matcher, feed func(e *event.Event, commAt int)) {
	if feed == nil {
		feed = func(e *event.Event, commAt int) { m.FeedDispatched(e, commAt) }
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	m.bindDispatcher(&d.seen)
	d.members = append(d.members, &dispatchMember{m: m, feed: feed})
	d.rebuild()
}

// Remove deregisters a matcher, freezing its dispatcher-derived
// EventsSeen into its own counters. Safe to call for a matcher that is
// not a member.
func (d *Dispatcher) Remove(m *Matcher) {
	d.mu.Lock()
	defer d.mu.Unlock()
	kept := d.members[:0]
	for _, mem := range d.members {
		if mem.m == m {
			m.unbindDispatcher()
			continue
		}
		kept = append(kept, mem)
	}
	// Clear the truncated tail: the in-place filter leaves the removed
	// member's pointer alive in the backing array, which would pin the
	// detached matcher (and its histories) against the GC for as long
	// as the dispatcher lives.
	tail := d.members[len(kept):]
	for i := range tail {
		tail[i] = nil
	}
	d.members = kept
	d.rebuild()
}

// HistoryFloor is the lowest of the members' HistoryFloor(t).
func (d *Dispatcher) HistoryFloor(t event.TraceID) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	floor := math.MaxInt
	for _, mem := range d.members {
		floor = min(floor, mem.m.HistoryFloor(t))
	}
	return floor
}

// rebuild recomputes the class index from scratch. Called with d.mu
// held on every membership change, so a re-added matcher (detach then
// attach) always gets fresh index entries — there is no incremental
// state to go stale.
func (d *Dispatcher) rebuild() {
	d.byType = make(map[string][]*dispatchMember, len(d.byType))
	d.always = d.always[:0]
	for _, mem := range d.members {
		prog := mem.m.Program()
		indexed := prog.AlwaysMask() == 0 && !mem.m.evictable
		if !indexed {
			d.always = append(d.always, mem)
			continue
		}
		for _, t := range prog.ExactTypes() {
			d.byType[t] = append(d.byType[t], mem)
		}
	}
}

// Feed dispatches the next event of the linearized delivery stream:
// always-visit members first, then the exact-type subscribers. A member
// appears at most once per event (a program registers one bit-merged
// mask per distinct type, and indexed and always membership are
// exclusive), so per-member delivery order matches the solo path.
func (d *Dispatcher) Feed(e *event.Event) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if got := d.store.Get(e.ID); got != e {
		return fmt.Errorf("dispatch: event %s not present in the shared store", e.ID)
	}
	t := int(e.ID.Trace)
	for t >= len(d.comm) {
		d.comm = append(d.comm, 0)
	}
	if e.Kind.IsComm() {
		d.comm[t]++
	}
	commAt := d.comm[t]
	d.seen.Add(1)
	visited := int64(0)
	for _, mem := range d.always {
		mem.feed(e, commAt)
		visited++
	}
	for _, mem := range d.byType[e.Type] {
		mem.feed(e, commAt)
		visited++
	}
	d.visits += visited
	d.skips += int64(len(d.members)) - visited
	return nil
}

// Stats returns the cumulative dispatch counters.
func (d *Dispatcher) Stats() DispatchStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return DispatchStats{
		Events:  d.seen.Load(),
		Visited: d.visits,
		Skipped: d.skips,
		Members: len(d.members),
	}
}
