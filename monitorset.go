package ocep

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"ocep/internal/core"
	"ocep/internal/poet"
)

// MonitorSet manages several named pattern monitors over one collector —
// the deployment shape of a POET server watching a whole application
// suite for different safety conditions at once.
//
// Attach folds the eligible members (synchronous, without
// per-monitor timing or metrics — see Monitor.sharedDispatchEligible)
// behind one shared class-indexed dispatcher: the collector delivers
// each event once, and the dispatcher's per-event-type index routes it
// only to the members whose pattern leaves could match it, so a set of
// many patterns over mostly disjoint event classes pays per event
// roughly the cost of one pattern. Ineligible members attach with their
// own subscriptions exactly as before; results (matches, Stats,
// Coverage, Err) are identical either way.
type MonitorSet struct {
	mu       sync.Mutex
	monitors map[string]*Monitor
	onMatch  func(pattern string, m Match)
	attached *Collector
	// disp and dispSub are the live shared dispatcher and its collector
	// subscription; nil when no eligible members are attached.
	disp    *core.Dispatcher
	dispSub *poet.Subscription
}

// NewMonitorSet returns an empty set. fn, when non-nil, receives every
// match reported by any member, tagged with the member's name (in
// addition to any per-monitor handlers).
//
// fn runs outside the reporting member's lock, so it may call the set's
// and the members' read methods (Stats, Coverage, DeliveryStats, Err).
// For members attached synchronously it still runs on the collector's
// delivery path and must not call back into the Collector; for members
// added with WithAsyncDelivery it runs on that member's delivery
// goroutine and may use the collector freely. Flush and Detach must not
// be called from fn (they wait for the very goroutine running it).
func NewMonitorSet(fn func(pattern string, m Match)) *MonitorSet {
	return &MonitorSet{
		monitors: make(map[string]*Monitor),
		onMatch:  fn,
	}
}

// Add compiles a pattern and registers it under the given name. If the
// set is already attached to a collector, the new monitor attaches
// immediately (replaying the delivered history) with its own
// subscription; re-Attach the set to fold it into the shared
// class-indexed dispatcher (the collector offers no atomic replay into
// an already-subscribed dispatcher, so a late member cannot join one
// without a gap).
func (s *MonitorSet) Add(name, source string, options ...Option) error {
	if s.onMatch != nil {
		fn := s.onMatch
		options = append(options, WithMatchHandler(func(m Match) {
			fn(name, m)
		}))
	}
	mon, err := NewMonitor(source, options...)
	if err != nil {
		return fmt.Errorf("ocep: monitor %q: %w", name, err)
	}
	s.mu.Lock()
	if _, dup := s.monitors[name]; dup {
		s.mu.Unlock()
		return fmt.Errorf("ocep: monitor %q already registered", name)
	}
	s.monitors[name] = mon
	c := s.attached
	s.mu.Unlock()
	// Attach outside the set lock: the collector lock is taken during
	// attachment while match callbacks run under the collector lock, so
	// holding the set lock here would order locks both ways.
	if c != nil {
		mon.Attach(c)
	}
	return nil
}

// Attach subscribes every registered monitor to the collector (replaying
// already-delivered history), and auto-attaches monitors added later.
// Eligible members share one class-indexed dispatcher subscription; the
// rest subscribe individually (see the type comment).
func (s *MonitorSet) Attach(c *Collector) {
	s.detachShared()
	s.mu.Lock()
	s.attached = c
	members := make([]*Monitor, 0, len(s.monitors))
	for _, mon := range s.monitors {
		members = append(members, mon)
	}
	s.mu.Unlock()
	// Attach outside the set lock (see Add for the ordering rationale).
	var shared []*Monitor
	for _, mon := range members {
		if mon.sharedDispatchEligible() {
			shared = append(shared, mon)
		} else {
			mon.Attach(c)
		}
	}
	if len(shared) == 0 {
		return
	}
	d := core.NewDispatcher(c.Store())
	for _, mon := range shared {
		mon.joinDispatcher(d, c)
	}
	// Members joined first, subscription second: SubscribeReplay replays
	// the delivered history atomically with registration, so every
	// member observes the full stream with no gap.
	sub := c.SubscribeReplayPinned(func(e *Event) {
		if err := d.Feed(e); err != nil {
			for _, mon := range shared {
				mon.recordErr(err)
			}
		}
	}, d.HistoryFloor)
	s.mu.Lock()
	s.disp, s.dispSub = d, sub
	s.mu.Unlock()
}

// detachShared cancels the shared dispatcher subscription, if any.
func (s *MonitorSet) detachShared() {
	s.mu.Lock()
	sub := s.dispSub
	s.disp, s.dispSub = nil, nil
	s.mu.Unlock()
	if sub != nil {
		sub.Cancel()
	}
}

// DispatchStats returns the shared dispatcher's counters: events
// dispatched, member feeds run, and member feeds skipped by the class
// index. Zero when the set is not attached or no member was eligible
// for shared dispatch.
func (s *MonitorSet) DispatchStats() DispatchStats {
	s.mu.Lock()
	d := s.disp
	s.mu.Unlock()
	if d == nil {
		return DispatchStats{}
	}
	return d.Stats()
}

// Names returns the registered pattern names, sorted.
func (s *MonitorSet) Names() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.monitors))
	for n := range s.monitors {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Monitor returns the named member.
func (s *MonitorSet) Monitor(name string) (*Monitor, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.monitors[name]
	return m, ok
}

// Stats returns every member's counters keyed by name.
func (s *MonitorSet) Stats() map[string]MatcherStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]MatcherStats, len(s.monitors))
	for n, m := range s.monitors {
		out[n] = m.Stats()
	}
	return out
}

// DeliveryStats returns every member's delivery-queue counters keyed by
// name (zero values for synchronously attached members).
func (s *MonitorSet) DeliveryStats() map[string]DeliveryStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]DeliveryStats, len(s.monitors))
	for n, m := range s.monitors {
		out[n] = m.DeliveryStats()
	}
	return out
}

// members snapshots the registered monitors outside operations that must
// not hold the set lock while waiting.
func (s *MonitorSet) members() []*Monitor {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Monitor, 0, len(s.monitors))
	for _, m := range s.monitors {
		out = append(out, m)
	}
	return out
}

// Flush blocks until every member has consumed every event delivered
// before the call — the set-wide drain protocol. Synchronous members
// need no draining; async members' queues are flushed. Must not be
// called from a match callback.
func (s *MonitorSet) Flush() {
	for _, m := range s.members() {
		m.Flush()
	}
}

// Detach cancels every member's collector subscription, draining async
// queues and stopping their delivery goroutines. The set can be attached
// again afterwards. Safe to call more than once.
func (s *MonitorSet) Detach() {
	s.detachShared()
	s.mu.Lock()
	s.attached = nil
	s.mu.Unlock()
	for _, m := range s.members() {
		m.Detach()
	}
}

// Err joins the members' subscription errors.
func (s *MonitorSet) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var errs []error
	for n, m := range s.monitors {
		if err := m.Err(); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", n, err))
		}
	}
	return errors.Join(errs...)
}
