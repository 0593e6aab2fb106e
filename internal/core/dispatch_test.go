package core_test

import (
	"math/rand"
	"testing"

	"ocep/internal/core"
	"ocep/internal/event"
	"ocep/internal/event/eventtest"
	"ocep/internal/pattern"
)

// dispatchFeed replays evs through a Dispatcher over the matchers,
// collecting per-matcher match counts keyed by the matcher's index.
func dispatchFeed(t *testing.T, d *core.Dispatcher, ms []*core.Matcher, evs []*event.Event) []int {
	t.Helper()
	counts := make([]int, len(ms))
	for i, m := range ms {
		i, m := i, m
		d.Add(m, func(e *event.Event, commAt int) {
			counts[i] += len(m.FeedDispatched(e, commAt))
		})
	}
	for _, e := range evs {
		if err := d.Feed(e); err != nil {
			t.Fatalf("dispatch feed %s: %v", e.ID, err)
		}
	}
	return counts
}

// soloFeed replays evs through one matcher sharing the store, the
// dispatcher-free reference path.
func soloFeed(t *testing.T, m *core.Matcher, evs []*event.Event) (*core.Matcher, []core.Match) {
	t.Helper()
	var all []core.Match
	for _, e := range evs {
		got, err := m.Feed(e)
		if err != nil {
			t.Fatalf("solo feed %s: %v", e.ID, err)
		}
		all = append(all, got...)
	}
	return m, all
}

// TestDispatcherMatchesSoloFeed routes one random workload through a
// dispatcher whose members cover every classification the index makes —
// exact-typed (indexed), wildcard-leaf (always list) and evictable
// (always list, so eviction timing is unchanged) — plus one running the
// interpreted reference, and checks each member against a solo matcher
// over the same store: identical match counts and identical Stats,
// EventsSeen covering the whole stream even for members the index
// mostly skipped.
func TestDispatcherMatchesSoloFeed(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	st, evs := eventtest.Random(rng, eventtest.RandomConfig{
		Traces: 3, Events: 120, SendProb: 0.3, RecvProb: 0.3,
		Types: []string{"a", "b", "c"},
	})
	members := []struct {
		name  string
		src   string
		opts  core.Options
		build func(*pattern.Compiled, *event.Store, core.Options) *core.Matcher
	}{
		{"indexed", `A := [*, a, *]; B := [*, b, *]; pattern := A -> B;`,
			core.Options{RepresentativeOnly: true}, core.NewMatcherOn},
		{"absent-type", `A := [*, x, *]; B := [*, y, *]; pattern := A -> B;`,
			core.Options{RepresentativeOnly: true}, core.NewMatcherOn},
		{"wildcard-leaf", `A := [*, *, *]; B := [*, b, *]; pattern := A -> B;`,
			core.Options{RepresentativeOnly: true}, core.NewMatcherOn},
		{"interpreted", `A := [*, a, *]; B := [*, b, *]; pattern := A -> B;`,
			core.Options{RepresentativeOnly: true}, core.NewInterpretedMatcherOn},
		{"evictable", `A := [*, a, *]; B := [*, b, *]; pattern := A -> B;`,
			core.Options{RepresentativeOnly: true, MaxHistoryPerTrace: 4}, core.NewMatcherOn},
	}
	pats := make([]*pattern.Compiled, len(members))
	ms := make([]*core.Matcher, len(members))
	for i, mem := range members {
		pats[i] = compile(t, mem.src)
		ms[i] = mem.build(pats[i], st, mem.opts)
	}
	d := core.NewDispatcher(st)
	counts := dispatchFeed(t, d, ms, evs)
	for i, mem := range members {
		solo, soloMatches := soloFeed(t, mem.build(pats[i], st, mem.opts), evs)
		if counts[i] != len(soloMatches) {
			t.Errorf("%s: %d matches via dispatcher, %d solo", mem.name, counts[i], len(soloMatches))
		}
		ds, ss := ms[i].Stats(), solo.Stats()
		if ds != ss {
			t.Errorf("%s: stats diverged\ndispatched %+v\nsolo       %+v", mem.name, ds, ss)
		}
		if ds.EventsSeen != len(evs) {
			t.Errorf("%s: EventsSeen = %d, want the full stream %d", mem.name, ds.EventsSeen, len(evs))
		}
	}
	if got := d.Stats(); got.Skipped == 0 {
		t.Errorf("no member feed skipped: the class index did nothing (%+v)", got)
	}
	// The "indexed" member only matched once at least: the workload
	// carries a/b, so a zero count would make the comparison vacuous.
	if counts[0] == 0 {
		t.Error("indexed member matched nothing: differential is vacuous")
	}
}

// TestDispatcherSkipCounting pins the visit/skip arithmetic on a
// hand-built stream: two indexed members over disjoint types, so each
// event visits exactly one member and skips the other.
func TestDispatcherSkipCounting(t *testing.T) {
	st, evs := eventtest.Build(2, []eventtest.Op{
		{Trace: 0, Kind: event.KindInternal, Type: "a"},
		{Trace: 1, Kind: event.KindInternal, Type: "b"},
		{Trace: 0, Kind: event.KindInternal, Type: "a"},
	})
	ms := []*core.Matcher{
		core.NewMatcherOn(compile(t, `A := [*, a, *]; A $x; A $y; pattern := $x -> $y;`), st, core.Options{RepresentativeOnly: true}),
		core.NewMatcherOn(compile(t, `B := [*, b, *]; B $x; B $y; pattern := $x -> $y;`), st, core.Options{RepresentativeOnly: true}),
	}
	d := core.NewDispatcher(st)
	dispatchFeed(t, d, ms, evs)
	got := d.Stats()
	want := core.DispatchStats{Events: 3, Visited: 3, Skipped: 3, Members: 2}
	if got != want {
		t.Fatalf("dispatch stats = %+v, want %+v", got, want)
	}
}

// TestDispatcherRemoveFreezesEventsSeen removes a member mid-stream:
// its EventsSeen must freeze at the removal point while the remaining
// member keeps counting, and the removed matcher must observe no
// further events.
func TestDispatcherRemoveFreezesEventsSeen(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	st, evs := eventtest.Random(rng, eventtest.RandomConfig{
		Traces: 2, Events: 40, SendProb: 0.3, RecvProb: 0.3,
		Types: []string{"a", "b"},
	})
	pat := compile(t, `A := [*, a, *]; B := [*, b, *]; pattern := A -> B;`)
	keep := core.NewMatcherOn(pat, st, core.Options{RepresentativeOnly: true})
	drop := core.NewMatcherOn(pat, st, core.Options{RepresentativeOnly: true})
	d := core.NewDispatcher(st)
	d.Add(keep, nil)
	d.Add(drop, nil)
	half := len(evs) / 2
	for _, e := range evs[:half] {
		if err := d.Feed(e); err != nil {
			t.Fatal(err)
		}
	}
	d.Remove(drop)
	for _, e := range evs[half:] {
		if err := d.Feed(e); err != nil {
			t.Fatal(err)
		}
	}
	if got := drop.Stats().EventsSeen; got != half {
		t.Errorf("removed member EventsSeen = %d, want frozen at %d", got, half)
	}
	if got := keep.Stats().EventsSeen; got != len(evs) {
		t.Errorf("remaining member EventsSeen = %d, want %d", got, len(evs))
	}
	if got := d.Stats().Members; got != 1 {
		t.Errorf("members after removal = %d, want 1", got)
	}
	// The frozen count must survive later dispatcher activity: Stats is
	// derived from the member's own counters once unbound.
	if got := drop.Stats().EventsSeen; got != half {
		t.Errorf("removed member EventsSeen drifted to %d after more dispatch", got)
	}
}

// TestDispatcherReAddRebuildsIndex re-registers a matcher that was
// removed: the rebuilt class index must route its types again (no stale
// compiled state from the first registration), and the resumed counting
// must cover exactly the events dispatched while it was a member.
func TestDispatcherReAddRebuildsIndex(t *testing.T) {
	st, evs := eventtest.Build(1, []eventtest.Op{
		{Trace: 0, Kind: event.KindInternal, Type: "a"},
		{Trace: 0, Kind: event.KindInternal, Type: "a"},
		{Trace: 0, Kind: event.KindInternal, Type: "a"},
		{Trace: 0, Kind: event.KindInternal, Type: "a"},
	})
	pat := compile(t, `A := [*, a, *]; A $x; A $y; pattern := $x -> $y;`)
	m := core.NewMatcherOn(pat, st, core.Options{ReportAll: true, DisablePruning: true})
	d := core.NewDispatcher(st)
	matched := 0
	add := func() {
		d.Add(m, func(e *event.Event, commAt int) {
			matched += len(m.FeedDispatched(e, commAt))
		})
	}
	add()
	if err := d.Feed(evs[0]); err != nil {
		t.Fatal(err)
	}
	d.Remove(m)
	if err := d.Feed(evs[1]); err != nil { // not observed by m
		t.Fatal(err)
	}
	add()
	for _, e := range evs[2:] {
		if err := d.Feed(e); err != nil {
			t.Fatal(err)
		}
	}
	// m observed events 0, 2 and 3 (event 1 fell in the removed gap):
	// same-trace internals are totally ordered, so $x -> $y fires for
	// (0,2) at event 2 and for (0,3), (2,3) at event 3.
	if matched != 3 {
		t.Errorf("matches after re-add = %d, want 3 (index not rebuilt?)", matched)
	}
	if got := m.Stats().EventsSeen; got != 3 {
		t.Errorf("EventsSeen after re-add = %d, want 3 (member for events 0, 2, 3)", got)
	}
}

// TestDispatcherRejectsForeignEvent: feeding an event that is not the
// store's own pointer for its ID is a stream error, not a silent
// divergence.
func TestDispatcherRejectsForeignEvent(t *testing.T) {
	st, evs := eventtest.Build(1, []eventtest.Op{
		{Trace: 0, Kind: event.KindInternal, Type: "a"},
	})
	d := core.NewDispatcher(st)
	copied := *evs[0]
	if err := d.Feed(&copied); err == nil {
		t.Fatal("dispatching a copied event succeeded; want store-membership error")
	}
}
