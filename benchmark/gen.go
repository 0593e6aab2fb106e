package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"

	"ocep/internal/event"
	"ocep/internal/mpi"
	"ocep/internal/poet"
	"ocep/internal/ucpp"
	casestudy "ocep/internal/workload"
)

// The generators below are the benchmark's own: single-goroutine and
// seeded, so one seed is one byte-identical stream. (The
// internal/workload generators run real goroutines against a sink and
// never emit the same arrival order twice.) They reproduce the event
// shapes of those case studies — same types, kinds and texts — so the
// case-study patterns match them unchanged.

// Input is one workload's generated event stream, in arrival order.
type Input struct {
	Events  []poet.RawEvent
	Pattern string
	// Trigger is the event type that can complete a match of Pattern: an
	// event of this type starts a matcher search.
	Trigger string
	// pos maps (trace name, seq-1) to the event's index in Events, so a
	// delivered event can be traced back to the moment it was due.
	pos map[string][]int32
}

// index builds pos; generators call it last.
func (in *Input) index() *Input {
	in.pos = make(map[string][]int32)
	for i, e := range in.Events {
		if e.Seq != len(in.pos[e.Trace])+1 {
			panic(fmt.Sprintf("benchmark: generator bug: %s seq %d after %d events", e.Trace, e.Seq, len(in.pos[e.Trace])))
		}
		in.pos[e.Trace] = append(in.pos[e.Trace], int32(i))
	}
	return in
}

// SHA256 fingerprints the stream: every field of every event, in order.
func (in *Input) SHA256() string {
	h := sha256.New()
	var num [8]byte
	for _, e := range in.Events {
		for _, s := range []string{e.Trace, e.Type, e.Text} {
			binary.LittleEndian.PutUint64(num[:], uint64(len(s)))
			h.Write(num[:])
			h.Write([]byte(s))
		}
		binary.LittleEndian.PutUint64(num[:], uint64(e.Seq))
		h.Write(num[:])
		binary.LittleEndian.PutUint64(num[:], uint64(e.Kind))
		h.Write(num[:])
		binary.LittleEndian.PutUint64(num[:], e.MsgID)
		h.Write(num[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// emitter appends events, keeping per-trace sequence numbers and a
// stream-wide message-id counter.
type emitter struct {
	events []poet.RawEvent
	seq    map[string]int
	msg    uint64
}

func newEmitter(capacity int) *emitter {
	return &emitter{events: make([]poet.RawEvent, 0, capacity), seq: make(map[string]int)}
}

func (g *emitter) emit(trace string, kind event.Kind, typ, text string, msg uint64) {
	g.seq[trace]++
	g.events = append(g.events, poet.RawEvent{
		Trace: trace, Seq: g.seq[trace], Kind: kind, Type: typ, Text: text, MsgID: msg,
	})
}

func (g *emitter) nextMsg() uint64 {
	g.msg++
	return g.msg
}

// genAtomicity is the atomicity-violation case (paper V-C3): threads
// threads execute a semaphore-protected method in lockstep rounds, and
// a seeded bugProb share of executions skips the semaphore, leaving its
// method_enter concurrent with the round's protected ones. A protected
// execution is 8 events (6 on the thread, 2 on the semaphore trace), one
// of which — method_enter — triggers a search. Arrival order is causal:
// every acquire arrives after the release it pairs with.
func genAtomicity(seed int64, threads, events int, bugProb float64) *Input {
	const sem = "method-sem"
	r := rand.New(rand.NewSource(seed))
	names := make([]string, threads)
	for i := range names {
		names[i] = fmt.Sprintf("thread-%d", i)
	}
	g := newEmitter(events + 8*threads)
	rounds := events / (8 * threads)
	if rounds < 1 {
		rounds = 1
	}
	for round := 0; round < rounds; round++ {
		order := r.Perm(threads)
		for _, t := range order {
			g.emit(names[t], event.KindInternal, "local_compute", "", 0)
		}
		for _, t := range order {
			th := names[t]
			buggy := r.Float64() < bugProb
			if !buggy {
				id := g.nextMsg()
				g.emit(sem, event.KindSyncRelease, ucpp.TypeGrantOut, th, id)
				g.emit(th, event.KindSyncAcquire, ucpp.TypeP, sem, id)
			}
			g.emit(th, event.KindInternal, "method_enter", "critical", 0)
			g.emit(th, event.KindInternal, "method_work", "critical", 0)
			g.emit(th, event.KindInternal, "method_exit", "critical", 0)
			if !buggy {
				id := g.nextMsg()
				g.emit(th, event.KindSyncRelease, ucpp.TypeV, sem, id)
				g.emit(sem, event.KindSyncAcquire, ucpp.TypeGrantIn, th, id)
			}
		}
	}
	in := &Input{Events: g.events, Pattern: casestudy.AtomicityPattern(), Trigger: "method_enter"}
	return in.index()
}

// ringPattern is the rare-trigger pattern of the ring workloads: a mark
// anywhere that happens before an alert anywhere. Only an alert can
// complete a match, and both types are rare, so the matcher idles while
// every other layer works.
const ringPattern = `
	A := [*, mark, *];
	B := [*, alert, *];
	pattern := A -> B;
`

// ringChunk is how many consecutive events one trace contributes before
// the next trace's events arrive.
const ringChunk = 64

// genRing is a token ring: per round every trace reports ringInternal
// internal events and one send to its successor, and starts the round
// by receiving what its predecessor sent one round earlier. Arrival is
// trace-major: the stream is a sequence of sweeps, each taking the next
// ringChunk events of every trace in ring order, predecessor first —
// except for a seeded share of adjacent pairs that are swapped, so that
// the later trace's receives of the chunk arrive before the sends they
// pair with and sit in the collector's pending buffer until the
// predecessor's chunk lands right after. earlyShare is the share of
// traces swapped per sweep.
//
// The ring has to close somewhere: trace 0 is first in every sweep and
// its predecessor last, so on that one edge the receives run
// ringCloseLag rounds behind instead of one. A chunk is under seven
// rounds, so trace 0 never waits a whole sweep for its predecessor —
// which would be a latency of the input's making, not the system's.
func genRing(seed int64, traces, events int, earlyShare float64) *Input {
	const ringInternal = 8
	const ringCloseLag = 8
	const rareProb = 0.0005 // per internal event, for each of mark and alert
	r := rand.New(rand.NewSource(seed))
	names := make([]string, traces)
	for i := range names {
		names[i] = fmt.Sprintf("p%d", i)
	}
	perRound := ringInternal + 2
	rounds := events / (traces * perRound)
	if rounds < 2 {
		rounds = 2
	}
	// msgOf(round, sender): ids are fixed up front so a receive can name
	// a send that has not been generated yet.
	msgOf := func(round, sender int) uint64 { return uint64(round*traces+sender) + 1 }
	perTrace := make([][]poet.RawEvent, traces)
	for i := range perTrace {
		list := make([]poet.RawEvent, 0, rounds*perRound)
		add := func(kind event.Kind, typ, text string, msg uint64) {
			list = append(list, poet.RawEvent{
				Trace: names[i], Seq: len(list) + 1, Kind: kind, Type: typ, Text: text, MsgID: msg,
			})
		}
		pred, succ := (i-1+traces)%traces, (i+1)%traces
		lag := 1
		if i == 0 {
			lag = ringCloseLag
		}
		for round := 0; round < rounds; round++ {
			if round >= lag {
				add(event.KindReceive, mpi.TypeRecv, names[pred], msgOf(round-lag, pred))
			}
			for k := 0; k < ringInternal; k++ {
				typ := "work"
				switch x := r.Float64(); {
				case x < rareProb:
					typ = "mark"
				case x < 2*rareProb:
					typ = "alert"
				}
				add(event.KindInternal, typ, "", 0)
			}
			add(event.KindSend, mpi.TypeSend, names[succ], msgOf(round, i))
		}
		perTrace[i] = list
	}
	total := 0
	for _, l := range perTrace {
		total += len(l)
	}
	out := make([]poet.RawEvent, 0, total)
	cursor := make([]int, traces)
	order := make([]int, traces)
	for len(out) < total {
		for k := range order {
			order[k] = k
		}
		for k := 0; k+1 < traces; k++ {
			if r.Float64() < earlyShare {
				order[k], order[k+1] = order[k+1], order[k]
				k++ // pairs do not overlap: each swap makes exactly one trace early
			}
		}
		for _, t := range order {
			end := cursor[t] + ringChunk
			if end > len(perTrace[t]) {
				end = len(perTrace[t])
			}
			out = append(out, perTrace[t][cursor[t]:end]...)
			cursor[t] = end
		}
	}
	in := &Input{Events: out, Pattern: ringPattern, Trigger: "alert"}
	return in.index()
}

// genDeadlock is the parallel random walk (paper V-C1) at cycle length
// 2: ranks pair up, and each round a pair exchanges walkers. In the safe
// protocol rank 0 of the pair sends first and rank 1 receives first; in
// a seeded bugProb share of rounds both send first, which leaves the
// two sends concurrent — the cycle DeadlockPattern(2) detects. Every
// send triggers a search: a third of all events.
func genDeadlock(seed int64, ranks, events int, bugProb float64) *Input {
	r := rand.New(rand.NewSource(seed))
	names := make([]string, ranks)
	walkers := make([]int, ranks)
	for i := range names {
		names[i] = fmt.Sprintf("p%d", i)
		walkers[i] = 8 + i%4
	}
	g := newEmitter(events + 3*ranks)
	rounds := events / (3 * ranks)
	if rounds < 1 {
		rounds = 1
	}
	pairs := ranks / 2
	for round := 0; round < rounds; round++ {
		for _, p := range r.Perm(pairs) {
			a, b := 2*p, 2*p+1
			for _, k := range []int{a, b} {
				g.emit(names[k], event.KindInternal, "walk_step", fmt.Sprintf("round=%d walkers=%d", round, walkers[k]), 0)
			}
			ab, ba := g.nextMsg(), g.nextMsg()
			g.emit(names[a], event.KindSend, mpi.TypeSend, names[b], ab)
			if r.Float64() < bugProb {
				g.emit(names[b], event.KindSend, mpi.TypeSend, names[a], ba)
				g.emit(names[a], event.KindReceive, mpi.TypeRecv, names[b], ba)
				g.emit(names[b], event.KindReceive, mpi.TypeRecv, names[a], ab)
			} else {
				g.emit(names[b], event.KindReceive, mpi.TypeRecv, names[a], ab)
				g.emit(names[b], event.KindSend, mpi.TypeSend, names[a], ba)
				g.emit(names[a], event.KindReceive, mpi.TypeRecv, names[b], ba)
			}
			ca, cb := walkers[a]/4, walkers[b]/4
			walkers[a] += cb - ca
			walkers[b] += ca - cb
		}
	}
	in := &Input{Events: g.events, Pattern: casestudy.DeadlockPattern(2), Trigger: mpi.TypeSend}
	return in.index()
}
