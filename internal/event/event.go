// Package event defines the primitive-event model shared by the POET
// collector, the pattern matcher and the baselines.
//
// An event is the smallest unit of observed behaviour: a state transition
// on a single trace, usually caused by sending or receiving a message
// (Section III of the paper). Events on one trace are totally ordered by
// their 1-based Index; events on different traces are only partially
// ordered, which the vector timestamp captures.
package event

import (
	"encoding/binary"
	"fmt"
	"math"

	"ocep/internal/vclock"
)

// TraceID identifies a trace: any entity with sequential behaviour, such
// as a process, a thread, or a passive entity like a semaphore. Trace IDs
// are small dense integers assigned by the collector, suitable for
// indexing vector clocks.
type TraceID int

// ID identifies an event by its trace and its 1-based position within the
// trace. The zero Index never names a real event, so the zero ID can be
// used as "no event".
type ID struct {
	Trace TraceID
	Index int
}

// IsZero reports whether the ID names no event.
func (id ID) IsZero() bool { return id.Index == 0 }

// String renders the ID as "t2#17".
func (id ID) String() string { return fmt.Sprintf("t%d#%d", int(id.Trace), id.Index) }

// Kind classifies the communication role of an event. Values start at 1
// so the zero value is detectably unset.
type Kind uint8

// Event kinds. Sync kinds model synchronization primitives that the uC++
// plugin exposes as separate traces.
const (
	// KindInternal is a local event with no communication.
	KindInternal Kind = iota + 1
	// KindSend is the sending half of a point-to-point message.
	KindSend
	// KindReceive is the receiving half of a point-to-point message.
	KindReceive
	// KindSyncAcquire is the acquisition of a synchronization resource
	// (models the receive of a semaphore grant).
	KindSyncAcquire
	// KindSyncRelease is the release of a synchronization resource
	// (models a send to the semaphore trace).
	KindSyncRelease
)

// String returns a short name for the kind.
func (k Kind) String() string {
	switch k {
	case KindInternal:
		return "internal"
	case KindSend:
		return "send"
	case KindReceive:
		return "receive"
	case KindSyncAcquire:
		return "acquire"
	case KindSyncRelease:
		return "release"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// IsComm reports whether the kind establishes causality with another
// trace (anything but an internal event).
func (k Kind) IsComm() bool { return k != KindInternal && k != 0 }

// MaxTraces bounds the traces an event can name: a Ref holds a 24-bit
// trace. The collector refuses the trace that would reach it.
const MaxTraces = 1 << 24

// Ref is an ID packed into seven bytes of alignment 1 — a 24-bit trace
// and a 32-bit index, little-endian — so that an Event keeps its
// partner and its one-byte Kind in one word. The zero Ref is the zero
// ID.
type Ref [7]byte

// RefTo packs id. It panics if the trace is not below MaxTraces or the
// index does not fit 32 bits; the collector never stores such an event.
func RefTo(id ID) Ref {
	if uint64(id.Trace) >= MaxTraces || uint64(id.Index) > math.MaxUint32 {
		panic("event: an ID beyond trace 2^24-1 or index 2^32-1 does not fit a Ref")
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(id.Trace)|uint64(id.Index)<<24)
	return Ref(b[:7])
}

// ID unpacks the reference.
func (r Ref) ID() ID {
	return ID{
		Trace: TraceID(uint32(r[0]) | uint32(r[1])<<8 | uint32(r[2])<<16),
		Index: int(uint32(r[3]) | uint32(r[4])<<8 | uint32(r[5])<<16 | uint32(r[6])<<24),
	}
}

// IsZero reports whether the reference names no event.
func (r Ref) IsZero() bool { return r[3]|r[4]|r[5]|r[6] == 0 }

// String renders the referenced ID.
func (r Ref) String() string { return r.ID().String() }

// Event is a primitive event as delivered to monitor clients: fully
// stamped with a vector timestamp and linked to its communication partner
// when it has one. It is 72 bytes: Kind and Partner share the last word.
type Event struct {
	// ID is the event's (trace, index) identity.
	ID ID
	// Type is the event-class type attribute, e.g. "mpi_send" or
	// "Take_Snapshot". Pattern classes match on it.
	Type string
	// Text is the free-form text attribute; patterns may match it
	// exactly, ignore it, or bind it to a variable.
	Text string
	// VC is the event's vector timestamp, constructed by the collector:
	// entry t counts the events of trace t that happen before or at the
	// event. It shares its trace's last join clock (see vclock.Stamp).
	VC vclock.Stamp
	// Kind is the communication role.
	Kind Kind
	// Partner names the communication partner event (the matching
	// receive of a send, the matching send of a receive, the release
	// granted by an acquire). Zero when there is none or it is unknown.
	Partner Ref
}

// Before reports whether e happens before other.
func (e *Event) Before(other *Event) bool {
	return vclock.Before(e.VC, other.VC)
}

// Concurrent reports whether e and other are causally unrelated.
func (e *Event) Concurrent(other *Event) bool {
	return vclock.Concurrent(e.VC, other.VC)
}

// Relation classifies the causal relation between e and other.
func (e *Event) Relation(other *Event) vclock.Relation {
	return vclock.Compare(e.VC, other.VC)
}

// String renders a compact single-line description for logs and tests.
func (e *Event) String() string {
	return fmt.Sprintf("%s %s type=%q text=%q vc=%s", e.ID, e.Kind, e.Type, e.Text, e.VC)
}
