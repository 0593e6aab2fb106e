package poet

import "ocep/internal/event"

// EventSource is a linearized event stream a monitor can drain: Next
// yields delivered events in causal order until io.EOF, and TraceName
// resolves the collector-assigned trace IDs the events carry.
// *MonitorClient is the single-collector source; internal/shard's
// MergedClient is the sharded-tier one.
type EventSource interface {
	Next() (*event.Event, error)
	TraceName(event.TraceID) (string, bool)
}

var _ EventSource = (*MonitorClient)(nil)

// CopyBatch appends to dst a private copy of each event of batch, carved
// from slab, for a batch subscriber that must mutate what it keeps: a
// matcher owning its store back-patches send partners. A send-like
// event's Partner stays zero; the collector may still be writing it.
func CopyBatch(dst, batch []*event.Event, slab *event.Slab) []*event.Event {
	for _, e := range batch {
		cp := slab.New()
		*cp = event.Event{ID: e.ID, Type: e.Type, Text: e.Text, VC: e.VC, Kind: e.Kind, Partner: readablePartner(e)}
		dst = append(dst, cp)
	}
	return dst
}
