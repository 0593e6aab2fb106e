// Package view renders process-time diagrams of collected computations —
// the visualization role of the original POET tool. Traces are rows,
// delivery order is the horizontal axis, and events appear as symbols
// (send, receive, acquire, release, internal), optionally highlighting
// the events of pattern matches the way the paper's Figure 3 marks its
// representative subset.
package view

import (
	"fmt"
	"sort"
	"strings"

	"ocep/internal/event"
)

// Options controls rendering.
type Options struct {
	// From and To bound the delivery-order window rendered (0-based,
	// half open). To == 0 means "to the end".
	From, To int
	// MaxWidth caps the number of event columns (default 120); windows
	// wider than this are rejected so diagrams stay readable.
	MaxWidth int
	// Marks highlights specific events (e.g. a match's constituents)
	// with '#'.
	Marks map[event.ID]bool
	// Arrows appends a message-arrow list (send -> receive pairs within
	// the window).
	Arrows bool
}

// symbol maps an event to its diagram glyph.
func symbol(e *event.Event, marked bool) byte {
	if marked {
		return '#'
	}
	switch e.Kind {
	case event.KindSend:
		return 'S'
	case event.KindReceive:
		return 'R'
	case event.KindSyncAcquire:
		return 'P'
	case event.KindSyncRelease:
		return 'V'
	default:
		return '.'
	}
}

// Render draws the process-time diagram of the delivery window.
func Render(st *event.Store, ordered []*event.Event, opts Options) (string, error) {
	if opts.MaxWidth <= 0 {
		opts.MaxWidth = 120
	}
	from, to := opts.From, opts.To
	if to == 0 || to > len(ordered) {
		to = len(ordered)
	}
	if from < 0 || from > to {
		return "", fmt.Errorf("view: bad window [%d, %d) over %d events", from, to, len(ordered))
	}
	window := ordered[from:to]
	if len(window) > opts.MaxWidth {
		return "", fmt.Errorf("view: window holds %d events, max width is %d (narrow with -from/-to)",
			len(window), opts.MaxWidth)
	}

	// Column per windowed event, row per trace that appears.
	colOf := make(map[event.ID]int, len(window))
	tracesSeen := map[event.TraceID]bool{}
	for i, e := range window {
		colOf[e.ID] = i
		tracesSeen[e.ID.Trace] = true
	}
	var traces []event.TraceID
	for t := range tracesSeen {
		traces = append(traces, t)
	}
	sort.Slice(traces, func(i, j int) bool { return traces[i] < traces[j] })

	nameWidth := 0
	for _, t := range traces {
		if n := len(st.TraceName(t)); n > nameWidth {
			nameWidth = n
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "events %d..%d of %d (delivery order; S send, R recv, P acquire, V release, . internal, # match)\n",
		from, to, len(ordered))
	for _, t := range traces {
		row := make([]byte, len(window))
		for i := range row {
			row[i] = ' '
		}
		for _, e := range st.Events(t) {
			if col, ok := colOf[e.ID]; ok {
				row[col] = symbol(e, opts.Marks[e.ID])
			}
		}
		fmt.Fprintf(&b, "%-*s |%s\n", nameWidth, st.TraceName(t), row)
	}
	if opts.Arrows {
		var arrows []string
		for _, e := range window {
			if e.Kind != event.KindSend || e.Partner.IsZero() {
				continue
			}
			partner := e.Partner.ID()
			if _, ok := colOf[partner]; !ok {
				continue
			}
			arrows = append(arrows, fmt.Sprintf("  %s@%s -> %s@%s",
				e.ID, st.TraceName(e.ID.Trace), partner, st.TraceName(partner.Trace)))
		}
		if len(arrows) > 0 {
			b.WriteString("messages:\n")
			b.WriteString(strings.Join(arrows, "\n"))
			b.WriteByte('\n')
		}
	}
	return b.String(), nil
}

// MarksOf collects the event IDs of a set of matches for highlighting.
func MarksOf(matches [][]*event.Event) map[event.ID]bool {
	marks := make(map[event.ID]bool)
	for _, m := range matches {
		for _, e := range m {
			if e != nil {
				marks[e.ID] = true
			}
		}
	}
	return marks
}
