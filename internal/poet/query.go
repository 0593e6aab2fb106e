package poet

import (
	"errors"
	"fmt"
	"io"
	"net"

	"ocep/internal/event"
)

// This file implements the "future plugin" of the paper's Section VI: a
// query interface that lets a client retrieve the vector timestamp (and
// the rest) of any previously delivered event in constant time, plus the
// derived greatest-predecessor and least-successor queries. A monitor
// using it can bound its local event history and fall back to the
// collector for old events instead of retaining everything.

// Collector-side accessors (all lock-protected; safe alongside Report).

// GetEvent returns a delivered event by ID.
func (c *Collector) GetEvent(id event.ID) (*event.Event, bool) {
	e, _, _, ok := c.getEventNamed(id)
	return e, ok
}

// QueryGP returns the greatest-predecessor index of the identified event
// on a trace (0 when none).
func (c *Collector) QueryGP(id event.ID, t event.TraceID) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.store.Get(id)
	if e == nil {
		return 0, fmt.Errorf("poet: query: unknown event %s", id)
	}
	return c.store.GP(e, t), nil
}

// QueryLS returns the least-successor index of the identified event on a
// trace (0 when none delivered yet).
func (c *Collector) QueryLS(id event.ID, t event.TraceID) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.store.Get(id)
	if e == nil {
		return 0, fmt.Errorf("poet: query: unknown event %s", id)
	}
	return c.store.LS(e, t), nil
}

// Wire protocol for the query role: after the hello, each query frame is
// answered by the monitor stream's own frames — the event's trace
// announcement and the event, its timestamp dense, for opGet; a head
// frame with the position for opGP/opLS — or by an error frame.

const roleQuery = "query"

// queryOp selects the query kind.
type queryOp int

const (
	opGet queryOp = iota + 1
	opGP
	opLS
)

type queryReq struct {
	op  queryOp
	id  event.ID
	arg int // the second trace of GP/LS queries
}

// handleQuery serves one query connection.
func (s *Server) handleQuery(fr *frameReader, fw *frameWriter) error {
	if err := acceptHello(fw, nil); err != nil {
		return err
	}
	var f frame
	for {
		if err := fr.next(&f); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("reading query: %w", err)
		}
		if f.kind != frameQuery {
			return fmt.Errorf("kind-%d frame on a query connection", f.kind)
		}
		q := f.query
		var pos int
		var err error
		switch q.op {
		case opGet:
			e, partner, name, ok := s.collector.getEventNamed(q.id)
			if !ok {
				err = fmt.Errorf("unknown event %s", q.id)
				break
			}
			fw.trace(e.ID.Trace, name)
			fw.event(e, partner, false)
		case opGP:
			pos, err = s.collector.QueryGP(q.id, event.TraceID(q.arg))
		case opLS:
			pos, err = s.collector.QueryLS(q.id, event.TraceID(q.arg))
		default:
			err = fmt.Errorf("unknown query op %d", q.op)
		}
		switch {
		case err != nil:
			fw.refuse(err.Error(), false)
		case q.op != opGet:
			fw.head(pos)
		}
		if err := fw.flush(); err != nil {
			return fmt.Errorf("answering query: %w", err)
		}
	}
}

// getEventNamed is GetEvent plus the event's partner, read under the lock
// (a send's is written when its receive is delivered), and the name of
// its trace.
func (c *Collector) getEventNamed(id event.ID) (*event.Event, event.ID, string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.store.Get(id)
	if e == nil {
		return nil, event.ID{}, "", false
	}
	return e, e.Partner, c.store.TraceName(id.Trace), true
}

// QueryClient retrieves event timestamps and causality positions from a
// POET server. Not safe for concurrent use (requests are pipelined
// one at a time).
type QueryClient struct {
	s *session
}

// DialQuery connects to a POET server as a query client.
func DialQuery(addr string) (*QueryClient, error) {
	cfg := defaultClientCfg()
	s, err := dialSession(addr, hello{role: roleQuery}, &cfg)
	if err != nil {
		return nil, fmt.Errorf("poet query: %w", err)
	}
	return &QueryClient{s: s}, nil
}

// roundTrip sends q and reads frames up to its answer: the event frame
// for opGet, the head frame for opGP/opLS.
func (c *QueryClient) roundTrip(q queryReq) (*frame, error) {
	c.s.fw.query(&q)
	if err := c.s.fw.flush(); err != nil {
		return nil, fmt.Errorf("poet query: send: %w", err)
	}
	var f frame
	for {
		if err := c.s.fr.next(&f); err != nil {
			return nil, fmt.Errorf("poet query: receive: %w", err)
		}
		switch f.kind {
		case frameTrace:
			continue
		case frameError:
			return nil, fmt.Errorf("poet query: %s", f.reason)
		case frameEvent, frameHead:
			return &f, nil
		}
		return nil, fmt.Errorf("poet query: unexpected kind-%d frame", f.kind)
	}
}

// Get retrieves a delivered event by ID.
func (c *QueryClient) Get(id event.ID) (*event.Event, error) {
	f, err := c.roundTrip(queryReq{op: opGet, id: id})
	if err != nil {
		return nil, err
	}
	return f.ev, nil
}

// GP returns the greatest-predecessor index of id on trace t.
func (c *QueryClient) GP(id event.ID, t event.TraceID) (int, error) {
	f, err := c.roundTrip(queryReq{op: opGP, id: id, arg: int(t)})
	if err != nil {
		return 0, err
	}
	return f.head, nil
}

// LS returns the least-successor index of id on trace t.
func (c *QueryClient) LS(id event.ID, t event.TraceID) (int, error) {
	f, err := c.roundTrip(queryReq{op: opLS, id: id, arg: int(t)})
	if err != nil {
		return 0, err
	}
	return f.head, nil
}

// Close closes the connection.
func (c *QueryClient) Close() error { return c.s.Close() }
