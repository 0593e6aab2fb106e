package poet

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"

	"ocep/internal/event"
	"ocep/internal/vclock"
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
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.store.Get(id)
	return e, e != nil
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

// Wire protocol for the query role.

const roleQuery = "query"

// queryOp selects the query kind.
type queryOp int

const (
	opGet queryOp = iota + 1
	opGP
	opLS
)

type queryReq struct {
	Op           queryOp
	Trace, Index int
	// Arg is the second trace for GP/LS queries.
	Arg int
}

type queryResp struct {
	OK    bool
	Error string
	// Event is set for opGet.
	Event *queryEvent
	// Pos is set for opGP/opLS.
	Pos int
}

// queryEvent is a delivered event in a gob query response, its timestamp
// as a dense vector.
type queryEvent struct {
	ID, Partner event.ID
	Kind        event.Kind
	Type, Text  string
	VC          vclock.VC
}

// handleQuery serves one query connection.
func (s *Server) handleQuery(conn net.Conn, dec *gob.Decoder) error {
	enc := gob.NewEncoder(conn)
	for {
		var req queryReq
		if err := dec.Decode(&req); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("decoding query: %w", err)
		}
		id := event.ID{Trace: event.TraceID(req.Trace), Index: req.Index}
		var resp queryResp
		switch req.Op {
		case opGet:
			if e, ok := s.collector.GetEvent(id); ok {
				resp = queryResp{OK: true, Event: &queryEvent{ID: e.ID, Partner: e.Partner, Kind: e.Kind, Type: e.Type, Text: e.Text, VC: e.VC.Dense()}}
			} else {
				resp = queryResp{Error: fmt.Sprintf("unknown event %s", id)}
			}
		case opGP:
			pos, err := s.collector.QueryGP(id, event.TraceID(req.Arg))
			if err != nil {
				resp = queryResp{Error: err.Error()}
			} else {
				resp = queryResp{OK: true, Pos: pos}
			}
		case opLS:
			pos, err := s.collector.QueryLS(id, event.TraceID(req.Arg))
			if err != nil {
				resp = queryResp{Error: err.Error()}
			} else {
				resp = queryResp{OK: true, Pos: pos}
			}
		default:
			resp = queryResp{Error: fmt.Sprintf("unknown query op %d", req.Op)}
		}
		if err := enc.Encode(&resp); err != nil {
			return fmt.Errorf("encoding query response: %w", err)
		}
	}
}

// QueryClient retrieves event timestamps and causality positions from a
// POET server. Not safe for concurrent use (requests are pipelined
// one at a time).
type QueryClient struct {
	conn net.Conn
	enc  *gob.Encoder
	dec  *gob.Decoder
}

// DialQuery connects to a POET server as a query client.
func DialQuery(addr string) (*QueryClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("poet query: dial: %w", err)
	}
	enc := gob.NewEncoder(conn)
	if err := enc.Encode(hello{Magic: wireMagic, Role: roleQuery}); err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("poet query: hello: %w", err)
	}
	return &QueryClient{conn: conn, enc: enc, dec: gob.NewDecoder(conn)}, nil
}

func (q *QueryClient) roundTrip(req queryReq) (queryResp, error) {
	if err := q.enc.Encode(&req); err != nil {
		return queryResp{}, fmt.Errorf("poet query: send: %w", err)
	}
	var resp queryResp
	if err := q.dec.Decode(&resp); err != nil {
		return queryResp{}, fmt.Errorf("poet query: receive: %w", err)
	}
	if !resp.OK {
		return resp, fmt.Errorf("poet query: %s", resp.Error)
	}
	return resp, nil
}

// Get retrieves a delivered event by ID.
func (q *QueryClient) Get(id event.ID) (*event.Event, error) {
	resp, err := q.roundTrip(queryReq{Op: opGet, Trace: int(id.Trace), Index: id.Index})
	if err != nil {
		return nil, err
	}
	w := resp.Event
	return &event.Event{ID: w.ID, Partner: w.Partner, Kind: w.Kind, Type: w.Type, Text: w.Text, VC: w.VC.Stamp(int(w.ID.Trace))}, nil
}

// GP returns the greatest-predecessor index of id on trace t.
func (q *QueryClient) GP(id event.ID, t event.TraceID) (int, error) {
	resp, err := q.roundTrip(queryReq{Op: opGP, Trace: int(id.Trace), Index: id.Index, Arg: int(t)})
	if err != nil {
		return 0, err
	}
	return resp.Pos, nil
}

// LS returns the least-successor index of id on trace t.
func (q *QueryClient) LS(id event.ID, t event.TraceID) (int, error) {
	resp, err := q.roundTrip(queryReq{Op: opLS, Trace: int(id.Trace), Index: id.Index, Arg: int(t)})
	if err != nil {
		return 0, err
	}
	return resp.Pos, nil
}

// Close closes the connection.
func (q *QueryClient) Close() error { return q.conn.Close() }
