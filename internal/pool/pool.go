// Package pool tracks a set of collector endpoints and decides, after
// each connection outcome, which endpoint a client should try next and
// how long it should wait first. It is the client half of the sharded
// collector tier: the reporter and monitor reconnect loops feed every
// dial/handshake result into a Pool and follow its verdicts, so
// failover policy — rotate to a healthy peer immediately, back off only
// once the whole set has failed a round, never mask a terminal
// rejection — lives in one place instead of being re-derived per
// client.
//
// The pool is deliberately transport-ignorant: it never dials. Clients
// own their sockets and sessions; the pool owns health bookkeeping
// (consecutive failures, last error per endpoint) and the shared
// backoff schedule (internal/backoff) that paces full failed rounds.
package pool

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"ocep/internal/backoff"
)

// Health is a read-only snapshot of one endpoint's bookkeeping.
type Health struct {
	Addr                string
	ConsecutiveFailures int
	// LastErr is the endpoint's most recent recorded error. It survives
	// an intervening success: the streak reset clears the failure count,
	// not the diagnostic, so a later all-down ErrorSummary can still name
	// what each endpoint last said (e.g. "standby awaiting promotion").
	LastErr error
}

type endpoint struct {
	addr   string
	fails  int
	lastMu sync.Mutex // lastErr is read by ErrorSummary while Fail writes it
	last   error
}

// Pool is a rotation of endpoints with per-endpoint health. All methods
// are safe for concurrent use, though the reconnect loops that drive it
// are single-goroutine per client.
type Pool struct {
	mu        sync.Mutex
	eps       []*endpoint
	cur       int
	failovers uint64
	shared    *backoff.Backoff
}

// New builds a pool over addrs in the given priority order, pacing full
// failed rounds with an exponential backoff from base to max (zero
// values fall back to the backoff package defaults). It panics on an
// empty address list: a client with nowhere to dial is a construction
// bug, not a runtime condition.
func New(addrs []string, base, max time.Duration) *Pool {
	if len(addrs) == 0 {
		panic("pool.New: no endpoints")
	}
	p := &Pool{shared: backoff.New(base, max)}
	for _, a := range addrs {
		p.eps = append(p.eps, &endpoint{addr: a})
	}
	return p
}

// ParseAddrs splits a comma-separated endpoint list, trimming
// whitespace and dropping empty items, so "-connect host1:9077,
// host2:9077" round-trips through flag parsing.
func ParseAddrs(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// Pick returns the endpoint the client should try now.
func (p *Pool) Pick() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.eps[p.cur].addr
}

// Success records a working session on addr: its failure streak and the
// shared round backoff reset, and it becomes (stays) current. The last
// recorded error is deliberately kept: a success that interleaves with
// a failed round must not erase the diagnostic before a later all-down
// ErrorSummary can name it (only a fresh failure overwrites it).
func (p *Pool) Success(addr string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, ep := range p.eps {
		if ep.addr == addr {
			ep.fails = 0
			p.cur = i
			break
		}
	}
	p.shared.Reset()
}

// Fail records a failed attempt against addr and returns how long the
// client should wait before its next attempt. If addr was current the
// pool advances to the next endpoint; a failover to a peer that has not
// failed since its last success is immediate (zero delay), while
// landing on an endpoint that is itself mid-streak means the whole set
// is down and the shared round backoff paces the retry. With a single
// endpoint this degrades to the classic jittered reconnect schedule.
func (p *Pool) Fail(addr string, err error) time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, ep := range p.eps {
		if ep.addr == addr {
			ep.fails++
			ep.setErr(err)
			if i == p.cur {
				p.advanceLocked()
			}
			break
		}
	}
	if p.eps[p.cur].fails == 0 {
		return 0
	}
	return p.shared.Next()
}

// HealthyAlternative reports whether some endpoint other than addr has
// no failure streak — a peer currently believed able to take a session.
// Drain handling consults it: a drain notice is worth abandoning a live
// session for only if there is somewhere credible to go; with every
// alternative mid-streak the client is better off holding the draining
// session until the server's final End frame.
func (p *Pool) HealthyAlternative(addr string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, ep := range p.eps {
		if ep.addr != addr && ep.fails == 0 {
			return true
		}
	}
	return false
}

// Demote rotates away from addr without charging it a failure: the
// endpoint announced an orderly drain, so it is healthy but should not
// receive new sessions. Counts as a failover when the pool actually
// moves.
func (p *Pool) Demote(addr string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.eps[p.cur].addr == addr {
		p.advanceLocked()
	}
}

func (p *Pool) advanceLocked() {
	if len(p.eps) == 1 {
		return
	}
	p.cur = (p.cur + 1) % len(p.eps)
	p.failovers++
}

// Failovers counts how many times the pool moved off its current
// endpoint, whether for failure or drain.
func (p *Pool) Failovers() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.failovers
}

// Size returns the number of endpoints.
func (p *Pool) Size() int { return len(p.eps) }

// Snapshot returns the health of every endpoint in priority order.
func (p *Pool) Snapshot() []Health {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]Health, len(p.eps))
	for i, ep := range p.eps {
		out[i] = Health{
			Addr:                ep.addr,
			ConsecutiveFailures: ep.fails,
			LastErr:             ep.getErr(),
		}
	}
	return out
}

// ErrorSummary condenses the per-endpoint last errors into one error
// for budget-exhaustion reports, so "every endpoint is down" names each
// endpoint and what it last said instead of only the final dial error.
// Returns nil if no endpoint has a recorded error.
func (p *Pool) ErrorSummary() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	var prefix []string
	var lastAddr string
	var last error
	for _, ep := range p.eps {
		if err := ep.getErr(); err != nil {
			if last != nil {
				prefix = append(prefix, fmt.Sprintf("%s: %v", lastAddr, last))
			}
			lastAddr, last = ep.addr, err
		}
	}
	if last == nil {
		return nil
	}
	if len(prefix) == 0 {
		return fmt.Errorf("%s: %w", lastAddr, last)
	}
	return fmt.Errorf("%s; %s: %w", strings.Join(prefix, "; "), lastAddr, last)
}

func (e *endpoint) setErr(err error) {
	e.lastMu.Lock()
	e.last = err
	e.lastMu.Unlock()
}

func (e *endpoint) getErr() error {
	e.lastMu.Lock()
	defer e.lastMu.Unlock()
	return e.last
}

// ErrNoEndpoints is returned by helpers that validate address lists
// before constructing a pool.
var ErrNoEndpoints = errors.New("no endpoints configured")
