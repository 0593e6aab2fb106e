package pool

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestParseAddrs(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"a:1", []string{"a:1"}},
		{"a:1,b:2", []string{"a:1", "b:2"}},
		{" a:1 , b:2 ,", []string{"a:1", "b:2"}},
		{",,", nil},
		{"", nil},
	}
	for _, c := range cases {
		got := ParseAddrs(c.in)
		if len(got) != len(c.want) {
			t.Fatalf("ParseAddrs(%q) = %v, want %v", c.in, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("ParseAddrs(%q) = %v, want %v", c.in, got, c.want)
			}
		}
	}
}

func TestFailoverRotationAndDelays(t *testing.T) {
	p := New([]string{"a", "b"}, 10*time.Millisecond, 80*time.Millisecond)
	if got := p.Pick(); got != "a" {
		t.Fatalf("initial Pick = %q, want a", got)
	}
	// First failure on the current endpoint fails over to the healthy
	// peer with no delay at all.
	if d := p.Fail("a", errors.New("down")); d != 0 {
		t.Fatalf("failover onto a healthy peer delayed %v, want 0", d)
	}
	if got := p.Pick(); got != "b" {
		t.Fatalf("after a fails, Pick = %q, want b", got)
	}
	if p.Failovers() != 1 {
		t.Fatalf("failovers = %d, want 1", p.Failovers())
	}
	// b failing too wraps back onto mid-streak a: the whole set is down,
	// so the shared round backoff kicks in.
	if d := p.Fail("b", errors.New("down too")); d <= 0 {
		t.Fatalf("full-round failure delayed %v, want > 0", d)
	}
	if got := p.Pick(); got != "a" {
		t.Fatalf("after b fails, Pick = %q, want a", got)
	}
	// Delays grow while the whole set stays down.
	d1 := p.Fail("a", errors.New("still down"))
	var d2 time.Duration
	for i := 0; i < 6; i++ {
		d2 = p.Fail([]string{"a", "b"}[p.curIndex()], errors.New("still down"))
	}
	if d2 < d1/2 {
		t.Fatalf("round backoff not growing: first %v, later %v", d1, d2)
	}
	// Success resets b's streak and the round schedule — but not a's
	// streak: a never recovered, so failing over back onto it draws a
	// fresh base-window delay rather than an immediate retry.
	p.Success("b")
	if got := p.Pick(); got != "b" {
		t.Fatalf("after Success(b), Pick = %q, want b", got)
	}
	if d := p.Fail("b", errors.New("down again")); d < 5*time.Millisecond || d >= 15*time.Millisecond {
		t.Fatalf("failover onto mid-streak a delayed %v, want a base-window delay", d)
	}
}

// curIndex is a test-only peek at the rotation position.
func (p *Pool) curIndex() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cur
}

func TestSingleEndpointDegradesToClassicBackoff(t *testing.T) {
	p := New([]string{"solo"}, 10*time.Millisecond, 80*time.Millisecond)
	d := p.Fail("solo", errors.New("down"))
	if d < 5*time.Millisecond || d >= 15*time.Millisecond {
		t.Fatalf("first single-endpoint delay %v outside the base window", d)
	}
	if p.Failovers() != 0 {
		t.Fatalf("single endpoint recorded a failover")
	}
	var last time.Duration
	for i := 0; i < 8; i++ {
		last = p.Fail("solo", errors.New("down"))
	}
	if last < 40*time.Millisecond { // capped window is [40ms, 120ms)
		t.Fatalf("single-endpoint backoff failed to reach the cap window: %v", last)
	}
}

func TestDemoteRotatesWithoutCharging(t *testing.T) {
	p := New([]string{"a", "b"}, 0, 0)
	p.Demote("a")
	if got := p.Pick(); got != "b" {
		t.Fatalf("after Demote(a), Pick = %q, want b", got)
	}
	if p.Failovers() != 1 {
		t.Fatalf("demote failover not counted: %d", p.Failovers())
	}
	for _, h := range p.Snapshot() {
		if h.ConsecutiveFailures != 0 || h.LastErr != nil {
			t.Fatalf("demote charged endpoint %s: %+v", h.Addr, h)
		}
	}
	// Demoting an endpoint that is not current is a no-op.
	p.Demote("a")
	if got := p.Pick(); got != "b" {
		t.Fatalf("demote of non-current endpoint moved the pool to %q", got)
	}
	if p.Failovers() != 1 {
		t.Fatalf("no-op demote counted a failover")
	}
}

func TestErrorSummaryNamesEveryEndpoint(t *testing.T) {
	p := New([]string{"a:1", "b:2", "c:3"}, 0, 0)
	if p.ErrorSummary() != nil {
		t.Fatal("fresh pool reported an error summary")
	}
	errB := errors.New("connection refused")
	p.Fail("a:1", errors.New("no route to host"))
	p.Fail("b:2", errB)
	sum := p.ErrorSummary()
	if sum == nil {
		t.Fatal("no summary after failures")
	}
	msg := sum.Error()
	if !strings.Contains(msg, "a:1") || !strings.Contains(msg, "no route to host") {
		t.Fatalf("summary missing a:1's error: %q", msg)
	}
	if !strings.Contains(msg, "b:2") || !strings.Contains(msg, "connection refused") {
		t.Fatalf("summary missing b:2's error: %q", msg)
	}
	if strings.Contains(msg, "c:3") {
		t.Fatalf("summary mentions the endpoint that never failed: %q", msg)
	}
	if !errors.Is(sum, errB) {
		t.Fatal("summary does not wrap the most recent per-endpoint error")
	}
	// Success resets the failure streak but keeps the diagnostic: if the
	// whole set later goes down, the summary can still name what each
	// endpoint last said.
	p.Success("a:1")
	if msg := p.ErrorSummary().Error(); !strings.Contains(msg, "a:1") {
		t.Fatalf("summary lost the recovered endpoint's last error: %q", msg)
	}
	if h := p.Snapshot()[0]; h.ConsecutiveFailures != 0 || h.LastErr == nil {
		t.Fatalf("Success should clear the streak, not the diagnostic: %+v", h)
	}
}

// Regression: a rotation that succeeds after a failed round used to
// erase the failed endpoint's recorded error, so a later all-down
// budget-exhaustion report could no longer say why the preferred
// endpoint was skipped (e.g. "standby awaiting promotion").
func TestSuccessKeepsLastErrorForLaterSummary(t *testing.T) {
	p := New([]string{"primary:1", "standby:2"}, 0, 0)
	p.Fail("primary:1", errors.New("session deferred: standby awaiting promotion"))
	p.Success("standby:2")
	// Both endpoints die later; the summary must still explain primary:1.
	p.Fail("standby:2", errors.New("connection reset"))
	p.Fail("primary:1", errors.New("connection refused"))
	msg := p.ErrorSummary().Error()
	if !strings.Contains(msg, "primary:1") || !strings.Contains(msg, "connection refused") {
		t.Fatalf("summary missing primary:1's error: %q", msg)
	}
	if !strings.Contains(msg, "standby:2") || !strings.Contains(msg, "connection reset") {
		t.Fatalf("summary missing standby:2's error: %q", msg)
	}

	// And the intermediate state — one endpoint failed, the other fine —
	// keeps the diagnostic visible in health snapshots.
	q := New([]string{"a:1", "b:2"}, 0, 0)
	q.Fail("a:1", errors.New("no route to host"))
	q.Success("b:2")
	snap := q.Snapshot()
	if snap[0].LastErr == nil || !strings.Contains(snap[0].LastErr.Error(), "no route") {
		t.Fatalf("Success on a peer erased a:1's diagnostic: %+v", snap[0])
	}
}

func TestSuccessMakesEndpointCurrent(t *testing.T) {
	p := New([]string{"a", "b", "c"}, 0, 0)
	p.Success("c")
	if got := p.Pick(); got != "c" {
		t.Fatalf("Success(c) did not make c current: Pick = %q", got)
	}
}

func TestHealthyAlternative(t *testing.T) {
	p := New([]string{"a", "b"}, 0, 0)
	if !p.HealthyAlternative("a") {
		t.Fatal("fresh peer b should count as a healthy alternative to a")
	}
	p.Fail("b", errors.New("refused"))
	if p.HealthyAlternative("a") {
		t.Fatal("b is mid-streak; a has no healthy alternative")
	}
	if !p.HealthyAlternative("b") {
		t.Fatal("a never failed; b should see it as a healthy alternative")
	}
	p.Success("b")
	if !p.HealthyAlternative("a") {
		t.Fatal("Success(b) should restore b as a healthy alternative")
	}
	solo := New([]string{"only"}, 0, 0)
	if solo.HealthyAlternative("only") {
		t.Fatal("a single-endpoint pool has no alternative")
	}
}
