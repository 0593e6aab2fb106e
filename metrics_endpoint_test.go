package ocep_test

// End-to-end scrape test: a real poetd child started with
// -metrics-addr must serve Prometheus text whose counters satisfy the
// wire-decomposition identity against live traffic, and the same
// registry as JSON under /debug/vars.

import (
	"encoding/json"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"ocep"
	"ocep/internal/proctest"
	"ocep/internal/workload"
)

func TestPoetdMetricsEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping process-spawning test")
	}
	poetd := proctest.BuildTool(t, "poetd")
	addr := proctest.FreePort(t)
	metricsAddr := proctest.FreePort(t)

	out := &proctest.SyncBuffer{}
	cmd := exec.Command(poetd,
		"-listen", addr,
		"-metrics-addr", metricsAddr,
		"-heartbeat", "25ms",
		"-quiet")
	cmd.Stdout = out
	cmd.Stderr = out
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting poetd: %v", err)
	}
	defer func() {
		if cmd.ProcessState == nil {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
		}
	}()

	// The metrics endpoint must come up (scrape retries until it does)
	// and expose runtime metrics before any traffic.
	body := proctest.Scrape(t, "http://"+metricsAddr+"/metrics")
	if !strings.Contains(body, "# TYPE go_goroutines gauge") {
		t.Fatalf("initial scrape missing runtime metrics:\n%s", body)
	}

	// Drive a real workload through the wire.
	sink := &captureSink{}
	if _, err := workload.GenMsgRace(workload.MsgRaceConfig{Ranks: 4, Waves: 15, Sink: sink}); err != nil {
		t.Fatal(err)
	}
	rep, err := ocep.DialReporter(addr,
		ocep.WithReporterHeartbeat(20*time.Millisecond),
		ocep.WithReporterReconnect(15*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range sink.events {
		if err := rep.Report(e); err != nil {
			t.Fatalf("report: %v", err)
		}
	}
	if err := rep.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	rep.Close()

	m := proctest.ParsePromText(t, proctest.Scrape(t, "http://"+metricsAddr+"/metrics"))
	n := float64(len(sink.events))
	checks := []struct {
		name string
		want float64
	}{
		{"poet_ingested_events_total", n},
		{"poet_delivered_events_total", n},
		{"poet_rejected_reports_total", 0},
		{"poet_pending_events", 0},
		{"poet_wire_target_conns_total", 1},
	}
	for _, c := range checks {
		got, ok := m[c.name]
		if !ok {
			t.Errorf("scrape missing %s", c.name)
			continue
		}
		if got != c.want {
			t.Errorf("%s = %v, want %v", c.name, got, c.want)
		}
	}
	// Wire decomposition against the live scrape.
	if m["poet_wire_target_events_total"] !=
		m["poet_ingested_events_total"]+m["poet_stale_reports_total"]+m["poet_rejected_reports_total"] {
		t.Errorf("wire frames %v != ingested %v + stale %v + rejected %v",
			m["poet_wire_target_events_total"], m["poet_ingested_events_total"],
			m["poet_stale_reports_total"], m["poet_rejected_reports_total"])
	}
	if m["poet_wire_acks_sent_total"] < 1 {
		t.Error("no acks counted, yet the reporter flushed")
	}

	// /debug/vars serves the same registry as valid JSON.
	var vars map[string]any
	if err := json.Unmarshal([]byte(proctest.Scrape(t, "http://"+metricsAddr+"/debug/vars")), &vars); err != nil {
		t.Fatalf("/debug/vars is not valid JSON: %v", err)
	}
	if v, ok := vars["poet_ingested_events_total"].(float64); !ok || v != n {
		t.Errorf("/debug/vars poet_ingested_events_total = %v, want %v", vars["poet_ingested_events_total"], n)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("poetd shutdown: %v\noutput:\n%s", err, out.String())
	}
}
