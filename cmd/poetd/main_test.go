package main

import (
	"reflect"
	"testing"
	"time"
)

// TestParseFlags sets each of poetd's flags to a value other than its
// default and checks that it fills its one field: the Spec's, or for
// -metrics-addr and -quiet the daemon's own.
func TestParseFlags(t *testing.T) {
	defaults := parseFlags(nil)
	for _, row := range []struct {
		args []string
		set  func(d *daemon)
	}{
		{[]string{"-listen", "127.0.0.1:9"}, func(d *daemon) { d.spec.Listen = "127.0.0.1:9" }},
		{[]string{"-reload", "r.poet"}, func(d *daemon) { d.spec.Reload = "r.poet" }},
		{[]string{"-dump", "d.poet"}, func(d *daemon) { d.spec.Dump = "d.poet" }},
		{[]string{"-monitor-queue", "7"}, func(d *daemon) { d.spec.MonitorQueue = 7 }},
		{[]string{"-monitor-policy", "block"}, func(d *daemon) { d.spec.MonitorPolicy = "block" }},
		{[]string{"-ack-interval", "3ms"}, func(d *daemon) { d.spec.AckInterval = 3 * time.Millisecond }},
		{[]string{"-heartbeat", "4ms"}, func(d *daemon) { d.spec.Heartbeat = 4 * time.Millisecond }},
		{[]string{"-metrics-addr", "127.0.0.1:8"}, func(d *daemon) { d.metricsAddr = "127.0.0.1:8" }},
		{[]string{"-quiet"}, func(d *daemon) { d.quiet = true }},
		{[]string{"-data-dir", "dir"}, func(d *daemon) { d.spec.DataDir = "dir" }},
		{[]string{"-fsync", "interval"}, func(d *daemon) { d.spec.Fsync = "interval" }},
		{[]string{"-fsync-interval", "5ms"}, func(d *daemon) { d.spec.FsyncInterval = 5 * time.Millisecond }},
		{[]string{"-retain-events", "9"}, func(d *daemon) { d.spec.RetainEvents = 9 }},
		{[]string{"-max-pending", "11"}, func(d *daemon) { d.spec.MaxPending = 11 }},
		{[]string{"-mem-limit", "2M"}, func(d *daemon) { d.spec.MemLimit = "2M" }},
		{[]string{"-follow", "127.0.0.1:6"}, func(d *daemon) { d.spec.Follow = "127.0.0.1:6" }},
		{[]string{"-follow-reconnect", "6ms"}, func(d *daemon) { d.spec.FollowReconnect = 6 * time.Millisecond }},
		{[]string{"-drain-timeout", "7ms"}, func(d *daemon) { d.spec.DrainTimeout = 7 * time.Millisecond }},
		{[]string{"-shard-id", "1"}, func(d *daemon) { d.spec.ShardID = 1 }},
		{[]string{"-peers", " a , b ; c "}, func(d *daemon) { d.spec.Peers = []string{"a,b", "c"} }},
		{[]string{"-peers", ";"}, func(d *daemon) { d.spec.Peers = []string{} }},
		{[]string{"-peer-stall-timeout", "8ms"}, func(d *daemon) { d.spec.PeerStallTimeout = 8 * time.Millisecond }},
	} {
		want := defaults
		row.set(&want)
		if got := parseFlags(row.args); reflect.DeepEqual(got, defaults) || !reflect.DeepEqual(got, want) {
			t.Errorf("%v: got %+v, want %+v", row.args, got, want)
		}
	}
}
