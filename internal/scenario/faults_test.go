package scenario

import (
	"fmt"
	"reflect"
	"testing"

	"unilog/internal/telemetry"
)

// TestFaultScheduleActsOnChange holds the one dispatcher to its rule: a
// subject moves to the largest magnitude of the faults of its kind covering
// the minute, and its action runs only when that changes, so abutting
// windows of one magnitude are one stretch and an overlap of two
// magnitudes is one step between them.
func TestFaultScheduleActsOnChange(t *testing.T) {
	spec := &Spec{Name: "t", Faults: []Fault{
		{Kind: FaultSlowConsumer, StartMinute: 15, EndMinute: 30, Magnitude: 8},
		{Kind: FaultSlowConsumer, StartMinute: 10, EndMinute: 20, Magnitude: 5},
		{Kind: FaultSlowConsumer, StartMinute: 30, EndMinute: 40, Magnitude: 8},
		{Kind: FaultOutage, Subject: "east", StartMinute: 12, EndMinute: 13},
	}}
	telemetry.Reset()
	fs := faultSchedule{spec: spec}
	var got []string
	for _, subject := range []string{"", "west"} {
		fs.add(FaultSlowConsumer, subject, func(level int) error {
			got = append(got, fmt.Sprintf("%q=%d", subject, level))
			return nil
		})
	}
	for m := 0; m <= 45; m++ {
		if err := fs.apply(m); err != nil {
			t.Fatal(err)
		}
	}
	if want := []string{`""=5`, `""=8`, `""=0`}; !reflect.DeepEqual(got, want) {
		t.Fatalf("actions %v, want %v", got, want)
	}
	if edges := telemetry.Snapshot().Series["scenario.fault.edges"]; edges != 2 {
		t.Fatalf("%d fault edges, want one stretch: 2", edges)
	}
}

// sweepBase is the small cluster cell the node-crash tests clone.
const sweepBase = `{
	"name": "node-crash-sweep",
	"total_sessions": %d,
	"regions": ["east", "west"],
	"clients": [
		{"id": "web", "rate_fraction": 0.7, "arrival": {"process": "poisson"}},
		{"id": "mobile", "rate_fraction": 0.3, "arrival": {"process": "gamma", "cv": 2}}
	],
	"cluster": {"nodes": 3, "replication_factor": 2, "partitions": 16},
	"faults": [%s],
	"invariants": {"reconcile_exact": true, "exactly_once": true, "require_handoff": true}
}`

// exactCounts is a cell's result without what a rerun may change: the
// timestamp, the wall-clock rates, the scheduling-dependent queue waits
// and the telemetry snapshot.
func exactCounts(r *Result) Result {
	c := *r
	c.GeneratedAt, c.IngestEventsPerSec, c.RollupEventsPerSec = "", 0, 0
	c.QueueFullWaits, c.Telemetry = 0, telemetry.Snap{}
	return c
}

// TestAbuttingNodeCrashWindowsAreOneWindow: two node_crash windows on one
// node that meet at minute 200, listed later-first, crash the node once and
// restart it once, giving the cell the counts of the one window they cover.
// Firing edges instead of following the schedule restarted the node at 200
// while the second window still covered it.
func TestAbuttingNodeCrashWindowsAreOneWindow(t *testing.T) {
	run := func(faults string) Result {
		t.Helper()
		spec, err := Parse([]byte(fmt.Sprintf(sweepBase, 80, faults)))
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(spec, RunConfig{Name: "test", Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		return exactCounts(res)
	}
	two := run(`{"kind": "node_crash", "subject": "1", "start_minute": 200, "end_minute": 300},
		{"kind": "node_crash", "subject": "1", "start_minute": 100, "end_minute": 200}`)
	one := run(`{"kind": "node_crash", "subject": "1", "start_minute": 100, "end_minute": 300}`)
	if two.NodeCrashes != 1 || two.NodeRestarts != 1 {
		t.Fatalf("abutting windows: %d crashes, %d restarts, want 1 and 1", two.NodeCrashes, two.NodeRestarts)
	}
	if !reflect.DeepEqual(two, one) {
		t.Fatalf("abutting windows differ from the window they cover:\n  two: %+v\n  one: %+v", two, one)
	}
	if !one.OK {
		t.Fatalf("invariants failed: %+v", one.Invariants)
	}
}

// TestOutageFollowsTheClock: a region reopens exactly once per outage
// window. Sessions interleave, so events reach the daemons up to minutes
// behind the latest one; each window here opens at a minute the clock
// reaches just before such a lagging event. Following each event's own
// minute reopened the region on the lagging event and replayed its spools
// mid-window; the schedule follows the clock, which never steps back.
func TestOutageFollowsTheClock(t *testing.T) {
	spec, err := Parse([]byte(`{
		"name": "outage-clock",
		"total_sessions": 60,
		"regions": ["east", "west"],
		"clients": [
			{"id": "web", "rate_fraction": 0.7, "arrival": {"process": "poisson"}},
			{"id": "mobile", "rate_fraction": 0.3, "arrival": {"process": "gamma", "cv": 2}}
		],
		"invariants": {"reconcile_exact": true, "exactly_once": true, "require_backfill": true}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	evs := collect(t, spec)
	dayMs := spec.DayStart().UnixMilli()
	latest := -1
	var starts []int
	for i := range evs {
		m := int((evs[i].Timestamp - dayMs) / 60_000)
		next := 0
		if len(starts) > 0 {
			next = starts[len(starts)-1] + 90
		}
		if m < latest && latest >= next && len(starts) < 2 {
			starts = append(starts, latest) // the clock is at latest; this event is behind it
		}
		latest = max(latest, m)
	}
	if len(starts) < 2 {
		t.Fatalf("stream has %d lagging events 90 minutes apart, want 2", len(starts))
	}
	for _, s := range starts {
		spec.Faults = append(spec.Faults, Fault{Kind: FaultOutage, Subject: "west", StartMinute: s, EndMinute: s + 60})
	}
	if err := spec.validate(); err != nil {
		t.Fatal(err)
	}
	res, err := Run(spec, RunConfig{Name: "test", Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if edges := res.Telemetry.Series["scenario.fault.edges"]; edges != 4 {
		t.Fatalf("windows at %v: west went dark or reopened %d times, want 4 (2 windows)", starts, edges)
	}
	if !res.OK {
		t.Fatalf("invariants failed: %+v", res.Invariants)
	}
}

// TestNodeCrashSweep slides one node_crash window across the day: at every
// start the cluster hints, replays and drains, and both the single counter
// and the scatter-gathered cluster reconcile exactly.
func TestNodeCrashSweep(t *testing.T) {
	base, err := Parse([]byte(fmt.Sprintf(sweepBase, 60,
		`{"kind": "node_crash", "subject": "1", "start_minute": 60, "end_minute": 180}`)))
	if err != nil {
		t.Fatal(err)
	}
	for start := 60; start <= 1050; start += 110 {
		spec := *base
		spec.Faults = []Fault{{Kind: FaultNodeCrash, Subject: "1", StartMinute: start, EndMinute: start + 120}}
		if err := spec.validate(); err != nil {
			t.Fatal(err)
		}
		res, err := Run(&spec, RunConfig{Name: "sweep", Shards: 2})
		if err != nil {
			t.Fatalf("crash at %d: %v", start, err)
		}
		if !res.OK || len(res.Invariants) != 3 {
			t.Errorf("crash at %d: invariants %+v", start, res.Invariants)
		}
	}
}
