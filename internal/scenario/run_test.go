package scenario

import (
	"fmt"
	"testing"

	"unilog/internal/events"
)

// TestRunOutageBackfillCell is the end-to-end proof the CI matrix relies
// on: a region goes dark mid-day, its daemons spool, the spools replay
// after the window, and the cell ends exactly-once with the realtime
// counters agreeing exactly with the batch rollups — Reconcile(day)
// exact after backfill.
func TestRunOutageBackfillCell(t *testing.T) {
	spec, err := Parse([]byte(`{
		"name": "outage-test",
		"total_sessions": 60,
		"regions": ["east", "west"],
		"clients": [
			{"id": "web", "rate_fraction": 0.7, "arrival": {"process": "poisson"}},
			{"id": "mobile", "rate_fraction": 0.3, "arrival": {"process": "gamma", "cv": 2}}
		],
		"outages": [{"region": "west", "start_minute": 300, "end_minute": 480}],
		"invariants": {
			"reconcile_exact": true,
			"exactly_once": true,
			"require_backfill": true,
			"min_send_failures": 1
		}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(spec, RunConfig{Name: "test", Shards: 2, MemoryBudgetBytes: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Events == 0 {
		t.Fatal("no events ran")
	}
	if res.SendFailures == 0 {
		t.Fatal("outage injected no send failures — the region never went dark")
	}
	if res.SpooledAtEnd != 0 {
		t.Fatalf("%d entries still spooled — backfill did not complete", res.SpooledAtEnd)
	}
	if !res.ExactlyOnce {
		t.Fatalf("accepted %d events but warehouse holds %d", res.Events, res.InWarehouse)
	}
	if !res.ReconcileOK {
		t.Fatalf("reconcile diverged after backfill: %d diffs over %d batch rows",
			res.ReconcileDiffs, res.ReconcileBatchRows)
	}
	if !res.OK {
		t.Fatalf("invariants failed: %+v", res.Invariants)
	}
	if res.Telemetry.Series["realtime.ingest.events"] != res.Events {
		t.Fatalf("telemetry ingest %d != accepted %d",
			res.Telemetry.Series["realtime.ingest.events"], res.Events)
	}
}

// TestRunFlashCrowdCell drives the other vertical: a subtree spike must
// amplify traffic, land exactly-once, and still reconcile exactly.
func TestRunFlashCrowdCell(t *testing.T) {
	spec, err := Parse([]byte(`{
		"name": "crowd-test",
		"total_sessions": 40,
		"regions": ["east"],
		"clients": [{"id": "web", "rate_fraction": 1.0}],
		"flash_crowds": [
			{"subtree": "web:home", "start_minute": 600, "end_minute": 780, "multiplier": 20}
		],
		"invariants": {
			"reconcile_exact": true,
			"exactly_once": true,
			"min_crowd_events": 1
		}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(spec, RunConfig{Name: "test", Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.CrowdEvents == 0 {
		t.Fatal("flash crowd produced no synthetic events")
	}
	if !res.OK {
		t.Fatalf("invariants failed: %+v", res.Invariants)
	}
}

func TestInvariantFailureIsReported(t *testing.T) {
	spec, err := Parse([]byte(`{
		"name": "impossible",
		"total_sessions": 10,
		"regions": ["east"],
		"clients": [{"id": "web", "rate_fraction": 1.0}],
		"invariants": {"min_send_failures": 1}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(spec, RunConfig{Name: "test"})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK {
		t.Fatal("cell with no outage cannot satisfy min_send_failures, yet OK=true")
	}
	found := false
	for _, c := range res.Invariants {
		if c.Name == "min_send_failures" && !c.OK {
			found = true
		}
	}
	if !found {
		t.Fatalf("failed invariant not reported: %+v", res.Invariants)
	}
}

// TestEventDigest: the exactly-once digest is a multiset's. The same events
// in the same order or in another digest equal; one dropped and another
// duplicated keep the count and move the sum.
func TestEventDigest(t *testing.T) {
	var evs []events.ClientEvent
	for i := 0; i < 6; i++ {
		evs = append(evs, events.ClientEvent{
			Name:      events.MustParseName(fmt.Sprintf("web:home:timeline:stream:tweet:action%d", i%3)),
			UserID:    int64(i % 2),
			SessionID: fmt.Sprintf("s%d", i%4),
			Timestamp: 1_345_507_200_000 + int64(i)*1000,
		})
	}
	digest := func(order ...int) eventDigest {
		var d eventDigest
		for _, i := range order {
			d.add(&evs[i])
		}
		return d
	}
	want := digest(0, 1, 2, 3, 4, 5)
	if got := digest(0, 1, 2, 3, 4, 5); got != want {
		t.Errorf("the same events digest %+v, then %+v", want, got)
	}
	if got := digest(5, 3, 1, 0, 4, 2); got != want {
		t.Errorf("reordered events digest %+v, in order %+v", got, want)
	}
	got := digest(0, 1, 2, 3, 4, 4) // 5 lost, 4 twice
	if got.n != want.n || got.sum == want.sum {
		t.Errorf("a drop plus a duplicate digests %+v, the events %+v: want the count equal and the sum not", got, want)
	}
}
