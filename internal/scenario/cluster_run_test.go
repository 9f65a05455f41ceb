package scenario

import (
	"testing"
)

// TestRunNodeCrashCell is the end-to-end proof behind the node-crash CI
// cell: a 3-node R=2 cluster ingests the day in parallel with the
// single counter, node 1 crashes mid-day and restarts hours later, and
// the cell must observe degraded scatter queries during the outage,
// replay every hinted write after recovery, and reconcile the cluster's
// scatter-gathered day exactly against the batch rollups.
func TestRunNodeCrashCell(t *testing.T) {
	spec, err := Parse([]byte(`{
		"name": "node-crash-test",
		"total_sessions": 80,
		"regions": ["east", "west"],
		"clients": [
			{"id": "web", "rate_fraction": 0.7, "arrival": {"process": "poisson"}},
			{"id": "mobile", "rate_fraction": 0.3, "arrival": {"process": "gamma", "cv": 2}}
		],
		"cluster": {"nodes": 3, "replication_factor": 2, "partitions": 16},
		"faults": [{"kind": "node_crash", "subject": "1", "start_minute": 360, "end_minute": 600}],
		"invariants": {
			"reconcile_exact": true,
			"exactly_once": true,
			"require_handoff": true,
			"min_degraded_queries": 1
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
	if res.ClusterNodes != 3 || res.ClusterReplication != 2 {
		t.Fatalf("cluster shape %d/%d, want 3/2", res.ClusterNodes, res.ClusterReplication)
	}
	if res.NodeCrashes != 1 || res.NodeRestarts != 1 {
		t.Fatalf("crash/restart edges %d/%d, want 1/1", res.NodeCrashes, res.NodeRestarts)
	}
	if res.DetectorDeaths == 0 {
		t.Fatal("detector never declared the crashed node dead")
	}
	if res.HandoffHinted == 0 {
		t.Fatal("4-hour crash window produced no hinted writes")
	}
	if res.HandoffReplayed != res.HandoffHinted {
		t.Fatalf("replayed %d of %d hinted writes", res.HandoffReplayed, res.HandoffHinted)
	}
	if res.DegradedQueries == 0 {
		t.Fatal("no scatter probe observed a degraded fan during the outage")
	}
	if res.PartialQueries != 0 {
		t.Fatalf("%d probes went partial — R=2 with one node down must still answer", res.PartialQueries)
	}
	if !res.ClusterDrained {
		t.Fatal("cluster did not drain by end of day")
	}
	if !res.ClusterReconcileOK {
		t.Fatalf("cluster reconcile diverged: %d diffs", res.ClusterReconcileDiffs)
	}
	if !res.OK {
		t.Fatalf("invariants failed: %+v", res.Invariants)
	}
}
