package cluster

import (
	"testing"

	"unilog/internal/zk"
)

// idleCluster is a warmed 3-node, R = 2 memory-only cluster with every
// tapped event delivered and applied: nothing is in flight anywhere.
func idleCluster(tb testing.TB) *Cluster {
	tb.Helper()
	c, err := New(Config{Nodes: 3, ReplicationFactor: 2, Clock: zk.NewManualClock(t0)})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { c.Close() })
	c.TapBatch(tapEntries(500))
	c.Sync()
	return c
}

// A cluster Sync with nothing in flight reaches every partition counter of
// every node and finds each idle: no sync message, no allocation (it was
// two allocations per counter, 64 on this cluster, when every counter's
// drain was asked).
func TestSyncIdleAllocatesNothing(t *testing.T) {
	c := idleCluster(t)
	if avg := testing.AllocsPerRun(100, c.Sync); avg != 0 {
		t.Fatalf("an idle cluster Sync allocates %.1f objects, want 0", avg)
	}
}

// BenchmarkClusterSyncIdle is the read barrier a scatter query pays before
// it fans out, on a cluster with nothing in flight.
func BenchmarkClusterSyncIdle(b *testing.B) {
	c := idleCluster(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Sync()
	}
}
