package cluster

import (
	"time"

	"unilog/internal/analytics"
	"unilog/internal/events"
	"unilog/internal/realtime"
)

// Per-node, per-partition query surface. Partitions hold disjoint name
// sets, so a cluster-wide answer is the sum of one live replica's
// partial per partition; the scatter-gather merge lives in
// birdbrain.Scatter. SumPaths takes path IDs of the process-wide events
// name table, which the router also routes by, so every node's counts add
// up index for index (separate processes would need ROADMAP's parked
// dictionary delta first). Every method fails with ErrNodeDown on a
// crashed node — a crashed counter's memory may still be readable
// in-process, but a dead machine's would not be, and the failover path
// only gets exercised if we refuse to answer.

// SumPaths adds the node's count of each path ID within one partition
// over [from, to) to out, index for index with ids (realtime.Counter's
// SumPaths). On an error nothing is added.
func (n *Node) SumPaths(p int, ids []uint32, from, to time.Time, out []int64) error {
	n.stallQuery()
	n.mu.RLock()
	defer n.mu.RUnlock()
	c, err := n.queryCounter(p)
	if err != nil {
		return err
	}
	c.SumPaths(ids, from, to, out)
	return nil
}

// PathSum returns the node's count for a hierarchy path within one
// partition over [from, to).
func (n *Node) PathSum(p int, path string, from, to time.Time) (int64, error) {
	id, ok := events.PathID(path)
	if !ok {
		id = events.NoParent // a path no counter counted
	}
	var total [1]int64
	err := n.SumPaths(p, []uint32{id}, from, to, total[:])
	return total[0], err
}

// Series adds the node's per-minute counts for a path within one
// partition over [from, to) into out and returns it
// (realtime.Counter.AddSeries).
func (n *Node) Series(p int, path string, from, to time.Time, out []int64) ([]int64, error) {
	n.stallQuery()
	n.mu.RLock()
	defer n.mu.RUnlock()
	c, err := n.queryCounter(p)
	if err != nil {
		return out, err
	}
	return c.AddSeries(path, from, to, out), nil
}

// Rollups returns the node's §3.2 rollup rows for one partition over
// [from, to), keyed like analytics.Rollups.
func (n *Node) Rollups(p int, from, to time.Time) (map[analytics.RollupKey]int64, error) {
	n.stallQuery()
	n.mu.RLock()
	defer n.mu.RUnlock()
	c, err := n.queryCounter(p)
	if err != nil {
		return nil, err
	}
	return c.RollupSnapshot(from, to), nil
}

// queryCounter resolves partition p's counter; the caller holds RLock.
func (n *Node) queryCounter(p int) (*realtime.Counter, error) {
	if n.crashed {
		return nil, ErrNodeDown
	}
	c := n.counters[p]
	if c == nil {
		return nil, ErrNotReplica
	}
	return c, nil
}
