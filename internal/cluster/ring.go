package cluster

import (
	"fmt"
	"sort"

	"unilog/internal/events"
)

// ring places a fixed set of namespace partitions on the nodes,
// Dynamo-style: every node contributes several virtual points hashed
// onto a circle, and partition p's replica set is the first R distinct
// nodes found walking clockwise from hash("partition/<p>"). Event names
// map to partitions by plain hash modulo — the *placement* is what the
// consistent ring smooths, so partition counts per node stay balanced
// and growing the cluster would move only the partitions that land near
// new points.
//
// The ring is immutable after construction: membership changes in this
// simulation are crashes and restarts of known nodes, not resizes, so
// replica sets are computed once and a crash never re-routes a
// partition — it hints instead, which is what keeps replays exact.
type ring struct {
	partitions int
	// replicas[p] lists the node ids holding partition p, primary first.
	replicas [][]int
	// hosted[id] lists the partitions node id replicates, ascending.
	hosted [][]int
}

type ringPoint struct {
	hash uint64
	node int
}

func newRing(nodes, vpoints, partitions, rf int) *ring {
	points := make([]ringPoint, 0, nodes*vpoints)
	for id := 0; id < nodes; id++ {
		for v := 0; v < vpoints; v++ {
			points = append(points, ringPoint{
				hash: mix64(events.Hash64(fmt.Sprintf("node/%d/point/%d", id, v))),
				node: id,
			})
		}
	}
	sort.Slice(points, func(i, j int) bool {
		if points[i].hash != points[j].hash {
			return points[i].hash < points[j].hash
		}
		return points[i].node < points[j].node
	})
	r := &ring{
		partitions: partitions,
		replicas:   make([][]int, partitions),
		hosted:     make([][]int, nodes),
	}
	for p := 0; p < partitions; p++ {
		h := mix64(events.Hash64(fmt.Sprintf("partition/%d", p)))
		start := sort.Search(len(points), func(i int) bool { return points[i].hash >= h })
		set := make([]int, 0, rf)
		seen := make(map[int]bool, rf)
		for i := 0; len(set) < rf && i < len(points); i++ {
			pt := points[(start+i)%len(points)]
			if !seen[pt.node] {
				seen[pt.node] = true
				set = append(set, pt.node)
			}
		}
		r.replicas[p] = set
		for _, id := range set {
			r.hosted[id] = append(r.hosted[id], p)
		}
	}
	return r
}

// partitionOf maps an event name's hash (events.NameEntry.Hash) to its
// partition.
func (r *ring) partitionOf(h uint64) int {
	return int(mix64(h) % uint64(r.partitions))
}

// hostedBy returns the partitions node id replicates, ascending.
func (r *ring) hostedBy(id int) []int { return r.hosted[id] }

// mix64 is the splitmix64 finalizer. Raw FNV-1a over near-identical
// strings ("node/0/point/1", "node/0/point/2", ...) produces *ordered*
// hashes — ring points from one node clump together and entire nodes
// end up hosting nothing. The finalizer avalanches those low-entropy
// differences across all 64 bits, which is what makes the virtual-point
// placement actually balance.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}
