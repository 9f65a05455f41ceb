package cluster

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"unilog/internal/events"
	"unilog/internal/geo"
	"unilog/internal/realtime"
)

// Errors surfaced by node delivery.
var (
	// ErrNodeDown is returned by deliveries and queries against a crashed
	// node; the send queue treats it like any network failure.
	ErrNodeDown = errors.New("cluster: node is down")
	// ErrNotReplica reports a routing bug: the node does not host the
	// event's partition.
	ErrNotReplica = errors.New("cluster: node does not replicate partition")
)

// routed is one event bound for one partition replica: 16 bytes and no
// pointers — the name is its events name-table ID, the country its index in
// geo.Countries (len(geo.Countries) for geo.Unknown) — so a queued or hinted
// write stays intact however long the target node is down, independent of
// the caller's buffers, and a backlog of them is nothing for the GC to scan.
type routed struct {
	minute   int64  // event timestamp in Unix minutes
	name     uint32 // events.NameEntry.ID
	p        uint16 // partition; New caps Partitions at 1<<16
	country  uint8  // geo.CountryIndexOfBytes of the event's IP
	loggedIn bool
}

// Node is one member of the cluster: a realtime.Counter per partition
// it replicates, plus a crashed flag that makes every delivery and
// query fail exactly the way a dead machine's would. The counters are
// the node's entire state — crash/recovery semantics (WAL, snapshots,
// re-digestion) are realtime's, untouched.
type Node struct {
	id  int
	dir string // "" = memory-only; crashes lose state
	cfg realtime.Config

	// mu orders deliveries/queries (readers) against crash/restart
	// (writers): a delivery holding RLock either completes before the
	// crash drains the counters — so its events are in the WAL — or
	// starts after and fails with ErrNodeDown and gets retried/hinted.
	// No event can be both applied and hinted.
	mu       sync.RWMutex
	crashed  bool
	counters map[int]*realtime.Counter
	span     int // one past the highest partition hosted

	crashes  atomic.Int64
	restarts atomic.Int64

	// queryDelay stalls every query by the given duration (nanoseconds) —
	// a test knob simulating the slow-but-alive node that per-replica
	// query timeouts exist to race around. Deliveries are unaffected.
	queryDelay atomic.Int64
}

// SetQueryDelay makes every subsequent query against the node sleep for
// d before answering. Zero restores normal service.
func (n *Node) SetQueryDelay(d time.Duration) { n.queryDelay.Store(int64(d)) }

// stallQuery applies the configured query delay. It runs before the
// node's read lock is taken, so a stalled query never blocks a
// crash/restart — exactly like a slow machine that is wedged on IO, not
// holding anyone's locks.
func (n *Node) stallQuery() {
	if d := n.queryDelay.Load(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}

func newNode(id int, partitions []int, dir string, cfg realtime.Config) (*Node, error) {
	n := &Node{id: id, dir: dir, cfg: cfg}
	counters, err := n.openCounters(partitions)
	if err != nil {
		return nil, err
	}
	n.counters = counters
	for _, p := range partitions {
		n.span = max(n.span, p+1)
	}
	return n, nil
}

func (n *Node) openCounters(partitions []int) (map[int]*realtime.Counter, error) {
	counters := make(map[int]*realtime.Counter, len(partitions))
	for _, p := range partitions {
		if n.dir == "" {
			counters[p] = realtime.New(n.cfg)
			continue
		}
		c, err := realtime.Open(filepath.Join(n.dir, fmt.Sprintf("p%d", p)), n.cfg)
		if err != nil {
			for _, open := range counters {
				open.Close()
			}
			return nil, fmt.Errorf("cluster: node %d partition %d: %w", n.id, p, err)
		}
		counters[p] = c
	}
	return counters, nil
}

// deliver applies a batch of routed events: the whole batch, or — if the
// node is down or the batch names a partition it does not host — none of
// it. The events go through one realtime.Batcher per partition counter,
// flushed before the read lock is released, so a delivery of N events
// appends at most one WAL record per (hosted partition, shard, MaxBatch
// events) instead of N, and a delivery that returned nil is in the shard
// queues before crash can take the write lock. Each event's name ID is
// resolved against one events.NameEntries snapshot taken here, after the
// router numbered every name in the batch, so no name is looked up again.
func (n *Node) deliver(batch []routed) error {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if n.crashed {
		return ErrNodeDown
	}
	batchers := make([]*realtime.Batcher, n.span)
	for i := range batch {
		p := int(batch[i].p)
		if p < len(batchers) && batchers[p] != nil {
			continue
		}
		if p >= len(batchers) || n.counters[p] == nil {
			return fmt.Errorf("%w: node %d, partition %d", ErrNotReplica, n.id, p)
		}
		batchers[p] = n.counters[p].NewBatcher()
	}
	names := events.NameEntries()
	for i := range batch {
		r := &batch[i]
		batchers[r.p].AddObservation(realtime.Observation{
			Name:     names[r.name],
			Minute:   r.minute,
			Country:  geo.CountryOfIndex(int(r.country)),
			LoggedIn: r.loggedIn,
		})
	}
	for _, b := range batchers {
		if b != nil {
			b.Flush()
		}
	}
	tmClusterDeliver.Add(int64(len(batch)))
	tmClusterDeliverBatch.Observe(int64(len(batch)))
	return nil
}

// crash kills the node: counters stop as on a process kill (durable
// ones keep their WALs; memory-only ones lose everything) and all
// subsequent deliveries and queries fail until restart.
func (n *Node) crash() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.crashed {
		return
	}
	n.crashed = true
	n.crashes.Add(1)
	for _, c := range n.counters {
		if n.dir != "" {
			c.Crash()
		} else {
			c.Close()
		}
	}
}

// restart brings a crashed node back. Durable nodes recover each
// partition counter from its WAL and snapshots; memory-only nodes come
// back empty. Restarting a live node is a no-op.
func (n *Node) restart() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.crashed {
		return nil
	}
	partitions := make([]int, 0, len(n.counters))
	for p := range n.counters {
		partitions = append(partitions, p)
	}
	counters, err := n.openCounters(partitions)
	if err != nil {
		return err
	}
	n.counters = counters
	n.crashed = false
	n.restarts.Add(1)
	return nil
}

// isCrashed reports whether the node is down.
func (n *Node) isCrashed() bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.crashed
}

// sync blocks until every delivered observation is applied (no-op on a
// crashed node).
func (n *Node) sync() {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if n.crashed {
		return
	}
	for _, c := range n.counters {
		c.Sync()
	}
}

// close shuts the node down cleanly (final snapshots on durable nodes).
func (n *Node) close() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.crashed {
		return nil
	}
	n.crashed = true
	for _, c := range n.counters {
		c.Close()
	}
	return nil
}

// counterStats sums the realtime Stats of the node's counters. Counters
// stay readable (and stats-readable) after shutdown, so this works on
// crashed memory-only nodes too — but after a durable restart the
// pre-crash deltas live in the recovered counters already.
func (n *Node) counterStats() realtime.Stats {
	n.mu.RLock()
	defer n.mu.RUnlock()
	var s realtime.Stats
	for _, c := range n.counters {
		s = sumStats(s, c.Stats())
	}
	return s
}
