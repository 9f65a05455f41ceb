// Package cluster lifts the realtime counter service from one process
// holding the whole namespace to a replicated multi-node group — the
// architecture the paper's §6 real-time direction (Rainbird behind
// BirdBrain) needs once "millions of users" stops being a figure of
// speech: no single node can hold every counter, and losing a machine
// must not lose the numbers.
//
// Topology. The event namespace is carved into a fixed set of
// partitions: an event's interned name hashes to a partition, and a
// consistent-hash ring of the nodes (each contributing several virtual
// points) places every partition on ReplicationFactor distinct nodes,
// primary first. Each node hosts one realtime.Counter per partition it
// replicates, so a partition's counts live complete and self-contained
// on R machines — which is exactly what makes scatter-gather reads
// exact: a query picks ONE live replica per partition and sums the
// partials, never double-counting a replicated write. Per-node
// durability is untouched realtime machinery: with Config.Dir set, each
// partition counter is a realtime.Open WAL+snapshot store, and a node
// restart replays its own logs before the cluster's hinted handoff
// tops it up.
//
// Writes. Ingest (or the scribe TapBatch) routes every accepted event
// to all R replicas of its partition through one send queue per node,
// the only place an undelivered event waits. What is routed, queued and
// parked is a 16-byte record with no pointers — the name's events
// name-table ID, the minute, the country's index in geo.Countries, the
// login bit and the partition, none of them the caller's — which TapBatch
// reads off each message's events.Header without decoding the event. A
// delivery resolves the IDs against one snapshot of the name table, hands a
// node's whole backlog to one Batcher per partition counter as
// realtime.Observations carrying the table's entries, and flushes the
// Batchers before it returns, so each counter logs the delivery as one WAL
// record (Node.FsyncEvery counts those) and the delivery is all or
// nothing: a down node or a partition the node does not host refuses the
// batch before any of it is applied. A delivery fails only when the node
// is down, so the first one that fails — the node crashed and the
// failure detector may not have noticed yet — parks the queue, and so
// does the detector declaring the node dead: the backlog and every later
// write to the node are *hints* that wait in the queue without an
// attempt, and the one retry signal is the detector — every Tick that
// sees the node alive offers them in order, until one is delivered.
// Surviving replicas take every write in the meantime, so the counters a
// reader can reach stay exact through the outage, and the recovered node
// converges to them after WAL recovery plus hint replay —
// Reconcile-exact end to end.
//
// Failure detection. Nodes do not gossip over a network; the cluster
// is an in-process simulation and heartbeats are delivered on Tick:
// every live node refreshes its heartbeat, and a node's silence ages it
// alive → suspect (SuspectAfter) → dead (DeadAfter). Time comes from a
// zk.Clock, so scenarios drive the whole failure schedule — crash,
// suspicion, death, restart, revival, hint replay — deterministically
// off a zk.ManualClock.
//
// Reads. The scatter-gather layer lives in birdbrain (Scatter): it fans
// PathSum/Series/TopK over the partitions, prefers the primary replica,
// fails over to the others when one is dead or errors mid-query, and
// marks the merged response degraded (a fallback or dead replica was
// involved) or partial (some partition had no live replica at all) in
// both the result metadata and telemetry.
package cluster

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"unilog/internal/events"
	"unilog/internal/geo"
	"unilog/internal/realtime"
	"unilog/internal/scribe"
	"unilog/internal/telemetry"
	"unilog/internal/thrift"
	"unilog/internal/zk"
)

// Config sizes the cluster. Zero values take the defaults below.
type Config struct {
	// Nodes is the number of counter nodes. Default 3.
	Nodes int
	// ReplicationFactor is how many distinct nodes hold each partition.
	// Default 2, clamped to Nodes.
	ReplicationFactor int
	// Partitions is the fixed number of namespace partitions hashed over
	// the ring. More partitions smooth placement and shrink the data a
	// single node loss leaves under-replicated. Default 16, at most 1<<16
	// (a routed event carries its partition in 16 bits).
	Partitions int
	// VirtualPoints is how many ring points each node contributes;
	// placement evens out as it grows. Default 8.
	VirtualPoints int

	// HeartbeatEvery is the nominal heartbeat cadence; Tick delivers one
	// heartbeat per live node, so call Tick at least this often (scenario
	// harnesses tick every simulated minute and size the windows below
	// accordingly). Default 1s.
	HeartbeatEvery time.Duration
	// SuspectAfter is the heartbeat silence after which a node turns
	// suspect. Default 3 × HeartbeatEvery.
	SuspectAfter time.Duration
	// DeadAfter is the silence after which a suspect node is declared
	// dead: its queue is parked and new writes hint immediately.
	// Default 3 × SuspectAfter.
	DeadAfter time.Duration

	// Dir, when non-empty, makes every node durable: node i's partition p
	// counter recovers from Dir/node<i>/p<p> via the realtime WAL and
	// snapshot machinery. Empty means memory-only nodes — a crash loses
	// the node's counts (restart comes back empty), which is honest but
	// fails reconciliation; use it only for tests without crashes.
	Dir string
	// Node configures each per-partition counter. Cluster nodes default
	// smaller than a standalone counter (Shards 1, QueueDepth 32,
	// MaxBatch 256) because a node hosts one counter per replicated
	// partition.
	Node realtime.Config
	// Clock drives heartbeats and the failure detector. Default
	// zk.SystemClock; scenarios inject the shared zk.ManualClock.
	Clock zk.Clock
}

// maxPartitions is the most partitions routed.p can name.
const maxPartitions = 1 << 16

func (c Config) withDefaults() Config {
	if c.Nodes <= 0 {
		c.Nodes = 3
	}
	if c.ReplicationFactor <= 0 {
		c.ReplicationFactor = 2
	}
	if c.ReplicationFactor > c.Nodes {
		c.ReplicationFactor = c.Nodes
	}
	if c.Partitions <= 0 {
		c.Partitions = 16
	}
	if c.VirtualPoints <= 0 {
		c.VirtualPoints = 8
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = time.Second
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 3 * c.HeartbeatEvery
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 3 * c.SuspectAfter
	}
	if c.Node.Shards <= 0 {
		c.Node.Shards = 1
	}
	if c.Node.QueueDepth <= 0 {
		c.Node.QueueDepth = 32
	}
	if c.Node.MaxBatch <= 0 {
		c.Node.MaxBatch = 256
	}
	if c.Clock == nil {
		c.Clock = zk.SystemClock{}
	}
	return c
}

// Stats is a snapshot of cluster-level activity. Counter aggregates the
// realtime Stats of every live partition counter across all nodes.
type Stats struct {
	Nodes       int
	Partitions  int
	Replication int

	// Ingested counts events accepted for routing; DecodeErrors counts
	// tap entries that failed Thrift decoding or carried a name
	// events.ParseName rejects.
	Ingested     int64
	DecodeErrors int64
	// Delivered counts per-replica event deliveries that reached a node
	// (hint replays included); SendAttempts counts delivery attempts at
	// un-parked queues and SendFailures those that failed and parked one.
	// SendRetries counts replay attempts at a parked backlog, the only
	// retry there is.
	Delivered    int64
	SendAttempts int64
	SendRetries  int64
	SendFailures int64
	// Hinted counts events that were in, or entered, a parked queue;
	// Replayed counts events delivered by the attempt that un-parks one
	// (so the two are equal once Drained); ReplayFailures counts such
	// attempts that failed. HandoffPending is the sum of the parked
	// backlogs, HandoffHighWater the largest it has been.
	Hinted           int64
	Replayed         int64
	ReplayFailures   int64
	HandoffPending   int64
	HandoffHighWater int64
	// Failure-detector transition counts.
	Suspects int64
	Deaths   int64
	Revivals int64
	// Crash/restart counts across all nodes.
	NodeCrashes  int64
	NodeRestarts int64

	Counter realtime.Stats
}

// Cluster is a replicated group of realtime counter nodes behind one
// ingestion router. Create with New, feed it via Ingest or TapBatch,
// drive time with Tick, and read it through birdbrain.Scatter (or the
// per-node query methods in query.go).
type Cluster struct {
	cfg    Config
	clock  zk.Clock
	ring   *ring
	nodes  []*Node
	det    *detector
	queues []*sendQueue
	hints  hintLoad

	ingested   atomic.Int64
	decodeErrs atomic.Int64
}

// New builds and starts a cluster. With cfg.Dir set the nodes recover
// whatever a previous incarnation left in their directories, exactly as
// realtime.Open does per counter.
func New(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	if cfg.Partitions > maxPartitions {
		return nil, fmt.Errorf("cluster: %d partitions, at most %d", cfg.Partitions, maxPartitions)
	}
	c := &Cluster{
		cfg:   cfg,
		clock: cfg.Clock,
		ring:  newRing(cfg.Nodes, cfg.VirtualPoints, cfg.Partitions, cfg.ReplicationFactor),
	}
	for id := 0; id < cfg.Nodes; id++ {
		dir := ""
		if cfg.Dir != "" {
			dir = filepath.Join(cfg.Dir, fmt.Sprintf("node%d", id))
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return nil, err
			}
		}
		n, err := newNode(id, c.ring.hostedBy(id), dir, cfg.Node)
		if err != nil {
			return nil, err
		}
		c.nodes = append(c.nodes, n)
		c.queues = append(c.queues, newSendQueue(n, &c.hints))
	}
	c.det = newDetector(cfg.Nodes, cfg.SuspectAfter, cfg.DeadAfter, c.clock.Now())
	return c, nil
}

// Partitions reports the partition count.
func (c *Cluster) Partitions() int { return c.cfg.Partitions }

// Node returns the node with the given id.
func (c *Cluster) Node(id int) *Node { return c.nodes[id] }

// ReplicasOf returns the ids of the nodes replicating partition p,
// primary first.
func (c *Cluster) ReplicasOf(p int) []int { return c.ring.replicas[p] }

// NodeStatus reports the failure detector's current view of a node.
func (c *Cluster) NodeStatus(id int) Status { return c.det.statusOf(id) }

// Ingest routes one already-decoded event as a one-message TapBatch, so a
// name that fails events.ParseName counts in Stats.DecodeErrors and is
// routed nowhere, as it would from a tap. It is for tests and one-off
// events.
func (c *Cluster) Ingest(e *events.ClientEvent) {
	c.TapBatch([]scribe.Entry{{Category: events.Category, Message: e.Marshal()}})
}

// TapBatch observes one batch of Scribe entries; assign it to
// scribe.Aggregator.Tap exactly like realtime.Counter.TapBatch. Events
// are grouped per target node so a staging flush costs one queue
// interaction per replica node, not per event.
//
// The router reads each message's header in place (events.Header), looks
// the name up in the events name table by its bytes, routes by the entry's
// hash and queues a 16-byte routed record — the entry's ID, the minute, the
// country's index, the login bit — so nothing it parks aliases the
// caller's buffers and no replica looks the name up again. A message that
// fails the walk, or whose name fails events.ParseName the first time it is
// seen, counts in Stats.DecodeErrors and is routed nowhere. Each per-node
// slice built here is handed to its send queue, which keeps it.
func (c *Cluster) TapBatch(batch []scribe.Entry) {
	perNode := make([][]routed, len(c.nodes))
	var dec thrift.CompactDecoder
	var h events.Header
	for i := range batch {
		if batch[i].Category != events.Category {
			continue
		}
		dec.Reset(batch[i].Message)
		err := h.Decode(&dec)
		var name *events.NameEntry
		if err == nil {
			name, err = events.LookupBytes(h.Name)
		}
		if err != nil {
			c.decodeErrs.Add(1)
			tmClusterDecodeErrs.Inc()
			continue
		}
		c.ingested.Add(1)
		tmClusterIngest.Inc()
		r := routed{
			minute:   h.Timestamp / 60_000,
			name:     name.ID,
			p:        uint16(c.ring.partitionOf(name.Hash)),
			country:  uint8(geo.CountryIndexOfBytes(h.IP)),
			loggedIn: h.LoggedIn(),
		}
		for _, id := range c.ring.replicas[r.p] {
			if perNode[id] == nil {
				perNode[id] = make([]routed, 0, len(batch))
			}
			perNode[id] = append(perNode[id], r)
		}
	}
	for id, b := range perNode {
		if len(b) > 0 {
			c.queues[id].send(b, c.det.statusOf(id))
		}
	}
}

// Tick advances the cluster's failure machinery to the clock's now:
// live nodes heartbeat, the detector re-ages every node (suspect →
// dead → alive transitions land here), and every queue is pumped with
// its node's status — a dead node's queue parks, a node seen alive gets
// its hints. Call it on every scenario time step; a production loop would
// run it on a ticker at HeartbeatEvery.
func (c *Cluster) Tick() {
	now := c.clock.Now()
	for _, n := range c.nodes {
		if !n.isCrashed() {
			c.det.heartbeat(n.id, now)
		}
	}
	c.det.refresh(now)
	for id, q := range c.queues {
		q.pump(c.det.statusOf(id))
	}
}

// Crash kills one node the way a machine loss would: its counters stop
// (WALs keep what the fsync cadence made durable), the next delivery to
// it fails and parks its queue, and later writes hint.
func (c *Cluster) Crash(id int) {
	c.nodes[id].crash()
	tmClusterCrashes.Inc()
}

// Restart brings a crashed node back: durable nodes recover their
// counters from WAL+snapshot first. The node heartbeats again on the
// next Tick, and its hints replay when the detector sees it alive.
func (c *Cluster) Restart(id int) error {
	if err := c.nodes[id].restart(); err != nil {
		return err
	}
	tmClusterRestarts.Inc()
	return nil
}

// Drained reports whether every send queue is empty, hints included —
// the condition under which every routed event has reached all R of
// its replicas.
func (c *Cluster) Drained() bool {
	for _, q := range c.queues {
		if q.pendingLen() > 0 {
			return false
		}
	}
	return true
}

// Sync blocks until every delivered observation is applied on every
// live node — the cluster-wide read-your-writes barrier. It is each
// partition counter's realtime.Counter.Sync, so an idle shard costs two
// atomic loads and only shards with batches in flight are waited on. It
// does not flush send queues or hints; see Drained and Tick for those.
func (c *Cluster) Sync() {
	for _, n := range c.nodes {
		n.sync()
	}
}

// Close shuts every node down (final snapshots on durable nodes).
// Undelivered queue entries and unreplayed hints are dropped; callers
// that need exactness drain first (Tick until Drained).
func (c *Cluster) Close() error {
	var err error
	for _, n := range c.nodes {
		if cerr := n.close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// Stats returns a cluster-level activity snapshot.
func (c *Cluster) Stats() Stats {
	s := Stats{
		Nodes:       len(c.nodes),
		Partitions:  c.cfg.Partitions,
		Replication: c.cfg.ReplicationFactor,
	}
	s.Ingested = c.ingested.Load()
	s.DecodeErrors = c.decodeErrs.Load()
	for _, q := range c.queues {
		qs := q.statsSnap()
		s.Delivered += qs.delivered
		s.SendAttempts += qs.attempts
		s.SendRetries += qs.retries
		s.SendFailures += qs.failures
		s.Hinted += qs.hinted
		s.Replayed += qs.replayed
		s.ReplayFailures += qs.replayFailures
	}
	s.HandoffPending = c.hints.pending.Load()
	s.HandoffHighWater = c.hints.highWater.Load()
	s.Suspects, s.Deaths, s.Revivals = c.det.transitions()
	for _, n := range c.nodes {
		s.NodeCrashes += n.crashes.Load()
		s.NodeRestarts += n.restarts.Load()
		s.Counter = sumStats(s.Counter, n.counterStats())
	}
	return s
}

// Publish wires the cluster's live backlog and membership view into reg
// as snapshot-time gauges (nil means telemetry.Default).
func (c *Cluster) Publish(reg *telemetry.Registry) {
	if reg == nil {
		reg = telemetry.Default
	}
	reg.GaugeFunc("cluster.handoff.pending", c.hints.pending.Load)
	reg.GaugeFunc("cluster.nodes.alive", func() int64 {
		var n int64
		for id := range c.nodes {
			if c.det.statusOf(id) == StatusAlive {
				n++
			}
		}
		return n
	})
	reg.GaugeFunc("cluster.queues.pending", func() int64 {
		n := -c.hints.pending.Load() // hints have their own gauge
		for _, q := range c.queues {
			n += int64(q.pendingLen())
		}
		return n
	})
}

// sumStats adds the monotonic fields of two realtime Stats snapshots.
func sumStats(a, b realtime.Stats) realtime.Stats {
	a.Observed += b.Observed
	a.TapEntries += b.TapEntries
	a.DecodeErrors += b.DecodeErrors
	a.Invalid += b.Invalid
	a.DroppedOld += b.DroppedOld
	a.Evicted += b.Evicted
	a.QueueFull += b.QueueFull
	a.WALBatches += b.WALBatches
	a.WALBytes += b.WALBytes
	a.WALErrors += b.WALErrors
	a.Fsyncs += b.Fsyncs
	a.Snapshots += b.Snapshots
	a.SnapshotErrors += b.SnapshotErrors
	return a
}
