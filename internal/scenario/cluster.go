package scenario

import (
	"fmt"
	"os"
	"strconv"
	"time"

	"unilog/internal/birdbrain"
	"unilog/internal/cluster"
	"unilog/internal/hdfs"
	"unilog/internal/zk"
)

// clusterHarness drives the replicated-cluster half of a scenario run:
// a durable N-node cluster tapped in parallel with the single counter,
// the fault schedule applied on a minute-stepped manual clock, periodic
// scatter-gather probes (so degraded serving during an outage is
// observed, not assumed), and an end-of-day settle loop that lets
// detection and hint replay finish inside the day.
type clusterHarness struct {
	spec    *Spec
	c       *cluster.Cluster
	scatter *birdbrain.Scatter
	clock   *zk.ManualClock
	faults  *faultSchedule
	day     time.Time
	dir     string

	curMinute int

	probes   int64
	degraded int64
	partial  int64
}

// probeEvery is the scatter-probe cadence in simulated minutes: dense
// enough that a multi-hour crash window is probed many times, sparse
// enough to stay a rounding error next to ingestion.
const probeEvery = 5

// Detector timing for scenario clusters. The clock advances one
// simulated minute per step, so heartbeats are minutes apart; suspicion
// at 2.5 minutes of silence and death at 5 keep healthy nodes from
// flapping while still detecting a crash well inside any meaningful
// fault window.
const (
	scenarioHeartbeat    = time.Minute
	scenarioSuspectAfter = 150 * time.Second
	scenarioDeadAfter    = 300 * time.Second
)

// newClusterHarness stands the cluster up and gives the fault schedule one
// node_crash switch per node.
func newClusterHarness(spec *Spec, clock *zk.ManualClock, faults *faultSchedule) (*clusterHarness, error) {
	dir, err := os.MkdirTemp("", "scenario-cluster-")
	if err != nil {
		return nil, err
	}
	c, err := cluster.New(cluster.Config{
		Nodes:             spec.Cluster.Nodes,
		ReplicationFactor: spec.Cluster.ReplicationFactor,
		Partitions:        spec.Cluster.Partitions,
		Clock:             clock,
		Dir:               dir,
		HeartbeatEvery:    scenarioHeartbeat,
		SuspectAfter:      scenarioSuspectAfter,
		DeadAfter:         scenarioDeadAfter,
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	c.Publish(nil)
	h := &clusterHarness{
		spec:    spec,
		c:       c,
		scatter: birdbrain.NewScatter(c),
		clock:   clock,
		faults:  faults,
		day:     spec.DayStart(),
		dir:     dir,
	}
	for n := 0; n < spec.Cluster.Nodes; n++ {
		faults.add(FaultNodeCrash, strconv.Itoa(n), func(level int) error {
			if level > 0 {
				c.Crash(n)
				return nil
			}
			return c.Restart(n)
		})
	}
	return h, nil
}

func (h *clusterHarness) close() {
	h.c.Close()
	os.RemoveAll(h.dir)
}

// probe issues one scatter query over the day-so-far window, rotating
// verbs so PathSum, TopK, and Series all get exercised against whatever
// membership the minute has, and records how the fan went.
func (h *clusterHarness) probe(m int) {
	from, to := h.day, h.day.Add(time.Duration(m+1)*time.Minute)
	var meta birdbrain.QueryMeta
	switch (m / probeEvery) % 3 {
	case 0:
		_, meta = h.scatter.PathSum("web", from, to)
	case 1:
		_, meta = h.scatter.TopK("", 3, from, to)
	case 2:
		_, meta = h.scatter.Series("web", from, to)
	}
	h.probes++
	if meta.Degraded {
		h.degraded++
	}
	if meta.Partial {
		h.partial++
	}
}

// advanceTo walks the manual clock minute by minute up to the given
// minute of the day: each step advances one minute, applies the fault
// schedule at it, ticks the cluster (heartbeats, detection, hint
// replay), probes on the cadence, and hands whole hours to onHour as
// they complete. The single-counter path jumps the clock hour to hour;
// the cluster cannot — failure detection lives between the hours.
func (h *clusterHarness) advanceTo(minute int, onHour func(hr int) error) error {
	for m := h.curMinute + 1; m <= minute; m++ {
		h.clock.Advance(time.Minute)
		if err := h.faults.apply(m); err != nil {
			return err
		}
		h.c.Tick()
		if m%60 == 0 {
			if err := onHour(m / 60); err != nil {
				return err
			}
		}
		if m%probeEvery == 0 {
			h.probe(m)
		}
	}
	if minute > h.curMinute {
		h.curMinute = minute
	}
	return nil
}

// drain runs the day's tail after the last tap input: keep ticking —
// the clock staying strictly inside the day — until every send queue
// and hint has drained. Validation closes every fault window inside the
// active window and caps DurationMinutes at 23h, so the loop always has
// at least an hour of simulated time, far beyond detection + replay.
func (h *clusterHarness) drain() error {
	h.c.Tick()
	for m := h.curMinute + 1; m <= 23*60+59 && !h.c.Drained(); m++ {
		h.clock.Advance(time.Minute)
		h.c.Tick()
		h.curMinute = m
	}
	if !h.c.Drained() {
		return fmt.Errorf("scenario %s: cluster failed to drain by end of day: %+v",
			h.spec.Name, h.c.Stats())
	}
	h.c.Sync()
	return nil
}

// finish reconciles the cluster's scatter-gathered day against the
// batch rollups and writes the cluster fields into the result.
func (h *clusterHarness) finish(res *Result, wh *hdfs.FS) error {
	report, meta, err := h.scatter.Reconcile(wh, h.day)
	if err != nil {
		return err
	}
	if meta.Partial {
		return fmt.Errorf("scenario %s: cluster reconcile fan was partial: %+v", h.spec.Name, meta)
	}
	s := h.c.Stats()
	res.ClusterNodes = s.Nodes
	res.ClusterReplication = s.Replication
	res.ClusterReconcileOK = report.OK()
	res.ClusterReconcileDiffs = report.MissingN + report.ExtraN + report.MismatchN
	res.ClusterDrained = h.c.Drained()
	res.HandoffHinted = s.Hinted
	res.HandoffReplayed = s.Replayed
	res.NodeCrashes = s.NodeCrashes
	res.NodeRestarts = s.NodeRestarts
	res.DetectorDeaths = s.Deaths
	res.DetectorRevivals = s.Revivals
	res.ScatterProbes = h.probes
	res.DegradedQueries = h.degraded
	res.PartialQueries = h.partial
	return nil
}
