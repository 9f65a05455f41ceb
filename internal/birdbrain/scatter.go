package birdbrain

import (
	"slices"
	"time"

	"unilog/internal/analytics"
	"unilog/internal/cluster"
	"unilog/internal/dataflow"
	"unilog/internal/events"
	"unilog/internal/hdfs"
	"unilog/internal/realtime"
)

// Scatter serves BirdBrain counting queries from a replicated cluster
// instead of one counter: every verb fans over the namespace
// partitions, asks ONE replica per partition (primary first, failing
// over down the replica list), and merges the disjoint partials into
// the cluster-wide answer. Because partitions split the namespace by
// whole event name, the merge is exact — a sum of sums — whenever every
// partition answers. PathSum and TopK merge in the process-wide path-ID
// space the router also routes by: every partition adds its counts into one
// vector (cluster.Node.SumPaths), which TopK ranks once.
//
// Degradation is explicit rather than silent. A query that had to fail
// over (a replica was dead or errored mid-query) still returns the
// exact answer from the surviving replicas but is marked Degraded; a
// query that found some partition with no live replica at all returns
// the partial sum it could compute, marked Partial (and Degraded).
// Callers — and the scenario harness's invariants — decide what a
// partial answer is worth; the telemetry counters track how often each
// happens. A path no name lies under still fans out, for honest meta.
type Scatter struct {
	c *cluster.Cluster

	// ReplicaTimeout, when positive, hedges slow replicas: a partition
	// query that has not answered within the timeout launches the next
	// replica in parallel and takes whichever answers first — so a
	// slow-but-alive node (wedged on IO, GC, a cold cache) costs one
	// timeout, not the whole query, and in-process errors still fail
	// over immediately as before. Zero keeps the sequential
	// primary-first fan. A hedge win counts as a failover (the answer
	// came from a non-primary) and marks the query Degraded; the hedge
	// launches themselves are counted in birdbrain.scatter.hedges.
	ReplicaTimeout time.Duration
}

// NewScatter builds a scatter-gather query layer over the cluster.
func NewScatter(c *cluster.Cluster) *Scatter { return &Scatter{c: c} }

// QueryMeta reports how a scatter query was assembled.
type QueryMeta struct {
	// Partitions is the fan-out width; Answered counts partitions that
	// produced a partial (Answered < Partitions means a partial result).
	Partitions int
	Answered   int
	// Failovers counts partitions answered by a non-primary replica.
	Failovers int
	// Degraded is true when any partition failed over or any replica
	// refused to answer; the result is still exact if !Partial.
	Degraded bool
	// Partial is true when some partition had no live replica; counts
	// from its slice of the namespace are missing from the result.
	Partial bool
}

// merge folds a per-partition outcome into the meta.
func (m *QueryMeta) merge(answered bool, attempts int) {
	m.Partitions++
	if answered {
		m.Answered++
		if attempts > 0 {
			m.Failovers++
			m.Degraded = true
		}
	} else {
		m.Partial = true
		m.Degraded = true
	}
}

// finish publishes the query's telemetry once the fan is merged.
func (m *QueryMeta) finish() {
	tmScatterQueries.Inc()
	if m.Degraded {
		tmScatterDegraded.Inc()
	}
	if m.Partial {
		tmScatterPartial.Inc()
	}
	tmScatterFailovers.Add(int64(m.Failovers))
}

// fan asks every partition for its partial and folds the answers. query
// runs against one replica, with hedged set when it may race its sibling
// replicas (under ReplicaTimeout), and must then be free of shared state;
// fold is called once per answered partition, always from this goroutine,
// so the verbs' accumulators need no locking. Replicas are tried
// primary-first, and a detector-dead replica is still attempted —
// in-process it fails fast, and attempting keeps answers available when
// the detector lags a restart.
func fan[T any](s *Scatter, query func(p int, n *cluster.Node, hedged bool) (T, error), fold func(T)) QueryMeta {
	var meta QueryMeta
	for p := 0; p < s.c.Partitions(); p++ {
		v, winner, ok := askPartition(s, p, query)
		if ok {
			fold(v)
		}
		meta.merge(ok, winner)
	}
	meta.finish()
	return meta
}

// askPartition gets one partition's partial from its replica set,
// returning the winning replica's index (0 = primary; > 0 counts as a
// failover). Without a ReplicaTimeout the replicas are tried in order;
// with one, a replica that neither answers nor errors within the
// timeout gets raced against the next replica, first answer wins.
func askPartition[T any](s *Scatter, p int, query func(p int, n *cluster.Node, hedged bool) (T, error)) (v T, winner int, ok bool) {
	replicas := s.c.ReplicasOf(p)
	if s.ReplicaTimeout <= 0 {
		for i, id := range replicas {
			if v, err := query(p, s.c.Node(id), false); err == nil {
				return v, i, true
			}
		}
		return v, len(replicas), false
	}
	type reply struct {
		idx int
		v   T
		err error
	}
	// Buffered to the full replica set: a losing replica's late answer
	// parks in the channel and its goroutine exits — no leak, no lock.
	ch := make(chan reply, len(replicas))
	launch := func(idx int) {
		n := s.c.Node(replicas[idx])
		go func() {
			v, err := query(p, n, true)
			ch <- reply{idx: idx, v: v, err: err}
		}()
	}
	launched := 1
	launch(0)
	failed := 0
	timer := time.NewTimer(s.ReplicaTimeout)
	defer timer.Stop()
	for {
		select {
		case r := <-ch:
			if r.err == nil {
				return r.v, r.idx, true
			}
			failed++
			if failed == len(replicas) {
				return v, failed, false
			}
			if failed == launched && launched < len(replicas) {
				// Everything in flight has errored: immediate failover,
				// same as the sequential path. The fresh replica gets a
				// full hedge window — without the reset, a timer armed for
				// a long-dead attempt could hedge it almost immediately.
				launch(launched)
				launched++
				if !timer.Stop() {
					select {
					case <-timer.C:
					default:
					}
				}
				timer.Reset(s.ReplicaTimeout)
			}
		case <-timer.C:
			if launched < len(replicas) {
				launch(launched)
				launched++
				tmScatterHedges.Inc()
				timer.Reset(s.ReplicaTimeout)
			}
			// With every replica launched the timer goes quiet; the
			// remaining replies decide the outcome.
		}
	}
}

// sumPaths fans cluster.Node.SumPaths over the partitions behind one
// Cluster.Sync and adds every partition's counts, index for index with
// ids, into one vector. Replicas asked one at a time share one scratch
// vector; a hedged attempt, which may race its siblings, gets its own.
func (s *Scatter) sumPaths(ids []uint32, from, to time.Time) ([]int64, QueryMeta) {
	s.c.Sync()
	vecs := make([]int64, 2*len(ids))
	total, scratch := vecs[:len(ids)], vecs[len(ids):]
	meta := fan(s, func(p int, n *cluster.Node, hedged bool) ([]int64, error) {
		out := scratch
		if hedged {
			out = make([]int64, len(ids))
		} else {
			clear(out)
		}
		return out, n.SumPaths(p, ids, from, to, out)
	}, func(v []int64) {
		for i, x := range v {
			total[i] += x
		}
	})
	return total, meta
}

// PathSum sums a hierarchy path over [from, to) across the cluster.
func (s *Scatter) PathSum(path string, from, to time.Time) (int64, QueryMeta) {
	defer tmScatterPathSumNs.ObserveSince(time.Now())
	id, ok := events.PathID(path)
	if !ok {
		id = events.NoParent // a path no counter counted: every partition adds 0
	}
	total, meta := s.sumPaths([]uint32{id}, from, to)
	return total[0], meta
}

// Series sums per-minute counts of a path over [from, to) across the
// cluster; index 0 holds from's minute. The partition counters share one
// retention, so the answers share one length: the output is a copy of the
// first, and scratch vectors are handed out as in sumPaths.
func (s *Scatter) Series(path string, from, to time.Time) ([]int64, QueryMeta) {
	defer tmScatterSeriesNs.ObserveSince(time.Now())
	s.c.Sync()
	var out, scratch []int64
	meta := fan(s, func(p int, n *cluster.Node, hedged bool) ([]int64, error) {
		if hedged {
			return n.Series(p, path, from, to, nil)
		}
		v, err := n.Series(p, path, from, to, scratch[:0]) // zeroed as it grows
		scratch = v
		return v, err
	}, func(v []int64) {
		if out == nil {
			out = slices.Clone(v)
			return
		}
		for i, x := range v {
			out[i] += x
		}
	})
	return out, meta
}

// TopK ranks the children of a hierarchy path by count over [from, to)
// across the cluster. Each partition adds its counts of every child into
// one vector (a child heavy overall may be light on any one partition's
// slice), which is ranked once, ties breaking by path ascending exactly as
// realtime.Counter.TopK does.
func (s *Scatter) TopK(parent string, k int, from, to time.Time) ([]realtime.PathCount, QueryMeta) {
	defer tmScatterTopKNs.ObserveSince(time.Now())
	children := events.ChildrenOf(parent)
	counts, meta := s.sumPaths(children, from, to)
	return realtime.RankChildren(children, counts, k), meta
}

// RollupSnapshot merges the §3.2 rollup rows of every partition over
// [from, to) into one cluster-wide table, keyed like analytics.Rollups.
func (s *Scatter) RollupSnapshot(from, to time.Time) (map[analytics.RollupKey]int64, QueryMeta) {
	s.c.Sync()
	out := make(map[analytics.RollupKey]int64)
	meta := fan(s, func(p int, n *cluster.Node, _ bool) (map[analytics.RollupKey]int64, error) {
		return n.Rollups(p, from, to)
	}, func(rows map[analytics.RollupKey]int64) {
		for k, v := range rows {
			out[k] += v
		}
	})
	return out, meta
}

// Reconcile is the cluster's lambda-architecture check: the batch
// rollup job over the warehouse day versus the scatter-gathered
// streaming table. Exactness requires a full fan — a Partial merge is
// missing partitions and reports the meta so the caller can tell an
// honest divergence from an outage.
func (s *Scatter) Reconcile(fs *hdfs.FS, day time.Time) (*realtime.Report, QueryMeta, error) {
	day = day.UTC().Truncate(24 * time.Hour)
	j := dataflow.NewJob("scatter-reconcile", fs)
	batch, err := analytics.Rollups(j, day)
	if err != nil {
		return nil, QueryMeta{}, err
	}
	stream, meta := s.RollupSnapshot(day, day.Add(24*time.Hour))
	return realtime.DiffRollups(day, batch, stream), meta, nil
}
