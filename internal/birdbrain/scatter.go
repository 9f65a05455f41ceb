package birdbrain

import (
	"cmp"
	"slices"
	"strings"
	"time"

	"unilog/internal/analytics"
	"unilog/internal/cluster"
	"unilog/internal/dataflow"
	"unilog/internal/hdfs"
	"unilog/internal/realtime"
)

// Scatter serves BirdBrain counting queries from a replicated cluster
// instead of one counter: every verb fans over the namespace
// partitions, asks ONE replica per partition (primary first, failing
// over down the replica list), and merges the disjoint partials into
// the cluster-wide answer. Because partitions split the namespace by
// whole event name, the merge is exact — a sum of sums for PathSum and
// Series, a union-then-rank for TopK — whenever every partition
// answers.
//
// Degradation is explicit rather than silent. A query that had to fail
// over (a replica was dead or errored mid-query) still returns the
// exact answer from the surviving replicas but is marked Degraded; a
// query that found some partition with no live replica at all returns
// the partial sum it could compute, marked Partial (and Degraded).
// Callers — and the scenario harness's invariants — decide what a
// partial answer is worth; the telemetry counters track how often each
// happens.
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
// runs against one replica (concurrently with its hedges under
// ReplicaTimeout) and must be free of shared state; fold is called once
// per answered partition, always from this goroutine, so the verbs'
// accumulators need no locking. Replicas are tried primary-first, and a
// detector-dead replica is still attempted — in-process it fails fast,
// and attempting keeps answers available when the detector lags a
// restart.
func (s *Scatter) fan(query func(p int, n *cluster.Node) (any, error), fold func(any)) QueryMeta {
	var meta QueryMeta
	for p := 0; p < s.c.Partitions(); p++ {
		v, winner, ok := s.askPartition(p, query)
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
func (s *Scatter) askPartition(p int, query func(p int, n *cluster.Node) (any, error)) (v any, winner int, ok bool) {
	replicas := s.c.ReplicasOf(p)
	if s.ReplicaTimeout <= 0 {
		for i, id := range replicas {
			if v, err := query(p, s.c.Node(id)); err == nil {
				return v, i, true
			}
		}
		return nil, len(replicas), false
	}
	type reply struct {
		idx int
		v   any
		err error
	}
	// Buffered to the full replica set: a losing replica's late answer
	// parks in the channel and its goroutine exits — no leak, no lock.
	ch := make(chan reply, len(replicas))
	launch := func(idx int) {
		n := s.c.Node(replicas[idx])
		go func() {
			v, err := query(p, n)
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
				return nil, failed, false
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

// PathSum sums a hierarchy path over [from, to) across the cluster.
func (s *Scatter) PathSum(path string, from, to time.Time) (int64, QueryMeta) {
	defer tmScatterPathSumNs.ObserveSince(time.Now())
	s.c.Sync()
	var total int64
	meta := s.fan(func(p int, n *cluster.Node) (any, error) {
		return n.PathSum(p, path, from, to)
	}, func(v any) {
		total += v.(int64)
	})
	return total, meta
}

// Series sums per-minute counts of a path over [from, to) across the
// cluster; index 0 holds from's minute.
func (s *Scatter) Series(path string, from, to time.Time) ([]int64, QueryMeta) {
	defer tmScatterSeriesNs.ObserveSince(time.Now())
	s.c.Sync()
	var out []int64
	meta := s.fan(func(p int, n *cluster.Node) (any, error) {
		return n.Series(p, path, from, to)
	}, func(raw any) {
		v := raw.([]int64)
		if len(v) > len(out) {
			grown := make([]int64, len(v))
			copy(grown, out)
			out = grown
		}
		for i, x := range v {
			out[i] += x
		}
	})
	return out, meta
}

// TopK ranks the children of a hierarchy path by count over [from, to)
// across the cluster. Each partition contributes its full child counts
// (a child heavy overall may be light on any one partition's slice),
// the union is ranked once, ties breaking by path ascending exactly as
// realtime.Counter.TopK does.
func (s *Scatter) TopK(parent string, k int, from, to time.Time) ([]realtime.PathCount, QueryMeta) {
	defer tmScatterTopKNs.ObserveSince(time.Now())
	s.c.Sync()
	acc := make(map[string]int64)
	meta := s.fan(func(p int, n *cluster.Node) (any, error) {
		return n.ChildCounts(p, parent, from, to)
	}, func(raw any) {
		for _, pc := range raw.([]realtime.PathCount) {
			acc[pc.Path] += pc.Count
		}
	})
	if k <= 0 || len(acc) == 0 {
		return nil, meta
	}
	ranked := make([]realtime.PathCount, 0, len(acc))
	for path, count := range acc {
		ranked = append(ranked, realtime.PathCount{Path: path, Count: count})
	}
	slices.SortFunc(ranked, func(a, b realtime.PathCount) int {
		return cmp.Or(cmp.Compare(b.Count, a.Count), strings.Compare(a.Path, b.Path))
	})
	if len(ranked) > k {
		ranked = ranked[:k]
	}
	return ranked, meta
}

// RollupSnapshot merges the §3.2 rollup rows of every partition over
// [from, to) into one cluster-wide table, keyed like analytics.Rollups.
func (s *Scatter) RollupSnapshot(from, to time.Time) (map[analytics.RollupKey]int64, QueryMeta) {
	s.c.Sync()
	out := make(map[analytics.RollupKey]int64)
	meta := s.fan(func(p int, n *cluster.Node) (any, error) {
		return n.Rollups(p, from, to)
	}, func(raw any) {
		for k, v := range raw.(map[analytics.RollupKey]int64) {
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
