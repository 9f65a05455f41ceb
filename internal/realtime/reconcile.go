package realtime

import (
	"fmt"
	"sort"
	"time"

	"unilog/internal/analytics"
	"unilog/internal/dataflow"
	"unilog/internal/hdfs"
)

// Reconcile is the lambda-architecture check: it diffs one sealed day's
// rollup table computed both ways — the batch path (analytics.Rollups over
// the warehouse) and the streaming path (the rollup rows a counter holds for
// the day, the counter that tapped the day live or one recovered after a
// kill). Exact agreement proves the realtime subsystem computes the same
// answers the daily jobs publish, which is what lets BirdBrain serve "today
// so far" from memory and sealed days from the warehouse without the
// numbers jumping at midnight. Because the streaming side counts in
// name-table ID space and resolves strings only in RollupSnapshot, this diff
// is also the end-to-end proof that interning changed the engine's
// representation, not its answers.

// Diff is one disagreeing rollup row.
type Diff struct {
	Key           analytics.RollupKey
	Batch, Stream int64
}

// Report summarizes one reconciliation run.
type Report struct {
	Day    time.Time
	Events int64 // events the counter observed (Stats().Observed)
	// BatchRows and StreamRows are the sizes of the two rollup tables.
	BatchRows, StreamRows int
	// Missing rows exist only in the batch table, Extra rows only in the
	// streaming table, Mismatched in both with different counts. Each
	// slice is capped at MaxDiffs with the overflow in the counts.
	Missing, Extra, Mismatched  []Diff
	MissingN, ExtraN, MismatchN int
}

// MaxDiffs caps the example rows kept per diff class in a Report.
const MaxDiffs = 10

// OK reports whether the two paths agreed exactly.
func (r *Report) OK() bool {
	return r.MissingN == 0 && r.ExtraN == 0 && r.MismatchN == 0
}

// String renders a one-line verdict.
func (r *Report) String() string {
	if r.OK() {
		return fmt.Sprintf("reconcile %s: OK — %d events, %d rollup rows identical on both paths",
			r.Day.Format("2006-01-02"), r.Events, r.BatchRows)
	}
	return fmt.Sprintf("reconcile %s: DIVERGED — %d missing, %d extra, %d mismatched of %d batch rows",
		r.Day.Format("2006-01-02"), r.MissingN, r.ExtraN, r.MismatchN, r.BatchRows)
}

// Reconcile diffs the batch rollup job against the rollup rows c holds for
// the day — the check a recovered counter must pass too: after a kill and
// an Open, its day must still agree exactly with the warehouse. c must
// retain the whole day, as the default Retention does.
func Reconcile(fs *hdfs.FS, day time.Time, c *Counter) (*Report, error) {
	day = day.UTC().Truncate(24 * time.Hour)
	j := dataflow.NewJob("reconcile-batch", fs)
	batch, err := analytics.Rollups(j, day)
	if err != nil {
		return nil, err
	}
	c.Sync()
	stream := c.RollupSnapshot(day, day.Add(24*time.Hour))
	r := &Report{Day: day, Events: c.Stats().Observed}
	r.diff(batch, stream)
	return r, nil
}

// DiffRollups diffs an arbitrary batch/stream rollup-table pair into a
// Report — the reconcile primitive for callers that assemble the
// streaming table themselves, like a cluster scatter-gather that merges
// one RollupSnapshot per partition before comparing against the batch
// job. Events is left zero; the caller knows its own ingest count.
func DiffRollups(day time.Time, batch, stream map[analytics.RollupKey]int64) *Report {
	r := &Report{Day: day.UTC().Truncate(24 * time.Hour)}
	r.diff(batch, stream)
	return r
}

// diff fills the report with the disagreement between the batch and
// streaming rollup tables.
func (r *Report) diff(batch, stream map[analytics.RollupKey]int64) {
	r.BatchRows, r.StreamRows = len(batch), len(stream)
	for k, want := range batch {
		got, ok := stream[k]
		switch {
		case !ok:
			r.MissingN++
			if len(r.Missing) < MaxDiffs {
				r.Missing = append(r.Missing, Diff{Key: k, Batch: want})
			}
		case got != want:
			r.MismatchN++
			if len(r.Mismatched) < MaxDiffs {
				r.Mismatched = append(r.Mismatched, Diff{Key: k, Batch: want, Stream: got})
			}
		}
	}
	for k, got := range stream {
		if _, ok := batch[k]; !ok {
			r.ExtraN++
			if len(r.Extra) < MaxDiffs {
				r.Extra = append(r.Extra, Diff{Key: k, Stream: got})
			}
		}
	}
	for _, ds := range [][]Diff{r.Missing, r.Extra, r.Mismatched} {
		sort.Slice(ds, func(i, j int) bool {
			if ds[i].Key.Level != ds[j].Key.Level {
				return ds[i].Key.Level < ds[j].Key.Level
			}
			return ds[i].Key.Name < ds[j].Key.Name
		})
	}
}
