package birdbrain

import (
	"time"

	"unilog/internal/analytics"
	"unilog/internal/dataflow"
	"unilog/internal/events"
	"unilog/internal/hdfs"
	"unilog/internal/realtime"
)

// Lambda serves BirdBrain counting queries with the batch/realtime split
// of a lambda architecture: queries about the current (unsealed) day are
// answered from the realtime counters seconds after the events occur,
// while sealed days come from the warehouse rollup job — the §3.2 daily
// aggregates the batch pipeline publishes. realtime.Reconcile diffs the
// day a counter holds against the batch job and proves the two paths
// compute identical rollup tables, so a metric does not jump when its day
// seals and responsibility hands over from memory to HDFS.
//
// A sealed-day query runs the rollup job over what the warehouse holds at
// query time, so an hour the log mover backfills after a staging outage
// counts the moment it lands.
type Lambda struct {
	fs *hdfs.FS
	rt *realtime.Counter
	// now decides which day is "today" (the realtime-served day).
	now func() time.Time
}

// Source labels which path of the lambda architecture answered a query.
type Source string

// Sources.
const (
	SourceRealtime  Source = "realtime"
	SourceWarehouse Source = "warehouse"
)

// NewLambda builds a server over the warehouse fs and the live counter.
// now defaults to time.Now; inject a clock for replayed days.
func NewLambda(fs *hdfs.FS, rt *realtime.Counter, now func() time.Time) *Lambda {
	if now == nil {
		now = time.Now
	}
	return &Lambda{fs: fs, rt: rt, now: now}
}

// today reports whether day is the current, realtime-served day.
func (l *Lambda) today(day time.Time) bool {
	return day.Equal(l.now().UTC().Truncate(24 * time.Hour))
}

// sealedRollups runs the batch rollup job over one sealed day.
func (l *Lambda) sealedRollups(day time.Time) (map[analytics.RollupKey]int64, error) {
	return analytics.Rollups(dataflow.NewJob("birdbrain-rollups", l.fs), day)
}

// EventTotal answers the dashboard's top-line counting query — the total
// of a (possibly rolled-up) event name on one day, summed over countries
// and login status — from whichever path owns that day.
func (l *Lambda) EventTotal(day time.Time, level events.RollupLevel, name string) (int64, Source, error) {
	defer tmEventTotalNs.ObserveSince(time.Now())
	day = day.UTC().Truncate(24 * time.Hour)
	if l.today(day) {
		l.rt.Sync()
		return l.rt.RollupTotal(level, name, day, day.Add(24*time.Hour)), SourceRealtime, nil
	}
	r, err := l.sealedRollups(day)
	if err != nil {
		return 0, SourceWarehouse, err
	}
	return analytics.RollupTotal(r, level, name), SourceWarehouse, nil
}
