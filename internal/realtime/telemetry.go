package realtime

import (
	"unilog/internal/telemetry"
)

// Telemetry instruments for the realtime vertical, resolved once at init
// so the ingest legs (tap → batch → shard apply → WAL append/fsync)
// record through pre-fetched atomic handles — no lookups, no allocation
// on the hot path. Counters and histograms here are process-global
// totals across every Counter instance; per-instance Stats fields are
// wired through as gauges by Publish instead of being duplicated.
var (
	tmIngestEvents  = telemetry.GetCounter("realtime.ingest.events")
	tmIngestBatches = telemetry.GetCounter("realtime.ingest.batches")
	tmWALBytes      = telemetry.GetCounter("realtime.wal.bytes")

	tmTapBatchNs   = telemetry.GetHistogram("realtime.tap.batch.ns")
	tmApplyBatchNs = telemetry.GetHistogram("realtime.apply.batch.ns")
	tmWALAppendNs  = telemetry.GetHistogram("realtime.wal.append.ns")
	tmWALFsyncNs   = telemetry.GetHistogram("realtime.wal.fsync.ns")
	tmSnapshotNs   = telemetry.GetHistogram("realtime.snapshot.write.ns")

	// The newest snapshot file: its size on disk and the leaf rows in it.
	tmSnapshotBytes  = telemetry.GetGauge("realtime.snapshot.bytes")
	tmSnapshotLeaves = telemetry.GetGauge("realtime.snapshot.leaves")

	// realtime.wal.record_events is the observations per appended WAL
	// record. A record costs one write(2), one dictionary delta and
	// 1/FsyncEvery of an fsync whatever it holds, so a median of 1 here
	// means a producer is logging event by event (Counter.Ingest in a loop)
	// where a Batcher would log hundreds per record.
	tmWALRecordEvents = telemetry.GetHistogram("realtime.wal.record_events")

	// The read-your-writes barrier: realtime.sync.calls counts Counter.Sync
	// calls, realtime.sync.waits the shards a Sync found a batch in flight
	// on and waited for. waits ÷ calls is how often a reader waits on the
	// writer; an idle Sync adds a call and no wait.
	tmSyncCalls = telemetry.GetCounter("realtime.sync.calls")
	tmSyncWaits = telemetry.GetCounter("realtime.sync.waits")

	tmQueryPathSumNs = telemetry.GetHistogram("realtime.query.pathsum.ns")
	tmQuerySeriesNs  = telemetry.GetHistogram("realtime.query.series.ns")
	tmQueryTopKNs    = telemetry.GetHistogram("realtime.query.topk.ns")
	tmQueryRollupNs  = telemetry.GetHistogram("realtime.query.rollup.ns")

	// The cost the write path moved to the read side. realtime.derive.buckets
	// counts prefix caches rebuilt because a write had landed in the bucket
	// since a prefix query last read it; realtime.derive.ns is the time one
	// query spent on those rebuilds, observed once per query that did any.
	// A rising buckets rate under steady ingest is a poller re-reading
	// minutes that are still being written. realtime.derive.hours counts
	// hour cells rebuilt because one of their minutes had been written (or
	// the cell had never held that hour); derive.ns includes that time.
	tmDeriveBuckets = telemetry.GetCounter("realtime.derive.buckets")
	tmDeriveHours   = telemetry.GetCounter("realtime.derive.hours")
	tmDeriveNs      = telemetry.GetHistogram("realtime.derive.ns")

	// realtime.hours.rows is the hour rows of the counter that last summed
	// an hour: one row per path per shard, len(hours) × 8 B each, plus 4 B
	// per path ID of the row index. Neither shrinks (ROADMAP I).
	tmHourRows = telemetry.GetGauge("realtime.hours.rows")
)

// Publish wires this counter's live Stats fields and queue state into
// reg as snapshot-time gauges (nil means telemetry.Default). Gauges read
// the same atomics Stats() reads — nothing is double-counted. Publish is
// last-wins per name: after a crash/recover cycle, calling it on the
// recovered counter repoints the gauges at the live instance.
func (c *Counter) Publish(reg *telemetry.Registry) {
	if reg == nil {
		reg = telemetry.Default
	}
	reg.GaugeFunc("realtime.observed.events", func() int64 { return c.observed.Load() })
	reg.GaugeFunc("realtime.queue.depth", func() int64 {
		var n int64
		for _, s := range c.shards {
			n += int64(len(s.ch))
		}
		return n
	})
	reg.GaugeFunc("realtime.queue.full_waits", func() int64 { return c.queueFull.Load() })
	reg.GaugeFunc("realtime.tap.entries", func() int64 { return c.tapEntries.Load() })
	reg.GaugeFunc("realtime.tap.decode_errors", func() int64 { return c.decodeErrors.Load() })
	reg.GaugeFunc("realtime.dropped_old.events", func() int64 { return c.droppedOld.Load() })
	reg.GaugeFunc("realtime.wal.batches", func() int64 { return c.walBatches.Load() })
	reg.GaugeFunc("realtime.wal.errors", func() int64 { return c.walErrors.Load() })
	reg.GaugeFunc("realtime.wal.fsyncs", func() int64 { return c.fsyncs.Load() })
	reg.GaugeFunc("realtime.snapshot.count", func() int64 { return c.snapshots.Load() })
	reg.GaugeFunc("realtime.snapshot.errors", func() int64 { return c.snapErrors.Load() })
}
