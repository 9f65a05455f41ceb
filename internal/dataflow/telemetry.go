package dataflow

import (
	"unilog/internal/telemetry"
)

// Telemetry instruments for the batch vertical. These are process-global
// totals across every Job; per-job numbers stay in Job.Stats, and the
// counters here are fed from the same coarse sites that update those
// fields (per split, per spill flush, per merge pass) — never per tuple,
// so the streaming inner loops stay allocation- and contention-free.
var (
	tmScanBytes     = telemetry.GetCounter("dataflow.scan.bytes")
	tmShuffleBytes  = telemetry.GetCounter("dataflow.shuffle.bytes")
	tmSpillBytes    = telemetry.GetCounter("dataflow.spill.bytes")
	tmSpillRecords  = telemetry.GetCounter("dataflow.spill.records")
	tmSpillRuns     = telemetry.GetCounter("dataflow.spill.runs")
	tmMergePasses   = telemetry.GetCounter("dataflow.merge.passes")
	tmCascadePasses = telemetry.GetCounter("dataflow.merge.cascade.passes")
	tmCascadeRuns   = telemetry.GetCounter("dataflow.merge.cascade.runs")
	tmMergeFanInMax = telemetry.GetGauge("dataflow.merge.run_fanin.peak")

	// ClientEventFormat's chunks, named columnar.* because the benchmark
	// reads them by those names. chunks.pruned / chunks.scanned is the
	// zone-map hit ratio: a pruned chunk costs one meta read and no column
	// bytes. rows.read counts the rows of the chunks scanned.
	tmChunksScanned = telemetry.GetCounter("columnar.chunks.scanned")
	tmChunksPruned  = telemetry.GetCounter("columnar.chunks.pruned")
	tmRowsRead      = telemetry.GetCounter("columnar.rows.read")

	tmScanSplitNs  = telemetry.GetHistogram("dataflow.stage.scan.ns")
	tmShuffleNs    = telemetry.GetHistogram("dataflow.stage.shuffle.ns")
	tmSpillFlushNs = telemetry.GetHistogram("dataflow.stage.spill.ns")
	tmCascadeNs    = telemetry.GetHistogram("dataflow.stage.cascade.ns")
	tmMergePassNs  = telemetry.GetHistogram("dataflow.stage.merge.ns")

	// Scan-pool instruments. The workers gauge records (SetMax) the widest
	// scan pool engaged; the queue-depth gauge records the deepest the
	// scan's reorder buffer ever got — how far completion order ran ahead
	// of delivery order. The busy histogram observes one split decode's
	// wall time inside a worker goroutine.
	tmParWorkers     = telemetry.GetGauge("dataflow.parallel.workers")
	tmScanQueueDepth = telemetry.GetGauge("dataflow.parallel.scan.queue.depth")
	tmParScanBusyNs  = telemetry.GetHistogram("dataflow.parallel.scan.busy.ns")
)
