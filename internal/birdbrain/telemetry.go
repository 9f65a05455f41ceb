package birdbrain

import (
	"unilog/internal/telemetry"
)

// Telemetry instruments for the dashboard query layer: per-verb latency
// histograms.
var (
	tmEventTotalNs = telemetry.GetHistogram("birdbrain.query.event_total.ns")
)

// Scatter-gather instruments: every fanned query ticks queries; the
// degraded/partial counters are the observable trace of answers served
// around a dead replica (the scenario harness asserts on them).
var (
	tmScatterQueries   = telemetry.GetCounter("birdbrain.scatter.queries")
	tmScatterDegraded  = telemetry.GetCounter("birdbrain.scatter.degraded")
	tmScatterPartial   = telemetry.GetCounter("birdbrain.scatter.partial")
	tmScatterFailovers = telemetry.GetCounter("birdbrain.scatter.failovers")
	tmScatterHedges    = telemetry.GetCounter("birdbrain.scatter.hedges")

	tmScatterPathSumNs = telemetry.GetHistogram("birdbrain.scatter.path_sum.ns")
	tmScatterSeriesNs  = telemetry.GetHistogram("birdbrain.scatter.series.ns")
	tmScatterTopKNs    = telemetry.GetHistogram("birdbrain.scatter.top_k.ns")
)
