package cluster

import "unilog/internal/telemetry"

// Process-wide instruments on the default registry, following the
// repo-wide convention (see internal/realtime/telemetry.go): counters
// tick on the hot paths; per-Cluster gauges register via
// Cluster.Publish.
var (
	tmClusterIngest     = telemetry.GetCounter("cluster.ingest.events")
	tmClusterDecodeErrs = telemetry.GetCounter("cluster.ingest.decode_errors")
	tmClusterDeliver    = telemetry.GetCounter("cluster.deliver.events")
	tmClusterRetries    = telemetry.GetCounter("cluster.send.retries")
	tmClusterSendFails  = telemetry.GetCounter("cluster.send.failures")
	tmClusterHinted     = telemetry.GetCounter("cluster.handoff.hinted")
	tmClusterReplayed   = telemetry.GetCounter("cluster.handoff.replayed")
	tmClusterSuspects   = telemetry.GetCounter("cluster.detector.suspects")
	tmClusterDeaths     = telemetry.GetCounter("cluster.detector.deaths")
	tmClusterRevivals   = telemetry.GetCounter("cluster.detector.revivals")
	tmClusterCrashes    = telemetry.GetCounter("cluster.node.crashes")
	tmClusterRestarts   = telemetry.GetCounter("cluster.node.restarts")

	// cluster.deliver.batch_events is the events per successful node
	// delivery. Each delivery costs every partition counter it touches one
	// WAL record, so this over the hosted partition count is the events
	// per record — read it beside realtime.wal.record_events.
	tmClusterDeliverBatch = telemetry.GetHistogram("cluster.deliver.batch_events")
)
