package scribe

import (
	"unilog/internal/telemetry"
)

// Telemetry instruments for the Scribe transport: process-global totals
// across every daemon and aggregator (per-instance numbers stay in
// AggregatorStats / DaemonStats), updated at batch and file granularity —
// never per message inside the hot append loop.
var (
	tmTapEntries    = telemetry.GetCounter("scribe.tap.entries")
	tmAggMessages   = telemetry.GetCounter("scribe.aggregator.messages")
	tmAggDropped    = telemetry.GetCounter("scribe.aggregator.dropped")
	tmAggInvalid    = telemetry.GetCounter("scribe.aggregator.invalid")
	tmFlushFailures = telemetry.GetCounter("scribe.staging.flush_failures")
	tmFilesWritten  = telemetry.GetCounter("scribe.staging.files")
	tmDaemonAccept  = telemetry.GetCounter("scribe.daemon.accepted")
	tmSendFailures  = telemetry.GetCounter("scribe.daemon.send_failures")
	tmSpoolHigh     = telemetry.GetGauge("scribe.daemon.spool.high_water")

	tmFlushNs = telemetry.GetHistogram("scribe.staging.flush.ns")
)
