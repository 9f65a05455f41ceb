package logmover

import (
	"time"

	"unilog/internal/telemetry"
)

// Telemetry instruments for the log mover: process-global totals across
// every Mover (per-move numbers stay in AuditRecord), updated once per
// published hour — never per record. files.sealed / files.spliced says
// which path an hour's staging files took: re-chunked into the column
// chunks the hour publishes alone, or, for an hour published as rows,
// appended to its parts as verified gzip members.
var (
	tmRecords      = telemetry.GetCounter("logmover.records")
	tmBytesIn      = telemetry.GetCounter("logmover.bytes.in")
	tmBytesOut     = telemetry.GetCounter("logmover.bytes.out")
	tmFilesSealed  = telemetry.GetCounter("logmover.files.sealed")
	tmFilesSpliced = telemetry.GetCounter("logmover.files.spliced")
	tmHoursMoved   = telemetry.GetCounter("logmover.hours.moved")

	// Wall time from the first staging read to the last source delete. A
	// client-events hour's columnar seal runs inside it, as each staged
	// image is read back, and columnar.seal.hour.ns does not observe it.
	tmMoveNs = telemetry.GetHistogram("logmover.move.ns")
)

// observeMove books one published hour.
func observeMove(rec AuditRecord, sealed bool, started time.Time) {
	tmMoveNs.ObserveSince(started)
	tmHoursMoved.Inc()
	tmRecords.Add(rec.Records)
	tmBytesIn.Add(rec.BytesIn)
	tmBytesOut.Add(rec.BytesOut)
	if sealed {
		tmFilesSealed.Add(int64(rec.FilesIn))
	} else {
		tmFilesSpliced.Add(int64(rec.FilesIn))
	}
}
