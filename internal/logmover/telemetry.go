package logmover

import (
	"time"

	"unilog/internal/telemetry"
)

// Telemetry instruments for the log mover: process-global totals across
// every Mover (per-move numbers stay in AuditRecord), updated once per
// published hour — never per record. files.sealed / files.spliced /
// files.reencoded says which path an hour's staging files took: sealed
// into the column chunks the hour publishes alone, or, for an hour
// published as rows, appended as verified gzip members or decoded through
// the Transform hook and re-compressed.
var (
	tmRecords        = telemetry.GetCounter("logmover.records")
	tmBytesIn        = telemetry.GetCounter("logmover.bytes.in")
	tmBytesOut       = telemetry.GetCounter("logmover.bytes.out")
	tmFilesSealed    = telemetry.GetCounter("logmover.files.sealed")
	tmFilesSpliced   = telemetry.GetCounter("logmover.files.spliced")
	tmFilesReencoded = telemetry.GetCounter("logmover.files.reencoded")
	tmHoursMoved     = telemetry.GetCounter("logmover.hours.moved")

	// Wall time from the first staging read to the last source delete. A
	// client-events hour's columnar seal runs inside it, as each staged
	// image is read back, and columnar.seal.hour.ns does not observe it.
	tmMoveNs = telemetry.GetHistogram("logmover.move.ns")
)

// observeMove books one published hour.
func (m *Mover) observeMove(rec AuditRecord, sealed bool, started time.Time) {
	tmMoveNs.ObserveSince(started)
	tmHoursMoved.Inc()
	tmRecords.Add(rec.Records)
	tmBytesIn.Add(rec.BytesIn)
	tmBytesOut.Add(rec.BytesOut)
	switch {
	case sealed:
		tmFilesSealed.Add(int64(rec.FilesIn))
	case m.Transform == nil:
		tmFilesSpliced.Add(int64(rec.FilesIn))
	default:
		tmFilesReencoded.Add(int64(rec.FilesIn))
	}
}
