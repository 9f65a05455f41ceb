package columnar

import (
	"unilog/internal/telemetry"
)

// Telemetry instruments for the seal, updated once per sealed hour, never
// per row. The chunk scan's columnar.chunks.* and columnar.rows.read series
// are fed by dataflow.ClientEventFormat.
var (
	tmSealChunks = telemetry.GetCounter("columnar.seal.chunks")
	tmSealRows   = telemetry.GetCounter("columnar.seal.rows")
	// The bytes of the chunk images a seal wrote: over columnar.seal.rows,
	// the sealed bytes per row.
	tmSealBytes = telemetry.GetCounter("columnar.seal.bytes")

	// Wall time of one SealHour, its row-file read included. A mover-sealed
	// hour is not observed here: its seal is spread through the move's
	// pass over the staged images, whose time is logmover.move.ns.
	tmSealHourNs = telemetry.GetHistogram("columnar.seal.hour.ns")

	// High-water worker count of concurrent hour sealing (SealDay /
	// SealHoursParallel).
	tmSealWorkers = telemetry.GetGauge("columnar.seal.workers")
)
