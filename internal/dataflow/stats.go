package dataflow

import "sync/atomic"

// jobStats is the internal, race-safe representation of Stats. Job.Stats
// may be called while a pipeline is executing, so every field is an
// atomic; Job.Stats() materializes the plain snapshot the public API has
// always returned.
type jobStats struct {
	mapTasks       atomic.Int64
	recordsRead    atomic.Int64
	bytesRead      atomic.Int64
	shuffleRecords atomic.Int64
	shuffleBytes   atomic.Int64

	spilledBytes   atomic.Int64
	spilledRecords atomic.Int64
	spillRuns      atomic.Int64
	mergePasses    atomic.Int64
	mergeRuns      atomic.Int64
	peakRunFanIn   atomic.Int64
	cascadePasses  atomic.Int64
	cascadeRuns    atomic.Int64
}

// maxRunFanIn raises peakRunFanIn to n if n exceeds it — the same
// CAS-max idiom as telemetry.Gauge.SetMax.
func (s *jobStats) maxRunFanIn(n int64) {
	for {
		cur := s.peakRunFanIn.Load()
		if n <= cur || s.peakRunFanIn.CompareAndSwap(cur, n) {
			return
		}
	}
}

// snapshot renders the atomic fields into the public Stats struct.
func (s *jobStats) snapshot() Stats {
	return Stats{
		MapTasks:       int(s.mapTasks.Load()),
		RecordsRead:    s.recordsRead.Load(),
		BytesRead:      s.bytesRead.Load(),
		ShuffleRecords: s.shuffleRecords.Load(),
		ShuffleBytes:   s.shuffleBytes.Load(),

		SpilledBytes:   s.spilledBytes.Load(),
		SpilledRecords: s.spilledRecords.Load(),
		SpillRuns:      int(s.spillRuns.Load()),
		MergePasses:    int(s.mergePasses.Load()),
		MergeRuns:      int(s.mergeRuns.Load()),
		PeakRunFanIn:   int(s.peakRunFanIn.Load()),
		CascadePasses:  int(s.cascadePasses.Load()),
		CascadeRuns:    int(s.cascadeRuns.Load()),
	}
}
