package dataflow

import (
	"errors"
	"time"

	"unilog/internal/chunk"
	"unilog/internal/events"
)

// A Selection is the declarative subset of a scan that ClientEventFormat
// answers inside the scan, without materializing whole rows: a column
// projection, a name-pattern predicate, and a timestamp window. It is
// deliberately narrower than Filter's arbitrary closures — only what can
// be evaluated against zone maps and column batches is expressible, and
// anything else stays a row-side Filter.
type Selection struct {
	// Columns projects the scan to the named columns, in order. nil means
	// every column of the format's schema.
	Columns []string

	// NamePattern, when non-empty, keeps only rows whose "name" column
	// matches the events.Pattern source text.
	NamePattern string

	// TimeMin and TimeMax bound the "timestamp" column to the half-open
	// window [TimeMin, TimeMax) in epoch milliseconds. Zero means
	// unbounded on that side.
	TimeMin, TimeMax int64
}

// empty reports whether the selection asks for nothing beyond a full scan.
func (s Selection) empty() bool {
	return s.Columns == nil && s.NamePattern == "" && s.TimeMin == 0 && s.TimeMax == 0
}

// pushdownScan is the plan behind a bare scan of ClientEventFormat: its
// splits, the number of chunks the plan pruned from them, and the format
// specialized to the selection. Project re-plans it rather than wrapping
// it, over the same splits: the chunks the predicate pruned from them stay
// pruned, since a projection keeps the predicate.
type pushdownScan struct {
	splits []Split
	pruned int
	pushed ClientEventFormat
}

// pushdownDataset plans a scan of splits by f, a ClientEventFormat
// specialized to a selection, which pruned pruned chunks. Each run of the
// scan counts them in columnar.chunks.pruned, as it counts the chunks it
// reads in columnar.chunks.scanned; a plan never run counts none. (EachBatch
// runs only a scan with no predicate, which prunes nothing.)
func (j *Job) pushdownDataset(f ClientEventFormat, splits []Split, pruned int) *Dataset {
	d := j.datasetForSplits(f, splits)
	open := d.open
	d.open = func() (Iterator, error) {
		tmChunksPruned.Add(int64(pruned))
		return open()
	}
	d.scan = &pushdownScan{splits: splits, pruned: pruned, pushed: f}
	return d
}

// LoadDirsSelective is Load over several directories (e.g. the 24 hours of
// a day) in order, skipping missing ones, with a Selection. ClientEventFormat
// evaluates the predicate in the plan and inside the scan — a chunk its
// manifest's zone map excludes is never a split, and a kept one is matched
// per name dictionary entry — and builds only the projected columns; every
// other format gets the selection applied as ordinary row-side
// Filter/Project operators on top of the scan. Either way the resulting
// dataset has the projected schema and only the selected rows — the
// selection is a semantic contract, pushdown is just the cheap way to honor
// it. A Project on a pushed-down scan folds into it: the same splits, the
// same predicate, the new columns.
func (j *Job) LoadDirsSelective(dirs []string, f InputFormat, sel Selection) (*Dataset, error) {
	if _, ok := f.(ClientEventFormat); ok {
		if pushed, ok := pushdown(sel); ok {
			splits, pruned, err := j.splitsOf(dirs, func(dir string) ([]Split, int, error) {
				return pushed.plan(j.FS, dir)
			})
			if err != nil {
				return nil, err
			}
			return j.pushdownDataset(pushed, splits, pruned), nil
		}
	}
	splits, _, err := j.splitsOf(dirs, func(dir string) ([]Split, int, error) {
		splits, err := f.Splits(j.FS, dir)
		return splits, 0, err
	})
	if err != nil {
		return nil, err
	}
	return applySelection(j.datasetForSplits(f, splits), sel)
}

// applySelection applies a selection no format absorbed as row-side
// operators: pattern and time-window filters, then projection.
func applySelection(d *Dataset, sel Selection) (*Dataset, error) {
	if sel.empty() {
		return d, nil
	}
	if sel.NamePattern != "" {
		pat, err := events.ParsePattern(sel.NamePattern)
		if err != nil {
			return nil, err
		}
		ni, err := d.Schema().Index("name")
		if err != nil {
			return nil, err
		}
		d = d.Filter(func(t Tuple) bool {
			s, ok := t[ni].(string)
			return ok && pat.MatchesString(s)
		})
	}
	if sel.TimeMin != 0 || sel.TimeMax != 0 {
		ti, err := d.Schema().Index("timestamp")
		if err != nil {
			return nil, err
		}
		min, max := sel.TimeMin, sel.TimeMax
		d = d.Filter(func(t Tuple) bool {
			ts, ok := t[ti].(int64)
			if !ok {
				return false
			}
			// Zero means unbounded on either side, mirroring the pushed-down
			// columnar filter exactly — including for pre-epoch timestamps.
			return (min == 0 || ts >= min) && (max == 0 || ts < max)
		})
	}
	if sel.Columns != nil {
		return d.Project(sel.Columns...)
	}
	return d, nil
}

// errNotBatchScan is EachBatch's refusal of a dataset it cannot hand over
// as batches.
var errNotBatchScan = errors.New("dataflow: EachBatch needs a bare scan of ClientEventFormat projected without a predicate")

// EachBatch runs a pushed-down scan's splits through fn, one column batch
// per split (ClientEventFormat.ReadBatch), in plan order on the calling
// goroutine: the batch entry point for a map-side fold. It meters what the
// tuple scan of the same dataset meters — a map task per split, every
// delivered row as a record read, the filesystem bytes read — but builds no
// tuple. The dataset must be a bare scan of ClientEventFormat
// (LoadDirsSelective, or a Project on it) whose selection only projects: a
// batch is every row of its split. fn must not keep a batch after it
// returns: the vectors of a row file's batch are reused for a later file.
func (d *Dataset) EachBatch(fn func(*chunk.Batch) error) error {
	sc := d.scan
	if sc == nil || sc.pushed.sel.NamePattern != "" || sc.pushed.sel.TimeMin != 0 || sc.pushed.sel.TimeMax != 0 {
		return errNotBatchScan
	}
	j := d.job
	for _, sp := range sc.splits {
		j.stats.mapTasks.Add(1)
		t0 := time.Now()
		before := j.FS.Snapshot()
		err := sc.pushed.ReadBatch(j.FS, sp, func(b *chunk.Batch) error {
			j.stats.recordsRead.Add(int64(b.Rows))
			return fn(b)
		})
		read := j.FS.Snapshot().BytesRead - before.BytesRead
		j.stats.bytesRead.Add(read)
		tmScanBytes.Add(read)
		tmScanSplitNs.ObserveSince(t0)
		if err != nil {
			return err
		}
	}
	return nil
}
