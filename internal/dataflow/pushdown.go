package dataflow

import (
	"unilog/internal/events"
)

// A Selection is the declarative subset of a scan that a storage format
// may be able to answer without materializing whole rows: a column
// projection, a name-pattern predicate, and a timestamp window. It is
// deliberately narrower than Filter's arbitrary closures — only what a
// columnar reader can evaluate against zone maps and column streams is
// expressible, and anything else stays a row-side Filter.
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

// PushdownFormat is an InputFormat that can absorb a whole Selection into
// the scan itself — pruning data it never decodes and building only the
// columns the query references. Pushdown returns the format specialized to
// the selection, or ok == false when it cannot honor it, in which case the
// planner falls through to the plain row path and applies the whole
// selection itself. The two implementations are ClientEventFormat (row
// files) and columnar.EventsFormat (column chunks, row files where an hour
// is not sealed).
//
// Splits must not depend on the selection: the planner enumerates them
// once with the format it was given, and a Project folded into the scan
// re-plans those same splits under a new selection.
type PushdownFormat interface {
	InputFormat
	Pushdown(sel Selection) (f InputFormat, ok bool)
}

// pushdownScan is the plan behind a bare scan of a PushdownFormat: the
// format as the caller gave it, its splits, and the selection pushed into
// it. Project re-plans it rather than wrapping it.
type pushdownScan struct {
	format PushdownFormat
	splits []Split
	sel    Selection
}

// dataset plans the scan of sc's splits under sel, or returns ok == false
// when the format cannot absorb sel.
func (sc *pushdownScan) dataset(j *Job, sel Selection) (*Dataset, bool) {
	f, ok := sc.format.Pushdown(sel)
	if !ok {
		return nil, false
	}
	d := j.datasetForSplits(f, sc.splits)
	d.scan = &pushdownScan{format: sc.format, splits: sc.splits, sel: sel}
	return d, true
}

// LoadDirsSelective is LoadDirs with a Selection: formats that implement
// PushdownFormat evaluate the predicate inside the scan (against zone maps,
// or on each row's header) and build only the projected columns; every
// other format gets the selection applied as ordinary row-side
// Filter/Project operators on top of the scan. Either way the resulting
// dataset has the projected schema and only the selected rows — the
// selection is a semantic contract, pushdown is just the cheap way to honor
// it. A Project on a pushed-down scan folds into it: the same splits,
// the same predicate, the new columns.
func (j *Job) LoadDirsSelective(dirs []string, f InputFormat, sel Selection) (*Dataset, error) {
	splits, err := j.splitsOf(dirs, f)
	if err != nil {
		return nil, err
	}
	if pf, ok := f.(PushdownFormat); ok {
		sc := &pushdownScan{format: pf, splits: splits}
		if d, ok := sc.dataset(j, sel); ok {
			return d, nil
		}
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
