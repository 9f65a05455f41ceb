package dataflow

import (
	"fmt"
	"slices"
	"time"

	"unilog/internal/events"
	"unilog/internal/hdfs"
	"unilog/internal/session"
	"unilog/internal/thrift"
	"unilog/internal/warehouse"
)

// walkSplits lists every data file under dir as one split, skipping the
// seal markers and column chunks that live beside the data.
func walkSplits(fs *hdfs.FS, dir string) ([]Split, error) {
	infos, err := fs.Walk(dir)
	if err != nil {
		return nil, err
	}
	splits := make([]Split, 0, len(infos))
	for _, fi := range infos {
		if warehouse.IsAuxiliary(fi.Path) {
			continue
		}
		splits = append(splits, Split{Path: fi.Path, Size: fi.Size})
	}
	return splits, nil
}

// ClientEventFormat reads warehouse client-event row files. Its schema is
// the flattened Table 2 structure plus the derived logged_in flag. It is a
// PushdownFormat: specialized to a Selection, it checks the name pattern
// and the time window on each message's header and builds only the
// projected columns of the rows that pass. The zero value is a full scan.
//
// Each record is read with the events.Header walk; no ClientEvent is built.
// A name is validated with events.ParseName, and matched against the
// pattern, once per distinct name per split, and the details map is built
// only when projected. A message without a name field reads as ":::::", the
// zero EventName's string; an invalid name, empty included, fails the split
// as ClientEvent.Decode fails on it.
type ClientEventFormat struct {
	sel  Selection
	pat  events.Pattern // parsed sel.NamePattern
	cols []int          // ClientEventSchema index of each output column; nil = all
}

// ClientEventSchema is the schema produced by ClientEventFormat.
var ClientEventSchema = Schema{"initiator", "name", "user_id", "session_id", "ip", "timestamp", "logged_in", "details"}

// The ClientEventSchema columns, by index.
const (
	colInitiator = iota
	colName
	colUserID
	colSessionID
	colIP
	colTimestamp
	colLoggedIn
	colDetails
)

var allClientEventColumns = []int{colInitiator, colName, colUserID, colSessionID, colIP, colTimestamp, colLoggedIn, colDetails}

// Schema implements InputFormat: the projected columns, or the full schema
// when the selection does not project.
func (f ClientEventFormat) Schema() Schema {
	if f.sel.Columns == nil {
		return ClientEventSchema
	}
	return Schema(f.sel.Columns)
}

// Splits implements InputFormat.
func (ClientEventFormat) Splits(fs *hdfs.FS, dir string) ([]Split, error) {
	return walkSplits(fs, dir)
}

// Pushdown implements PushdownFormat. A malformed pattern or a column
// outside ClientEventSchema returns ok == false, and the planner's row
// operators report the error.
func (f ClientEventFormat) Pushdown(sel Selection) (InputFormat, bool) {
	nf := ClientEventFormat{sel: sel}
	if sel.NamePattern != "" {
		pat, err := events.ParsePattern(sel.NamePattern)
		if err != nil {
			return f, false
		}
		nf.pat = pat
	}
	if sel.Columns != nil {
		nf.cols = make([]int, len(sel.Columns))
		for i, c := range sel.Columns {
			j, err := ClientEventSchema.Index(c)
			if err != nil {
				return f, false
			}
			nf.cols[i] = j
		}
	}
	return nf, true
}

// ReadSplit implements InputFormat. A damaged file, a message the walk
// cannot read and an invalid name each fail the split with its path.
func (f ClientEventFormat) ReadSplit(fs *hdfs.FS, s Split, emit func(Tuple) error) error {
	cols := f.cols
	if cols == nil {
		cols = allClientEventColumns
	}
	r := rowReader{f: &f, cols: cols, details: slices.Contains(cols, colDetails), names: make(map[string]rowName)}
	return warehouse.ScanFileRecords(fs, s.Path, func(rec []byte) error {
		t, err := r.read(rec)
		if err != nil {
			return fmt.Errorf("warehouse: %s: %w", s.Path, err)
		}
		if t == nil {
			return nil
		}
		return emit(t)
	})
}

// rowReader is one split's pass of a ClientEventFormat: one decoder and one
// header reused record after record, and the split's names.
type rowReader struct {
	f       *ClientEventFormat
	cols    []int
	details bool // cols holds colDetails
	dec     thrift.CompactDecoder
	h       events.Header
	names   map[string]rowName // keyed by fresh strings, never the record buffer
}

// rowName is one distinct valid name of a split: its string, boxed once for
// every tuple that carries it, and whether the selection's pattern takes it.
type rowName struct {
	value Value
	match bool
}

// unnamed is the name column of a message without a name field.
var unnamed Value = events.EventName{}.String()

// read decodes one record into its projected tuple, or nil when the
// selection drops it. The name is validated before the selection is
// applied, so a bad name fails the split whatever the filter.
func (r *rowReader) read(rec []byte) (Tuple, error) {
	r.dec.Reset(rec)
	var details map[string]string
	var err error
	if r.details {
		// A details field with no pairs is nil, as it is absent: a sealed
		// chunk keeps only each row's pair count, so the two layouts agree.
		if details, err = r.h.DecodeDetails(&r.dec); len(details) == 0 {
			details = nil
		}
	} else {
		err = r.h.Decode(&r.dec)
	}
	if err != nil {
		return nil, err
	}
	name, err := r.name(r.h.Name)
	if err != nil {
		return nil, err
	}
	sel := &r.f.sel
	ts := r.h.Timestamp
	if !name.match || (sel.TimeMin != 0 && ts < sel.TimeMin) || (sel.TimeMax != 0 && ts >= sel.TimeMax) {
		return nil, nil
	}
	t := make(Tuple, len(r.cols))
	for i, c := range r.cols {
		switch c {
		case colInitiator:
			t[i] = r.h.Initiator.String()
		case colName:
			t[i] = name.value
		case colUserID:
			t[i] = r.h.UserID
		case colSessionID:
			t[i] = string(r.h.SessionID)
		case colIP:
			t[i] = string(r.h.IP)
		case colTimestamp:
			t[i] = ts
		case colLoggedIn:
			t[i] = r.h.LoggedIn()
		case colDetails:
			t[i] = details
		}
	}
	return t, nil
}

// name resolves a message's name field against the split's names,
// validating and matching a name the first time the split meets it.
func (r *rowReader) name(b []byte) (rowName, error) {
	byName := r.f.sel.NamePattern != ""
	if b == nil {
		// The zero EventName is never valid, so no pattern takes it.
		return rowName{value: unnamed, match: !byName}, nil
	}
	if n, ok := r.names[string(b)]; ok {
		return n, nil
	}
	s := string(b)
	parsed, err := events.ParseName(s)
	if err != nil {
		return rowName{}, err
	}
	n := rowName{value: s, match: !byName || r.f.pat.Matches(parsed)}
	r.names[s] = n
	return n, nil
}

// HourDirs returns the existing warehouse hour directories of a category
// for one UTC day.
func HourDirs(fs *hdfs.FS, category string, day time.Time) []string {
	day = day.UTC().Truncate(24 * time.Hour)
	var dirs []string
	for h := 0; h < 24; h++ {
		dir := warehouse.HourDir(category, day.Add(time.Duration(h)*time.Hour))
		if fs.Exists(dir) {
			dirs = append(dirs, dir)
		}
	}
	return dirs
}

// LoadClientEventsDay scans one full day of raw client events — the
// opening of every raw-log Pig script in §5. A Project on the result folds
// into the scan.
func (j *Job) LoadClientEventsDay(day time.Time) (*Dataset, error) {
	return j.LoadDirsSelective(HourDirs(j.FS, events.Category, day), ClientEventFormat{}, Selection{})
}

// SessionSequenceFormat decodes materialized session-sequence partitions —
// the paper's SessionSequencesLoader (§5.2).
type SessionSequenceFormat struct{}

// SessionSchema is the schema produced by SessionSequenceFormat: the §4.2
// materialized relation.
var SessionSchema = Schema{"user_id", "session_id", "ip", "sequence", "duration", "start"}

// Schema implements InputFormat.
func (SessionSequenceFormat) Schema() Schema { return SessionSchema }

// Splits implements InputFormat.
func (SessionSequenceFormat) Splits(fs *hdfs.FS, dir string) ([]Split, error) {
	return walkSplits(fs, dir)
}

// ReadSplit implements InputFormat.
func (SessionSequenceFormat) ReadSplit(fs *hdfs.FS, s Split, emit func(Tuple) error) error {
	return warehouse.ScanFileRecords(fs, s.Path, func(rec []byte) error {
		var r session.Record
		if err := thrift.DecodeCompact(rec, &r); err != nil {
			return err
		}
		return emit(Tuple{r.UserID, r.SessionID, r.IP, r.Sequence, int64(r.Duration), r.Start})
	})
}

// LoadSessionSequencesDay loads one day of materialized session sequences.
func (j *Job) LoadSessionSequencesDay(day time.Time) (*Dataset, error) {
	return j.Load(warehouse.SessionDayDir(day), SessionSequenceFormat{})
}

// RawRecordFormat decodes each framed record with Decode into a tuple of
// the Columns schema; the legacy-log formats are built on it.
type RawRecordFormat struct {
	// Decode transforms one raw record; returning nil drops it.
	Decode func(rec []byte) Tuple
	// Columns names the produced schema.
	Columns Schema
}

// Schema implements InputFormat.
func (f RawRecordFormat) Schema() Schema { return f.Columns }

// Splits implements InputFormat.
func (f RawRecordFormat) Splits(fs *hdfs.FS, dir string) ([]Split, error) {
	return walkSplits(fs, dir)
}

// ReadSplit implements InputFormat.
func (f RawRecordFormat) ReadSplit(fs *hdfs.FS, s Split, emit func(Tuple) error) error {
	return warehouse.ScanFileRecords(fs, s.Path, func(rec []byte) error {
		if t := f.Decode(rec); t != nil {
			return emit(t)
		}
		return nil
	})
}
