package dataflow

import (
	"time"

	"unilog/internal/events"
	"unilog/internal/hdfs"
	"unilog/internal/recordio"
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

// ClientEventFormat decodes warehouse client-event files. Its schema is the
// flattened Table 2 structure plus the derived logged_in flag.
type ClientEventFormat struct{}

// ClientEventSchema is the schema produced by ClientEventFormat.
var ClientEventSchema = Schema{"initiator", "name", "user_id", "session_id", "ip", "timestamp", "logged_in", "details"}

// Schema implements InputFormat.
func (ClientEventFormat) Schema() Schema { return ClientEventSchema }

// Splits implements InputFormat.
func (ClientEventFormat) Splits(fs *hdfs.FS, dir string) ([]Split, error) {
	return walkSplits(fs, dir)
}

// ReadSplit implements InputFormat.
func (ClientEventFormat) ReadSplit(fs *hdfs.FS, s Split, emit func(Tuple) error) error {
	data, err := fs.ReadFile(s.Path)
	if err != nil {
		return err
	}
	return recordio.ScanGzipFile(data, func(rec []byte) error {
		var e events.ClientEvent
		if err := e.Unmarshal(rec); err != nil {
			return err
		}
		return emit(Tuple{
			e.Initiator.String(),
			e.Name.String(),
			e.UserID,
			e.SessionID,
			e.IP,
			e.Timestamp,
			e.LoggedIn(),
			e.Details,
		})
	})
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
// opening of every raw-log Pig script in §5.
func (j *Job) LoadClientEventsDay(day time.Time) (*Dataset, error) {
	return j.LoadDirs(HourDirs(j.FS, events.Category, day), ClientEventFormat{})
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
	data, err := fs.ReadFile(s.Path)
	if err != nil {
		return err
	}
	return recordio.ScanGzipFile(data, func(rec []byte) error {
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
	data, err := fs.ReadFile(s.Path)
	if err != nil {
		return err
	}
	return recordio.ScanGzipFile(data, func(rec []byte) error {
		if t := f.Decode(rec); t != nil {
			return emit(t)
		}
		return nil
	})
}
