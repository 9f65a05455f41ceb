// Package warehouse defines the layout of the main Hadoop data warehouse
// and the staging clusters as the paper describes them (§2): logs arrive in
// per-category, per-hour directories, /logs/category/YYYY/MM/DD/HH/, with
// messages bundled into a small number of large gzipped record files. A
// file whose name starts with an underscore is not such a record file but
// a seal marker or a column chunk (chunk.IsAuxiliary); there is no other
// kind of sidecar, so a scan that meets anything else fails with
// recordio.ErrCorrupt and the file's path rather than skipping it. A
// client-events hour the log mover sealed holds its column chunks and
// _col-SEALED marker only, and no record file at all.
//
// It also provides a direct Writer over the row layout, and ScanDay, which
// reads a day of either layout back as events. The full delivery path
// (daemon → aggregator → staging → log mover) publishes client events as
// column chunks; the direct writer exists so analytics benchmarks can
// populate a warehouse without running the whole pipeline.
package warehouse

import (
	"fmt"
	"strconv"
	"time"

	"unilog/internal/chunk"
	"unilog/internal/events"
	"unilog/internal/hdfs"
	"unilog/internal/recordio"
)

// Root directories of the two clusters.
const (
	// LogsRoot is the warehouse root: /logs/<category>/YYYY/MM/DD/HH/.
	LogsRoot = "/logs"
	// StagingRoot is the per-datacenter staging root with the same shape.
	StagingRoot = "/staging"
	// TmpRoot holds in-flight data that will be renamed into place.
	TmpRoot = "/tmp"
	// SessionRoot holds materialized session sequences, per day.
	SessionRoot = "/session_sequences"
)

// HourPath formats t's UTC hour as YYYY/MM/DD/HH. It and DatePath write
// what fmt's "%04d/%02d/%02d" forms write, without fmt: every day-scale
// query formats 24 of them.
func HourPath(t time.Time) string {
	u := t.UTC()
	b := appendDate(make([]byte, 0, len("YYYY/MM/DD/HH")), u)
	return string(appendPadded(append(b, '/'), u.Hour(), 2))
}

// DatePath formats t's UTC date as YYYY/MM/DD.
func DatePath(t time.Time) string {
	return string(appendDate(make([]byte, 0, len("YYYY/MM/DD")), t.UTC()))
}

// appendDate appends u's date as YYYY/MM/DD.
func appendDate(b []byte, u time.Time) []byte {
	y, m, d := u.Date()
	b = appendPadded(b, y, 4)
	b = appendPadded(append(b, '/'), int(m), 2)
	return appendPadded(append(b, '/'), d, 2)
}

// appendPadded appends v in decimal, zero-padded to width bytes sign
// included, as fmt's %0<width>d does.
func appendPadded(b []byte, v, width int) []byte {
	if v < 0 {
		b = append(b, '-')
		width--
	}
	var buf [20]byte
	digits := strconv.AppendUint(buf[:0], uint64(max(v, -v)), 10)
	for i := len(digits); i < width; i++ {
		b = append(b, '0')
	}
	return append(b, digits...)
}

// CategoryDir is the warehouse directory of a category: /logs/<category>.
func CategoryDir(category string) string {
	return LogsRoot + "/" + category
}

// HourDir is the warehouse directory of one imported hour.
func HourDir(category string, t time.Time) string {
	return CategoryDir(category) + "/" + HourPath(t)
}

// StagingHourDir is the staging-cluster directory for one category-hour.
func StagingHourDir(category string, t time.Time) string {
	return StagingRoot + "/" + category + "/" + HourPath(t)
}

// SealedMarker is the empty file an aggregator cluster writes once a
// staging hour is complete; the log mover waits for it from every
// datacenter before sliding the hour into the warehouse.
const SealedMarker = "_SEALED"

// SessionDayDir is the directory of one day of materialized session
// sequences.
func SessionDayDir(t time.Time) string {
	return SessionRoot + "/" + DatePath(t)
}

// Writer writes client events straight into warehouse layout, bypassing the
// delivery pipeline. Files roll at RollRecords records.
type Writer struct {
	fs       *hdfs.FS
	category string
	// RollRecords caps records per part file; it defaults to 50000.
	RollRecords int

	hour    time.Time
	buf     *memFile
	rw      *recordio.GzipWriter
	inFile  int
	partSeq int
	written int64
}

type memFile struct{ data []byte }

func (m *memFile) Write(p []byte) (int, error) {
	m.data = append(m.data, p...)
	return len(p), nil
}

// NewWriter returns a Writer for the category on fs.
func NewWriter(fs *hdfs.FS, category string) *Writer {
	return &Writer{fs: fs, category: category, RollRecords: 50000}
}

// Append adds one event, bucketing it into the directory of its own
// timestamp's hour. Events must be appended in non-decreasing hour order.
func (w *Writer) Append(e *events.ClientEvent) error {
	hr := time.UnixMilli(e.Timestamp).UTC().Truncate(time.Hour)
	if w.rw == nil || !hr.Equal(w.hour) || w.inFile >= w.RollRecords {
		if err := w.roll(); err != nil {
			return err
		}
		w.hour = hr
	}
	if err := w.rw.Append(e.Marshal()); err != nil {
		return err
	}
	w.inFile++
	w.written++
	return nil
}

func (w *Writer) roll() error {
	if err := w.flushCurrent(); err != nil {
		return err
	}
	w.buf = &memFile{}
	w.rw = recordio.NewGzipWriter(w.buf)
	w.inFile = 0
	return nil
}

func (w *Writer) flushCurrent() error {
	if w.rw == nil || w.inFile == 0 {
		return nil
	}
	if err := w.rw.Close(); err != nil {
		return err
	}
	path := fmt.Sprintf("%s/part-%05d.gz", HourDir(w.category, w.hour), w.partSeq)
	w.partSeq++
	if err := w.fs.WriteFile(path, w.buf.data); err != nil {
		return err
	}
	w.rw = nil
	w.buf = nil
	return nil
}

// Close flushes the final part file.
func (w *Writer) Close() error { return w.flushCurrent() }

// Written reports the number of events appended.
func (w *Writer) Written() int64 { return w.written }

// ScanHourRecords is chunk.ScanFileRecords over every row file of the hour
// directory dir, in path order, fn invoked on each record with the path of
// the file it came from. It reads rows only: a sealed hour the log mover
// published holds none.
func ScanHourRecords(fs *hdfs.FS, dir string, fn func(path string, rec []byte) error) error {
	infos, err := fs.Walk(dir)
	if err != nil {
		return err
	}
	for _, fi := range infos {
		if chunk.IsAuxiliary(fi.Path) {
			continue
		}
		path := fi.Path
		if err := chunk.ScanFileRecords(fs, path, func(rec []byte) error { return fn(path, rec) }); err != nil {
			return err
		}
	}
	return nil
}

// HourDirs returns the existing hour directories of a category for one UTC
// day, in hour order: the one listing of a day every day-scale reader walks.
func HourDirs(fs *hdfs.FS, category string, day time.Time) []string {
	day = day.UTC().Truncate(24 * time.Hour)
	dirs := make([]string, 0, 24)
	for h := 0; h < 24; h++ {
		dir := HourDir(category, day.Add(time.Duration(h)*time.Hour))
		if fs.Exists(dir) {
			dirs = append(dirs, dir)
		}
	}
	return dirs
}

// ScanDay decodes every event of a category across all 24 hours of t's day,
// hour by hour and in scan order within an hour, invoking fn on each. It
// reads each hour through the day reader (chunk.ReadHour): a sealed hour
// from its column chunks, whether or not rows remain beside them, any
// other hour from its row files. It builds a ClientEvent per row; the
// pipeline folds the batches instead, and only tests and the benchmark's
// oracle call this.
func ScanDay(fs *hdfs.FS, category string, day time.Time, fn func(*events.ClientEvent) error) error {
	for _, dir := range HourDirs(fs, category, day) {
		err := chunk.ReadHour(fs, dir, chunk.All&^chunk.LoggedIn, func(b *chunk.Batch) error {
			defer b.Release()
			for row := 0; row < b.Rows; row++ {
				e, err := b.Event(row)
				if err != nil {
					return fmt.Errorf("warehouse: %s: %w", b.Path, err)
				}
				if err := fn(&e); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// DictionaryDir is the "known location in HDFS" (§4.2) where the daily
// histogram job stores the event-count histogram, the client event
// dictionary, and per-event samples.
func DictionaryDir(t time.Time) string {
	return "/event_dictionary/" + DatePath(t)
}

// DataSize sums the sizes of the row files (chunk.IsAuxiliary excluded)
// under dir.
func DataSize(fs *hdfs.FS, dir string) (int64, error) {
	infos, err := fs.Walk(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, fi := range infos {
		if chunk.IsAuxiliary(fi.Path) {
			continue
		}
		total += fi.Size
	}
	return total, nil
}
