package dataflow_test

import (
	"runtime"
	"testing"
	"time"

	"unilog/internal/dataflow"
	"unilog/internal/events"
	"unilog/internal/hdfs"
	"unilog/internal/warehouse"
	"unilog/internal/workload"
)

var benchDay = time.Date(2012, 8, 21, 0, 0, 0, 0, time.UTC)

// rowHour writes one dense hour of row files the way the benchmark's
// warehouse is written (4,000-record part files): the workload generator's
// fixed-seed day with every timestamp folded into the day's first hour,
// order kept. It returns the file system and the event count.
func rowHour(tb testing.TB, users int) (*hdfs.FS, int) {
	tb.Helper()
	cfg := workload.DefaultConfig(benchDay)
	cfg.Users = users
	evs, _ := workload.New(cfg).Generate()
	fs := hdfs.New(0)
	w := warehouse.NewWriter(fs, events.Category)
	w.RollRecords = 4000
	for i := range evs {
		evs[i].Timestamp = benchDay.UnixMilli() + (evs[i].Timestamp-benchDay.UnixMilli())/24
		if err := w.Append(&evs[i]); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	return fs, len(evs)
}

// rowScanCases are the row-file sources the batch jobs open: the rollup's
// three pushed-down columns, the OrderBy leg's projection of a whole-day
// load, and the full schema.
var rowScanCases = []struct {
	name string
	load func(j *dataflow.Job) (*dataflow.Dataset, error)
}{
	{"rollup-3col", func(j *dataflow.Job) (*dataflow.Dataset, error) {
		return j.LoadDirsSelective(dataflow.HourDirs(j.FS, events.Category, benchDay), dataflow.ClientEventFormat{},
			dataflow.Selection{Columns: []string{"name", "ip", "logged_in"}})
	}},
	{"project-3col", func(j *dataflow.Job) (*dataflow.Dataset, error) {
		d, err := j.LoadClientEventsDay(benchDay)
		if err != nil {
			return nil, err
		}
		return d.Project("timestamp", "session_id", "name")
	}},
	{"full-8col", func(j *dataflow.Job) (*dataflow.Dataset, error) {
		return j.LoadClientEventsDay(benchDay)
	}},
}

// scanRows runs one serial scan to the end and returns its row count, time
// and heap objects.
func scanRows(tb testing.TB, fs *hdfs.FS, load func(*dataflow.Job) (*dataflow.Dataset, error)) (int, time.Duration, uint64) {
	tb.Helper()
	j := dataflow.NewJob("rowscan", fs)
	j.Parallelism = 1
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	d, err := load(j)
	if err != nil {
		tb.Fatal(err)
	}
	rows := 0
	if err := d.Each(func(dataflow.Tuple) error {
		rows++
		return nil
	}); err != nil {
		tb.Fatal(err)
	}
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&after)
	return rows, elapsed, after.Mallocs - before.Mallocs
}

// BenchmarkRowScan scans one generated hour (23,600 events in six part
// files) per iteration through each row-file source and reports the cost
// per event: inflate, header walk, tuple build.
//
// go test ./internal/dataflow -run '^$' -bench RowScan -benchtime 5x, four
// alternating runs per side on a 2-vCPU container (Go 1.24, linux/amd64);
// ns/event and allocs/event, with a full ClientEvent.Unmarshal per row and
// with the header walk building only the projected columns:
//
//	               Unmarshal per row      header walk
//	rollup-3col    2,600-3,400   26.6     1,190-1,390    3.2
//	project-3col   2,930-3,140   26.6     1,190-1,450    4.2
//	full-8col      2,480-3,150   25.6     1,820-2,460   19.7
func BenchmarkRowScan(b *testing.B) {
	fs, n := rowHour(b, 300)
	for _, c := range rowScanCases {
		b.Run(c.name, func(b *testing.B) {
			var ns time.Duration
			var allocs uint64
			for i := 0; i < b.N; i++ {
				rows, d, a := scanRows(b, fs, c.load)
				if rows != n {
					b.Fatalf("scanned %d of %d events", rows, n)
				}
				ns += d
				allocs += a
			}
			b.ReportMetric(float64(ns.Nanoseconds())/float64(b.N*n), "ns/event")
			b.ReportMetric(float64(allocs)/float64(b.N*n), "allocs/event")
		})
	}
}

// TestRowScanAllocatesLittlePerRow holds the three-column row sources to
// the header walk: what is allocated per event is the tuple and the
// strings and boxes of the columns it carries, not a decoded ClientEvent
// (a parsed name, three strings, a details map) and an eight-column tuple
// to copy three columns out of. That cost 26.4 allocations an event on this
// hour, for either source.
func TestRowScanAllocatesLittlePerRow(t *testing.T) {
	fs, n := rowHour(t, 100)
	for _, c := range rowScanCases[:2] {
		scanRows(t, fs, c.load)
		rows, _, allocs := scanRows(t, fs, c.load)
		if rows != n {
			t.Fatalf("%s: scanned %d of %d events", c.name, rows, n)
		}
		if perEvent := float64(allocs) / float64(n); perEvent > 8 {
			t.Errorf("%s: scanning %d events allocated %d objects, %.2f per event; want at most 8", c.name, n, allocs, perEvent)
		}
	}
}
