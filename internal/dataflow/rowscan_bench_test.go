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
		return j.LoadDirsSelective(warehouse.HourDirs(j.FS, events.Category, benchDay), dataflow.ClientEventFormat{},
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
// per event: inflate, header walk, column batch, tuple build.
//
// go test ./internal/dataflow -run '^$' -bench RowScan -benchtime 5x on a
// 2-vCPU container (Go 1.24, linux/amd64); ns/event and allocs/event. A
// full ClientEvent.Unmarshal per row cost 2,480-3,400 ns and 25.6-26.6
// allocs. Four alternating runs per side of the header walk building the
// tuple straight from each record, and of the tuple built from the day
// reader's batch of the file, on a host then running about twice as slow
// as when the Unmarshal figures were taken:
//
//	               header walk          batch
//	rollup-3col    2,320-2,750   3.2    2,350-2,590   1.25
//	project-3col   2,460-2,920   4.2    2,150-2,650   2.25
//	full-8col      3,850-4,900  19.6    4,090-5,780  15.75
//
// The batch costs the full schema its details: a row's pairs are encoded
// into the chunk layout and then decoded into a map. No benchmark workload
// projects details through a tuple scan.
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
// the day reader's batch: what is allocated per event is the tuple and the
// box of each timestamp, a string and a box per distinct dictionary value,
// not a decoded ClientEvent (a parsed name, three strings, a details map)
// and an eight-column tuple to copy three columns out of. That cost 26.4
// allocations an event on this hour; boxing each row's strings, 3.2-4.2.
func TestRowScanAllocatesLittlePerRow(t *testing.T) {
	fs, n := rowHour(t, 100)
	for _, c := range rowScanCases[:2] {
		scanRows(t, fs, c.load)
		rows, _, allocs := scanRows(t, fs, c.load)
		if rows != n {
			t.Fatalf("%s: scanned %d of %d events", c.name, rows, n)
		}
		if perEvent := float64(allocs) / float64(n); perEvent > 3 {
			t.Errorf("%s: scanning %d events allocated %d objects, %.2f per event; want at most 3", c.name, n, allocs, perEvent)
		}
	}
}
