package columnar

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"unilog/internal/chunk"
	"unilog/internal/dataflow"
	"unilog/internal/events"
	"unilog/internal/hdfs"
	"unilog/internal/recordio"
	"unilog/internal/thrift"
	"unilog/internal/warehouse"
	"unilog/internal/workload"
)

// generatedHour writes one dense hour of row files: the workload
// generator's fixed-seed day with every timestamp folded into the day's
// first hour, order kept. It returns the file system and the event count.
func generatedHour(tb testing.TB, users int) (*hdfs.FS, int) {
	tb.Helper()
	cfg := workload.DefaultConfig(testDay)
	cfg.Users = users
	evs, _ := workload.New(cfg).Generate()
	fs := hdfs.New(0)
	w := warehouse.NewWriter(fs, events.Category)
	for i := range evs {
		evs[i].Timestamp = testDay.UnixMilli() + (evs[i].Timestamp-testDay.UnixMilli())/24
		if err := w.Append(&evs[i]); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	return fs, len(evs)
}

// unseal takes the hour back to its row files.
func unseal(tb testing.TB, fs *hdfs.FS) {
	tb.Helper()
	if err := removeTornSeal(fs, warehouse.HourDir(events.Category, testDay)); err != nil {
		tb.Fatal(err)
	}
}

// timedSeal seals the generated hour and returns what that took on the
// clock and in heap objects.
func timedSeal(tb testing.TB, fs *hdfs.FS) (time.Duration, uint64) {
	tb.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	n, err := SealHour(fs, events.Category, testDay)
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&after)
	if err != nil || n == 0 {
		tb.Fatalf("seal: %d chunks, %v", n, err)
	}
	return elapsed, after.Mallocs - before.Mallocs
}

// BenchmarkSealHour seals one generated hour per iteration and reports the
// seal's cost per event: inflate, header walk, column build, chunk write.
func BenchmarkSealHour(b *testing.B) {
	fs, n := generatedHour(b, 300)
	var ns time.Duration
	var allocs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		unseal(b, fs)
		b.StartTimer()
		d, a := timedSeal(b, fs)
		ns += d
		allocs += a
	}
	b.ReportMetric(float64(ns.Nanoseconds())/float64(b.N*n), "ns/event")
	b.ReportMetric(float64(allocs)/float64(b.N*n), "allocs/event")
}

// TestSealAllocatesPerChunkNotPerEvent holds the seal to its design: rows go
// from the wire to the column accumulators, and what is allocated per event
// is a string per value new to its chunk. Materialising a ClientEvent per
// row (a parsed name, three strings, a map) cost 21.8 allocations an event.
func TestSealAllocatesPerChunkNotPerEvent(t *testing.T) {
	fs, n := generatedHour(t, 100)
	timedSeal(t, fs)
	unseal(t, fs)
	_, allocs := timedSeal(t, fs)
	if perEvent := float64(allocs) / float64(n); perEvent > 2 {
		t.Fatalf("sealing %d events allocated %d objects, %.2f per event; want at most 2", n, allocs, perEvent)
	}
}

// TestChunkScanBoxesEachDictionaryEntryOnce holds the sealed scan to what a
// row costs: the tuple. Name and ip come out of per-chunk dictionaries, and
// each entry is boxed into an interface value once per chunk and shared by
// every row that uses it; boxing the string per row cost 3.0 allocations a
// row on this hour with rollup's three columns.
func TestChunkScanBoxesEachDictionaryEntryOnce(t *testing.T) {
	fs, n := generatedHour(t, 100)
	timedSeal(t, fs)
	sel := dataflow.Selection{Columns: []string{"name", "ip", "logged_in"}}
	scan := func() (int, uint64) {
		j := dataflow.NewJob("chunkscan", fs)
		j.Parallelism = 1
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d, err := LoadDay(j, testDay, sel)
		if err != nil {
			t.Fatal(err)
		}
		rows := 0
		if err := d.Each(func(dataflow.Tuple) error {
			rows++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return rows, after.Mallocs - before.Mallocs
	}
	scan()
	rows, allocs := scan()
	if rows != n {
		t.Fatalf("scanned %d of %d events", rows, n)
	}
	if perRow := float64(allocs) / float64(rows); perRow > 1.5 {
		t.Fatalf("scanning %d sealed rows allocated %d objects, %.2f per row; want at most 1.5", rows, allocs, perRow)
	}
}

// TestSealErrorNamesTheRowFile: a record the walk cannot read, or whose name
// fails validation, fails the seal with the path of the row file it lies in;
// the chunks cut before it are counted and the hour is left unsealed.
func TestSealErrorNamesTheRowFile(t *testing.T) {
	good := (&events.ClientEvent{
		Name:      events.MustParseName(testNames[0]),
		SessionID: "s", Timestamp: testDay.UnixMilli(),
	}).Marshal()
	badName := thrift.NewCompactEncoder()
	badName.WriteStructBegin()
	badName.WriteFieldBegin(thrift.STRING, 2)
	badName.WriteString("NOT A NAME")
	badName.WriteFieldStop()
	badName.WriteStructEnd()
	for name, bad := range map[string][]byte{
		"invalid name":   badName.Bytes(),
		"truncated walk": good[:len(good)-2],
	} {
		t.Run(name, func(t *testing.T) {
			fs := hdfs.New(0)
			dir := warehouse.HourDir(events.Category, testDay)
			for file, recs := range map[string][][]byte{
				"/part-00000.gz": {good, good, good, good},
				"/part-00001.gz": {good, bad, good},
			} {
				var buf bytes.Buffer
				w := recordio.NewGzipWriter(&buf)
				for _, rec := range recs {
					if err := w.Append(rec); err != nil {
						t.Fatal(err)
					}
				}
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
				if err := fs.WriteFile(dir+file, buf.Bytes()); err != nil {
					t.Fatal(err)
				}
			}
			n, err := SealHourChunks(fs, events.Category, testDay, 2)
			if err == nil || !strings.Contains(err.Error(), "warehouse: "+dir+"/part-00001.gz: ") {
				t.Fatalf("seal error = %v, want one naming %s/part-00001.gz", err, dir)
			}
			if errors.Is(err, recordio.ErrCorrupt) {
				t.Fatalf("seal error %v reads as file damage", err)
			}
			if n != 2 || HasColumnar(fs, dir) || !fs.Exists(chunk.Path(dir, 1)) || fs.Exists(chunk.Path(dir, 2)) {
				t.Fatalf("failed seal: %d chunks counted, sealed %v", n, HasColumnar(fs, dir))
			}
		})
	}
}

// hourBytes sums the row files and the chunk images of the generated hour.
func hourBytes(tb testing.TB, fs *hdfs.FS) (rows, cols int64) {
	tb.Helper()
	infos, err := fs.Walk(warehouse.HourDir(events.Category, testDay))
	if err != nil {
		tb.Fatal(err)
	}
	for _, fi := range infos {
		if strings.Contains(fi.Path, "/_col-") {
			cols += fi.Size
		} else {
			rows += fi.Size
		}
	}
	return rows, cols
}

// TestSealedNoLargerThanRows holds the seal to its storage target: a sealed
// hour's chunk images take no more bytes than the row files they were cut
// from. With the details column stored as length-prefixed pairs they took
// 4.2 times as many; typed per key, 0.83.
func TestSealedNoLargerThanRows(t *testing.T) {
	fs, n := generatedHour(t, 100)
	timedSeal(t, fs)
	rows, cols := hourBytes(t, fs)
	t.Logf("%d events: rows %.1f B/event, columns %.1f B/event", n, float64(rows)/float64(n), float64(cols)/float64(n))
	if cols > rows {
		t.Fatalf("chunk images hold %d bytes, the row files %d", cols, rows)
	}
}

// TestSealCountsBytes: columnar.seal.bytes grows by the bytes of the column
// files a seal writes, the marker aside, so over columnar.seal.rows it is
// the sealed bytes per row.
func TestSealCountsBytes(t *testing.T) {
	fs, n := generatedHour(t, 20)
	bytes0, rows0 := tmSealBytes.Value(), tmSealRows.Value()
	timedSeal(t, fs)
	_, cols := hourBytes(t, fs)
	marker, err := fs.ReadFile(chunk.SealedPath(warehouse.HourDir(events.Category, testDay)))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := tmSealBytes.Value()-bytes0, cols-int64(len(marker)); got != want {
		t.Fatalf("columnar.seal.bytes grew by %d, the chunk files hold %d", got, want)
	}
	if got := tmSealRows.Value() - rows0; got != int64(n) {
		t.Fatalf("columnar.seal.rows grew by %d for %d events", got, n)
	}
}
