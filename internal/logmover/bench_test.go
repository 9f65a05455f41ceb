package logmover

import (
	"runtime"
	"testing"
	"time"

	"unilog/internal/columnar"
	"unilog/internal/events"
	"unilog/internal/hdfs"
	"unilog/internal/scribe"
	"unilog/internal/warehouse"
	"unilog/internal/workload"
	"unilog/internal/zk"
)

// BenchmarkDeliverHour delivers one generated hour per iteration through
// the write path's slowest links: one region's daemons log it through two
// aggregators, which walk each record into a chunk encoder, into staging,
// the region seals the hour (each stream's last chunk image staged,
// _SEALED written), and the mover reads the images back, re-chunks and
// publishes them (MoveAllSealed). Iteration i delivers hour t0+i, and one
// mover moves them all into one warehouse, as a mover runs hour after
// hour. Building the region and the hour's messages is not timed.
// It reports the cost per event — ns and allocations — and the staging
// bytes that cross to the warehouse and the bytes it stores, per event.
func BenchmarkDeliverHour(b *testing.B) {
	cfg := workload.DefaultConfig(t0)
	cfg.Users = 300
	evs, _ := workload.New(cfg).Generate()
	day := cfg.Day.UnixMilli()
	offsets := make([]int64, len(evs))
	for i := range evs {
		offsets[i] = (evs[i].Timestamp - day) / 24 // the day folded into one hour
	}
	msgs := make([][]byte, len(evs))
	cats := []string{events.Category}
	wh := hdfs.New(0)
	m := New(wh)
	var ns time.Duration
	var allocs uint64
	var staged, stored int64
	var before, after runtime.MemStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		hour := t0.Add(time.Duration(i) * time.Hour)
		for j := range evs {
			evs[j].Timestamp = hour.UnixMilli() + offsets[j]
			msgs[j] = evs[j].Marshal()
		}
		dc, err := scribe.NewDatacenter("dc1", hdfs.New(0), zk.NewManualClock(hour), 2, 3, 7)
		if err != nil {
			b.Fatal(err)
		}
		m.Sources = []Source{{"dc1", dc.Staging}}
		runtime.ReadMemStats(&before)
		b.StartTimer()
		start := time.Now()
		for j, msg := range msgs {
			dc.Daemons[j%len(dc.Daemons)].Log(events.Category, msg)
		}
		if err := dc.SealHour(cats, hour); err != nil {
			b.Fatal(err)
		}
		// The hour's client events, then the empty invalid-category hour
		// SealHour seals beside it.
		moved, err := m.MoveAllSealed()
		if err != nil || len(moved) != 2 || moved[0].Records != int64(len(msgs)) || moved[1].Records != 0 {
			b.Fatalf("moved %+v: %v", moved, err)
		}
		ns += time.Since(start)
		b.StopTimer()
		runtime.ReadMemStats(&after)
		allocs += after.Mallocs - before.Mallocs
		staged += moved[0].BytesIn
		size, err := wh.TotalSize(warehouse.HourDir(events.Category, hour))
		if err != nil {
			b.Fatal(err)
		}
		stored += size
		for _, d := range dc.Daemons {
			d.Close()
		}
		b.StartTimer()
	}
	n := float64(b.N * len(msgs))
	b.ReportMetric(float64(ns.Nanoseconds())/n, "ns/event")
	b.ReportMetric(float64(allocs)/n, "allocs/event")
	b.ReportMetric(float64(staged)/n, "staging-B/event")
	b.ReportMetric(float64(stored)/n, "stored-B/event")
}

// BenchmarkRechunkHour is the mover's re-chunk link alone: one generated
// hour, staged as chunk images by two aggregators (not timed), is read back
// and re-chunked into a fresh warehouse directory per iteration —
// chunk.ReadImage, columnar.Sealer.AddColumns and Close, through the
// mover's sealImage — with one Sealer across iterations, as a mover keeps
// it. It reports the cost per event, ns and allocations.
func BenchmarkRechunkHour(b *testing.B) {
	cfg := workload.DefaultConfig(t0)
	cfg.Users = 300
	evs, _ := workload.New(cfg).Generate()
	dc, err := scribe.NewDatacenter("dc1", hdfs.New(0), zk.NewManualClock(t0), 2, 3, 7)
	if err != nil {
		b.Fatal(err)
	}
	day := cfg.Day.UnixMilli()
	for j := range evs {
		evs[j].Timestamp = t0.UnixMilli() + (evs[j].Timestamp-day)/24 // the day folded into one hour
		dc.Daemons[j%len(dc.Daemons)].Log(events.Category, evs[j].Marshal())
	}
	if err := dc.SealHour([]string{events.Category}, t0); err != nil {
		b.Fatal(err)
	}
	for _, d := range dc.Daemons {
		d.Close()
	}
	dir := warehouse.StagingHourDir(events.Category, t0)
	infos, err := dc.Staging.Walk(dir)
	if err != nil {
		b.Fatal(err)
	}
	var paths []string
	var images [][]byte
	for _, fi := range infos {
		if fi.Path == dir+"/"+warehouse.SealedMarker {
			continue
		}
		data, err := dc.Staging.ReadFile(fi.Path)
		if err != nil {
			b.Fatal(err)
		}
		paths, images = append(paths, fi.Path), append(images, data)
	}
	hourDir := warehouse.HourDir(events.Category, t0)
	sealer := columnar.NewSealer(hdfs.New(0), hourDir, 0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sealer.Reset(hdfs.New(0), hourDir)
		var rows int64
		for k, img := range images {
			n, err := sealImage(sealer, paths[k], img)
			if err != nil {
				b.Fatal(err)
			}
			rows += n
		}
		if _, err := sealer.Close(); err != nil || rows != int64(len(evs)) {
			b.Fatalf("re-chunked %d of %d rows: %v", rows, len(evs), err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	n := float64(b.N * len(evs))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/event")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/event")
}
