package logmover

import (
	"runtime"
	"testing"
	"time"

	"unilog/internal/events"
	"unilog/internal/hdfs"
	"unilog/internal/scribe"
	"unilog/internal/warehouse"
	"unilog/internal/workload"
	"unilog/internal/zk"
)

// BenchmarkDeliverHour delivers one generated hour per iteration through
// the write path's slowest links: one region's daemons log it through two
// aggregators into staging, the region seals the hour (the last member of
// each stream deflated, _SEALED written), and the mover verifies, seals
// and publishes it (MoveAllSealed). Building the topology is not timed.
// It reports the cost per event — ns and allocations — and the staging
// bytes that cross to the warehouse and the bytes it stores, per event.
func BenchmarkDeliverHour(b *testing.B) {
	cfg := workload.DefaultConfig(t0)
	cfg.Users = 300
	evs, _ := workload.New(cfg).Generate()
	day := cfg.Day.UnixMilli()
	msgs := make([][]byte, len(evs))
	for i := range evs {
		evs[i].Timestamp = t0.UnixMilli() + (evs[i].Timestamp-day)/24 // the day folded into hour t0
		msgs[i] = evs[i].Marshal()
	}
	cats := []string{events.Category}
	var ns time.Duration
	var allocs uint64
	var staged, stored int64
	var before, after runtime.MemStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dc, err := scribe.NewDatacenter("dc1", hdfs.New(0), zk.NewManualClock(t0), 2, 3, 7)
		if err != nil {
			b.Fatal(err)
		}
		wh := hdfs.New(0)
		m := New(wh, Source{"dc1", dc.Staging})
		runtime.ReadMemStats(&before)
		b.StartTimer()
		start := time.Now()
		for j, msg := range msgs {
			dc.Daemons[j%len(dc.Daemons)].Log(events.Category, msg)
		}
		if err := dc.SealHour(cats, t0); err != nil {
			b.Fatal(err)
		}
		moved, err := m.MoveAllSealed()
		if err != nil || len(moved) != 1 || moved[0].Records != int64(len(msgs)) {
			b.Fatalf("moved %+v: %v", moved, err)
		}
		ns += time.Since(start)
		b.StopTimer()
		runtime.ReadMemStats(&after)
		allocs += after.Mallocs - before.Mallocs
		staged += moved[0].BytesIn
		size, err := wh.TotalSize(warehouse.CategoryDir(events.Category))
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
