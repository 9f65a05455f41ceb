package analytics

import (
	"runtime"
	"testing"

	"unilog/internal/columnar"
	"unilog/internal/dataflow"
	"unilog/internal/events"
	"unilog/internal/hdfs"
	"unilog/internal/workload"
)

// BenchmarkCountRawDaySealed runs the raw-log count over one generated day
// of ~120k events sealed into column chunks, one full job per iteration,
// and reports its cost per event: the chunk scan, the ordered group-by on
// (user id, session id) and the re-sessionizing walk with its matcher.
//
//	go test ./internal/analytics -run '^$' -bench CountRawDaySealed -benchtime 5x
func BenchmarkCountRawDaySealed(b *testing.B) {
	cfg := workload.DefaultConfig(day)
	cfg.Users = 1700
	evs, _ := workload.New(cfg).Generate()
	fs := hdfs.New(0)
	if err := workload.WriteWarehouse(fs, evs); err != nil {
		b.Fatal(err)
	}
	if n, err := columnar.SealDay(fs, events.Category, day); err != nil || n == 0 {
		b.Fatalf("SealDay: %d chunks, %v", n, err)
	}
	m, err := MatcherFromPattern("*:profile_click")
	if err != nil {
		b.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := CountRawDay(dataflow.NewJob("rawcount", fs), day, m)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Events == 0 {
			b.Fatal("counted no events")
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	per := float64(b.N * len(evs))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/per, "ns/event")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/per, "allocs/event")
}
