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

// sealedDay generates one day of users' events, writes it to a warehouse
// and seals every hour into column chunks.
func sealedDay(tb testing.TB, users int) (*hdfs.FS, int) {
	tb.Helper()
	cfg := workload.DefaultConfig(day)
	cfg.Users = users
	evs, _ := workload.New(cfg).Generate()
	fs := hdfs.New(0)
	if err := workload.WriteWarehouse(fs, evs); err != nil {
		tb.Fatal(err)
	}
	if n, err := columnar.SealDay(fs, events.Category, day); err != nil || n == 0 {
		tb.Fatalf("SealDay: %d chunks, %v", n, err)
	}
	return fs, len(evs)
}

// perEvent runs job b.N times over a day of n events and reports its cost
// per event.
func perEvent(b *testing.B, n int, job func() error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := job(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	per := float64(b.N * n)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/per, "ns/event")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/per, "allocs/event")
}

// BenchmarkCountRawDaySealed runs the raw-log count over one generated day
// of ~120k events sealed into column chunks, one full job per iteration,
// and reports its cost per event: the batch scan, the map-side combiner,
// the group-by of its per-session partials on (user id, session id) and the
// re-sessionizing walk with its matcher.
//
//	go test ./internal/analytics -run '^$' -bench 'RawDaySealed|RollupsSealed' -benchtime 5x
func BenchmarkCountRawDaySealed(b *testing.B) {
	fs, n := sealedDay(b, 1700)
	m, err := MatcherFromPattern("*:profile_click")
	if err != nil {
		b.Fatal(err)
	}
	perEvent(b, n, func() error {
		rep, err := CountRawDay(dataflow.NewJob("rawcount", fs), day, m)
		if err == nil && rep.Events == 0 {
			b.Fatal("counted no events")
		}
		return err
	})
}

// BenchmarkRollupsSealed runs the §3.2 rollup job over the same day: the
// batch scan of three columns, the ID-keyed combiner and the group-by of its
// partials.
func BenchmarkRollupsSealed(b *testing.B) {
	fs, n := sealedDay(b, 1700)
	perEvent(b, n, func() error {
		r, err := Rollups(dataflow.NewJob("rollups", fs), day)
		if err == nil && len(r) == 0 {
			b.Fatal("no rollup rows")
		}
		return err
	})
}

// TestRawCountAllocatesLittlePerEvent bounds what the raw-log count
// allocates per event of a sealed day: the tuple-per-event group-by it
// replaced allocated 3.04 per event, the batch fold with one partial per
// session ~0.1.
func TestRawCountAllocatesLittlePerEvent(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates on its own")
	}
	fs, n := sealedDay(t, 400)
	m, err := MatcherFromPattern("*:profile_click")
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		if _, err := CountRawDay(dataflow.NewJob("rawcount", fs), day, m); err != nil {
			t.Fatal(err)
		}
	}
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	if per := float64(after.Mallocs-before.Mallocs) / float64(n); per > 0.3 {
		t.Fatalf("CountRawDay allocates %.2f times per event, want at most 0.3", per)
	}
}
