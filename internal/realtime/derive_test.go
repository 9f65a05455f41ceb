package realtime

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"unilog/internal/events"
	"unilog/internal/workload"
)

const tweetImpression = "web:home:timeline:stream:tweet:impression"

// TestPrefixCacheFollowsWrites walks one bucket through clean → stale →
// clean: a prefix read after a write sees the write, and the rollup readers,
// which answer from the leaves, neither need the cache nor rebuild it.
func TestPrefixCacheFollowsWrites(t *testing.T) {
	c := newCounter(t, Config{Shards: 1})
	from, to := t0, t0.Add(time.Minute)
	b := &c.shards[0].ring[int(t0.Unix()/60)%c.buckets]
	write := func() {
		c.Ingest(ev(tweetImpression, t0, 1, "us"))
		c.Sync()
		if !b.stale {
			t.Fatal("a write left the bucket's prefix cache marked clean")
		}
	}
	write()
	if got := c.PathSum("web:home", from, to); got != 1 || b.stale {
		t.Fatalf("first read: PathSum = %d (want 1), stale = %v (want derived)", got, b.stale)
	}
	write()
	if got := c.RollupTotal(4, "web:*:*:*:*:impression", from, to); got != 2 {
		t.Errorf("RollupTotal = %d, want 2", got)
	}
	if got := len(c.RollupSnapshot(from, to)); got != events.NumRollupLevels {
		t.Errorf("RollupSnapshot has %d rows, want %d", got, events.NumRollupLevels)
	}
	webHome, _ := events.PathID("web:home")
	if !b.stale || b.prefix[webHome] != 1 {
		t.Fatalf("a rollup read derived the prefix cache (stale = %v, cached web:home = %d)",
			b.stale, b.prefix[webHome])
	}
	if got := c.PathSum("web:home", from, to); got != 2 || b.stale {
		t.Fatalf("second read: PathSum = %d (want 2), stale = %v (want derived)", got, b.stale)
	}
	if got := c.Series("web", from, to); !reflect.DeepEqual(got, []int64{2}) {
		t.Errorf("Series = %v, want [2]", got)
	}
}

// TestRollupTotalOutsideLevels: §3.2 defines levels 0-4, and the leaf walk
// indexes a five-entry array by the level it is asked for.
func TestRollupTotalOutsideLevels(t *testing.T) {
	c := newCounter(t, Config{Shards: 1})
	c.Ingest(ev(tweetImpression, t0, 1, "us"))
	c.Sync()
	from, to := t0, t0.Add(time.Minute)
	if got := c.RollupTotal(0, tweetImpression, from, to); got != 1 {
		t.Fatalf("RollupTotal(0) = %d, want 1", got)
	}
	for _, level := range []events.RollupLevel{-1, events.NumRollupLevels, 256} {
		if got := c.RollupTotal(level, tweetImpression, from, to); got != 0 {
			t.Errorf("RollupTotal(%d) = %d, want 0", level, got)
		}
	}
}

// TestDeriveTelemetry: the cost moved from the write path shows where it
// went — the first prefix read after a write derives and says so, a second
// read of the same clean buckets says nothing. Over a day, whole hours come
// from hour cells: a second read of a clean day derives nothing, and one
// late write re-derives exactly its minute and its hour.
func TestDeriveTelemetry(t *testing.T) {
	t.Run("minutes", testDeriveMinutes)
	t.Run("day", testDeriveDay)
}

func testDeriveDay(t *testing.T) {
	c := newCounter(t, Config{Shards: 2})
	midnight := t0.Truncate(24 * time.Hour)
	var written int64
	for m := 3; m < 1440; m += 7 {
		c.Ingest(ev(tweetImpression, midnight.Add(time.Duration(m)*time.Minute), 1, "us"))
		written++
	}
	c.Ingest(ev(tweetImpression, midnight.Add(1439*time.Minute), 1, "us")) // the day is the window, ring-clamped
	written++
	c.Sync()
	from, to := midnight, midnight.Add(24*time.Hour)
	read := func(when string, want, minutes, hours int64) {
		t.Helper()
		b0, h0 := tmDeriveBuckets.Value(), tmDeriveHours.Value()
		if got := c.PathSum("web:home", from, to); got != want {
			t.Fatalf("%s: PathSum = %d, want %d", when, got, want)
		}
		top := c.TopK("", 1, from, to)
		if len(top) != 1 || top[0] != (PathCount{Path: "web", Count: want}) {
			t.Fatalf("%s: TopK = %v, want web %d", when, top, want)
		}
		if b, h := tmDeriveBuckets.Value()-b0, tmDeriveHours.Value()-h0; b != minutes || h != hours {
			t.Fatalf("%s: derived %d minutes and %d hour cells, want %d and %d", when, b, h, minutes, hours)
		}
	}
	// Every minute written is its own bucket; every shard sums its 24 cells
	// once, the one that holds nothing included.
	read("first read", written, written, 24*2)
	read("second read", written, 0, 0)
	c.Ingest(ev(tweetImpression, midnight.Add(5*time.Hour+4*time.Minute), 1, "us"))
	c.Sync()
	read("after a late write", written+1, 1, 1)
}

func testDeriveMinutes(t *testing.T) {
	c := newCounter(t, Config{Shards: 2})
	for m := 0; m < 3; m++ {
		c.Ingest(ev(tweetImpression, t0.Add(time.Duration(m)*time.Minute), 1, "us"))
	}
	c.Sync()
	from, to := t0, t0.Add(time.Hour)
	buckets0, calls0 := tmDeriveBuckets.Value(), tmDeriveNs.Summary().Count
	c.RollupSnapshot(from, to)
	if tmDeriveBuckets.Value() != buckets0 || tmDeriveNs.Summary().Count != calls0 {
		t.Fatal("a rollup read counted a derivation")
	}
	if got := c.PathSum("web", from, to); got != 3 {
		t.Fatalf("PathSum = %d, want 3", got)
	}
	if b, n := tmDeriveBuckets.Value()-buckets0, tmDeriveNs.Summary().Count-calls0; b != 3 || n != 1 {
		t.Fatalf("first read after the writes: %d buckets derived in %d timed queries, want 3 in 1", b, n)
	}
	c.TopK("web", 3, from, to)
	if b, n := tmDeriveBuckets.Value()-buckets0, tmDeriveNs.Summary().Count-calls0; b != 3 || n != 1 {
		t.Fatalf("second read: counters moved to %d buckets, %d queries", b, n)
	}
}

// TestReadsHonourRetentionHorizon: writes behind maxMinute − Retention are
// dropped, so a read there must be empty too, whether or not the slot has
// been recycled — and the same after a reopen, from a snapshot (whose load
// has always applied the horizon) or from the WAL alone (whose replay
// refills the unrecycled slot).
func TestReadsHonourRetentionHorizon(t *testing.T) {
	at := func(minute int64) time.Time { return time.Unix(minute*60, 0) }
	check := func(t *testing.T, c *Counter, when string) {
		t.Helper()
		if got := c.PathSum("web", at(1000), at(1001)); got != 0 {
			t.Errorf("%s: PathSum over minute 1000 = %d, want 0 (behind the horizon)", when, got)
		}
		if got := c.Series("web", at(1000), at(1010)); !reflect.DeepEqual(got, make([]int64, 10)) {
			t.Errorf("%s: Series from minute 1000 = %v, want zeros", when, got)
		}
		if got := c.Series("web", at(1010), at(1016)); !reflect.DeepEqual(got, []int64{0, 0, 0, 0, 0, 1}) {
			t.Errorf("%s: Series from minute 1010 = %v, want minute 1015 alone", when, got)
		}
		if got := c.RollupTotal(0, tweetImpression, at(1), at(2000)); got != 1 {
			t.Errorf("%s: RollupTotal over everything = %d, want 1", when, got)
		}
		if st := c.Stats(); st.Observed != 2 || st.DroppedOld != 1 {
			t.Errorf("%s: stats %+v, want Observed 2, DroppedOld 1", when, st)
		}
	}
	for _, snapshot := range []bool{true, false} {
		t.Run(map[bool]string{true: "snapshot", false: "wal-only"}[snapshot], func(t *testing.T) {
			dir := t.TempDir()
			cfg := durCfg(1)
			cfg.Retention = 10 * time.Minute
			c, err := Open(dir, cfg)
			if err != nil {
				t.Fatal(err)
			}
			one := func(minute int64) {
				c.Ingest(ev(tweetImpression, at(minute), 1, "us"))
				c.Sync()
			}
			one(1000)
			if got := c.PathSum("web", at(1000), at(1001)); got != 1 {
				t.Errorf("PathSum over minute 1000 = %d before the horizon moved, want 1", got)
			}
			one(1015) // slot 5; minute 1000 stays unrecycled in slot 0
			one(1001) // behind the horizon (1005): dropped
			check(t, c, "live")
			if snapshot {
				if err := c.Snapshot(); err != nil {
					t.Fatal(err)
				}
			}
			c.Crash()
			r, err := Open(dir, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			check(t, r, "reopened")
		})
	}
}

// TestIndexedProbeMatchesRingWalk: every window is clamped to the live
// minutes, [horizon, newest], and their slots probed by minute; a window
// wider than the ring, one clamped to it and one inside it must count the
// live buckets a walk of the whole ring would, wrapped slots included.
func TestIndexedProbeMatchesRingWalk(t *testing.T) {
	c := newCounter(t, Config{Shards: 2, Retention: 8 * time.Minute})
	m0 := t0.Unix() / 60
	at := func(minute int64) time.Time { return time.Unix(minute*60, 0) }
	for m := m0; m < m0+13; m++ { // wraps the 8-slot ring; 5 minutes evicted
		for i := int64(0); i <= m-m0; i++ {
			c.Ingest(ev(tweetImpression, at(m), 1, "us"))
		}
	}
	c.Sync()
	var live int64 // minutes m0+5 .. m0+12 hold 6 .. 13 events
	for n := int64(6); n <= 13; n++ {
		live += n
	}
	for _, w := range []struct {
		from, to int64
		want     int64
	}{
		{m0 - 100, m0 + 100, live}, // wider than the ring: clamped at both ends
		{m0 + 5, m0 + 13, live},    // exactly the live minutes
		{m0, m0 + 12, live - 13},   // horizon-clamped to 7 minutes
		{m0 + 7, m0 + 9, 8 + 9},    // probed across the slot wrap
		{m0 + 12, m0 + 13, 13},
		{m0 + 4, m0 + 5, 0}, // behind the horizon
	} {
		if got := c.PathSum("web", at(w.from), at(w.to)); got != w.want {
			t.Errorf("PathSum over [m0%+d, m0%+d) = %d, want %d", w.from-m0, w.to-m0, got, w.want)
		}
		if got := c.RollupTotal(0, tweetImpression, at(w.from), at(w.to)); got != w.want {
			t.Errorf("RollupTotal over [m0%+d, m0%+d) = %d, want %d", w.from-m0, w.to-m0, got, w.want)
		}
	}
}

// hourBatches digests the workload generator's fixed-seed day, every
// timestamp folded into the day's first hour with order kept, into
// MaxBatch-sized batches for a one-shard counter — what its drain
// goroutine is handed, without the tap, the queue or a WAL in front.
func hourBatches(tb testing.TB, c *Counter, users int) (batches [][]Observation, n int) {
	tb.Helper()
	cfg := workload.DefaultConfig(day)
	cfg.Users = users
	evs, _ := workload.New(cfg).Generate()
	var batch []Observation
	for i := range evs {
		evs[i].Timestamp = day.UnixMilli() + (evs[i].Timestamp-day.UnixMilli())/24
		o, ok := c.observe(&evs[i])
		if !ok {
			tb.Fatalf("generated event %d (%s) refused", i, evs[i].Name)
		}
		if batch = append(batch, o); len(batch) == c.cfg.MaxBatch {
			batches, batch = append(batches, batch), nil
		}
	}
	if len(batch) > 0 {
		batches = append(batches, batch)
	}
	return batches, len(evs)
}

// BenchmarkApplyBatch is the drain goroutine's share of ingest alone: one
// generated hour applied to a memory-only counter per iteration, 512
// pre-digested events per shard-lock acquisition.
func BenchmarkApplyBatch(b *testing.B) {
	c := New(Config{Shards: 1})
	defer c.Close()
	batches, n := hourBatches(b, c, 300)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, batch := range batches {
			c.apply(c.shards[0], batch)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/event")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N*n), "allocs/event")
}

// generatedDay is a counter holding the workload generator's default day,
// read once over the day so that its minutes and hours are clean.
func generatedDay(tb testing.TB) *Counter {
	c := New(Config{})
	tb.Cleanup(c.Close)
	evs, _ := workload.New(workload.DefaultConfig(day)).Generate()
	batcher := c.NewBatcher()
	for i := range evs {
		batcher.Add(&evs[i])
	}
	batcher.Flush()
	c.Sync()
	if c.PathSum("web", day, day.Add(24*time.Hour)) == 0 {
		tb.Fatal("the generated day reads empty")
	}
	return c
}

// BenchmarkDayWindowRead is a dashboard's day-window reads over a clean
// generated day: a root TopK, a client's TopK and a day PathSum per
// iteration, each reading one hour row per path and shard.
func BenchmarkDayWindowRead(b *testing.B) {
	c := generatedDay(b)
	from, to := day, day.Add(24*time.Hour)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.TopK("", 5, from, to)
		c.TopK("web", 5, from, to)
		c.PathSum("web", from, to)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(3*b.N), "ns/read")
}

// BenchmarkDashboardRefresh is the query mix of the benchmark's dashboard
// refresh over a clean generated day: a path's PathSum over an hour and
// over the day, TopK of the root and of each of the five clients over the
// day, and the path's Series over the hour. It reports the refresh's ns
// and allocations, and the bytes of the hour rows it reads
// (len(hourSum) × 8 over the shards).
func BenchmarkDashboardRefresh(b *testing.B) {
	c := generatedDay(b)
	from, to := day, day.Add(24*time.Hour)
	hourFrom, hourTo := day.Add(14*time.Hour), day.Add(15*time.Hour)
	parents := []string{""}
	for _, pc := range c.TopK("", 5, from, to) {
		parents = append(parents, pc.Path)
	}
	if len(parents) != 6 {
		b.Fatalf("the generated day has clients %v, want five", parents[1:])
	}
	const path = "web:home"
	refresh := func() {
		c.PathSum(path, hourFrom, hourTo)
		c.PathSum(path, from, to)
		for _, p := range parents {
			c.TopK(p, 5, from, to)
		}
		c.Series(path, hourFrom, hourTo)
	}
	refresh()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		refresh()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	var rowBytes int
	for _, s := range c.shards {
		rowBytes += 8 * len(s.hourSum)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/refresh")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N), "allocs/refresh")
	b.ReportMetric(float64(rowBytes), "hour-row-bytes")
}

// TestApplySteadyStateAllocationFree: with its buckets made and its leaves
// present, applying a batch is one map increment per event and nothing
// else — the work that used to sit under the shard lock went to the read
// side, and an edit that allocates here has started putting it back.
func TestApplySteadyStateAllocationFree(t *testing.T) {
	c := newCounter(t, Config{Shards: 1})
	batches, n := hourBatches(t, c, 60)
	apply := func() {
		for _, batch := range batches {
			c.apply(c.shards[0], batch)
		}
	}
	apply()
	if avg := testing.AllocsPerRun(5, apply); avg != 0 {
		t.Fatalf("re-applying %d events to existing buckets allocated %.0f objects, want 0", n, avg)
	}
	if got := c.Stats().Observed; got != int64(7*n) {
		t.Fatalf("Observed = %d, want %d", got, 7*n)
	}
}
