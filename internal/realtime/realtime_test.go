package realtime

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"unilog/internal/analytics"
	"unilog/internal/events"
	"unilog/internal/geo"
	"unilog/internal/scribe"
)

var t0 = time.Date(2012, 8, 21, 14, 0, 0, 0, time.UTC)

func ev(name string, at time.Time, user int64, country string) *events.ClientEvent {
	return &events.ClientEvent{
		Initiator: events.InitiatorClientUser,
		Name:      events.MustParseName(name),
		UserID:    user,
		SessionID: "sess",
		IP:        geo.IPFor(country, user),
		Timestamp: at.UnixMilli(),
	}
}

func newCounter(t *testing.T, cfg Config) *Counter {
	t.Helper()
	c := New(cfg)
	t.Cleanup(c.Close)
	return c
}

func TestHierarchicalCounting(t *testing.T) {
	c := newCounter(t, Config{Shards: 4})
	b := c.NewBatcher()
	for i := 0; i < 10; i++ {
		b.Add(ev("web:home:mentions:stream:avatar:profile_click", t0, 1, "us"))
	}
	for i := 0; i < 7; i++ {
		b.Add(ev("web:home:timeline:stream:tweet:impression", t0.Add(time.Minute), 0, "jp"))
	}
	for i := 0; i < 3; i++ {
		b.Add(ev("iphone:home:timeline:stream:tweet:impression", t0, 2, "us"))
	}
	b.Flush()
	c.Sync()

	day := t0.Truncate(24 * time.Hour)
	end := day.Add(24 * time.Hour)
	// Every prefix of a name counts the events below it.
	for path, want := range map[string]int64{
		"web":                             17,
		"web:home":                        17,
		"web:home:mentions":               10,
		"web:home:mentions:stream":        10,
		"web:home:mentions:stream:avatar": 10,
		"web:home:mentions:stream:avatar:profile_click": 10,
		"web:home:timeline:stream:tweet:impression":     7,
		"iphone": 3,
		"iphone:home:timeline:stream:tweet:impression": 3,
		"android": 0,
		"web:home:timeline:stream:avatar:profile_click": 0,
	} {
		if got := c.PathSum(path, day, end); got != want {
			t.Errorf("PathSum(%q) = %d, want %d", path, got, want)
		}
	}
	if got := c.Stats().Observed; got != 20 {
		t.Errorf("Observed = %d, want 20", got)
	}
}

func TestWindowing(t *testing.T) {
	c := newCounter(t, Config{Shards: 2})
	b := c.NewBatcher()
	// 5 events at t0, 3 at t0+1m, 2 at t0+5m.
	for i := 0; i < 5; i++ {
		b.Add(ev("web:home:timeline:stream:tweet:impression", t0.Add(10*time.Second), 1, "us"))
	}
	for i := 0; i < 3; i++ {
		b.Add(ev("web:home:timeline:stream:tweet:impression", t0.Add(time.Minute), 1, "us"))
	}
	for i := 0; i < 2; i++ {
		b.Add(ev("web:home:timeline:stream:tweet:impression", t0.Add(5*time.Minute+30*time.Second), 1, "us"))
	}
	b.Flush()
	c.Sync()

	cases := []struct {
		from, to time.Time
		want     int64
	}{
		{t0, t0.Add(time.Minute), 5},     // first minute only
		{t0, t0.Add(2 * time.Minute), 8}, // first two minutes
		{t0.Add(time.Minute), t0.Add(2 * time.Minute), 3},
		{t0, t0.Add(6 * time.Minute), 10}, // whole window
		{t0.Add(2 * time.Minute), t0.Add(5 * time.Minute), 0},
		{t0, t0.Add(5*time.Minute + 30*time.Second), 10}, // mid-minute end widens to the bucket
	}
	for _, tc := range cases {
		if got := c.PathSum("web", tc.from, tc.to); got != tc.want {
			t.Errorf("PathSum(web, %v, %v) = %d, want %d", tc.from, tc.to, got, tc.want)
		}
	}

	series := c.Series("web", t0, t0.Add(6*time.Minute))
	want := []int64{5, 3, 0, 0, 0, 2}
	if len(series) != len(want) {
		t.Fatalf("Series length = %d, want %d", len(series), len(want))
	}
	for i := range want {
		if series[i] != want[i] {
			t.Errorf("Series[%d] = %d, want %d", i, series[i], want[i])
		}
	}
}

func TestTopK(t *testing.T) {
	c := newCounter(t, Config{Shards: 4})
	b := c.NewBatcher()
	add := func(name string, n int) {
		for i := 0; i < n; i++ {
			b.Add(ev(name, t0, 1, "us"))
		}
	}
	add("web:home:timeline:stream:tweet:impression", 50)
	add("web:home:mentions:stream:tweet:impression", 30)
	add("web:search:results:stream:tweet:impression", 20)
	add("iphone:home:timeline:stream:tweet:impression", 40)
	add("android:home:timeline:stream:tweet:impression", 40)
	b.Flush()
	c.Sync()

	from, to := t0, t0.Add(time.Minute)
	top := c.TopK("", 2, from, to)
	if len(top) != 2 || top[0].Path != "web" || top[0].Count != 100 {
		t.Fatalf("TopK(\"\") = %v", top)
	}
	// android and iphone tie at 40; the tie breaks alphabetically.
	if top[1].Path != "android" || top[1].Count != 40 {
		t.Errorf("TopK(\"\")[1] = %v, want android/40", top[1])
	}

	pages := c.TopK("web", 10, from, to)
	if len(pages) != 2 {
		t.Fatalf("TopK(web) = %v", pages)
	}
	if pages[0].Path != "web:home" || pages[0].Count != 80 ||
		pages[1].Path != "web:search" || pages[1].Count != 20 {
		t.Errorf("TopK(web) = %v", pages)
	}
	if got := c.TopK("ipad", 3, from, to); len(got) != 0 {
		t.Errorf("TopK(ipad) = %v, want empty", got)
	}

	// RankChildren breaks every tie by path, whatever order the children
	// come in, and compares paths only between equal counts.
	var ids []uint32
	for _, p := range []string{"web", "iphone", "android"} {
		id, _ := events.PathID(p)
		ids = append(ids, id)
	}
	for _, tc := range []struct {
		counts []int64
		want   []PathCount
	}{
		{[]int64{40, 40, 40}, []PathCount{{"android", 40}, {"iphone", 40}, {"web", 40}}},
		{[]int64{40, 40, 100}, []PathCount{{"android", 100}, {"iphone", 40}, {"web", 40}}},
		{[]int64{7, 40, 40}, []PathCount{{"android", 40}, {"iphone", 40}, {"web", 7}}},
	} {
		if got := RankChildren(ids, tc.counts, 3); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("RankChildren(web, iphone, android: %v) = %v, want %v", tc.counts, got, tc.want)
		}
	}
}

// A parent with more children than a bucket has cells: each action lands in
// its own minute, so every bucket holds six cells against forty children and
// TopK walks the bucket instead of probing it. Both ways must rank alike;
// TopK("") over the same window probes.
func TestTopKManyChildren(t *testing.T) {
	c := newCounter(t, Config{Shards: 2})
	b := c.NewBatcher()
	const children = 40
	for i := 0; i < children; i++ {
		name := fmt.Sprintf("web:home:timeline:stream:tweet:action%02d", i)
		for j := 0; j <= i; j++ {
			b.Add(ev(name, t0.Add(time.Duration(i)*time.Minute), 1, "us"))
		}
	}
	b.Flush()
	c.Sync()

	from, to := t0, t0.Add(children*time.Minute)
	top := c.TopK("web:home:timeline:stream:tweet", 3, from, to)
	want := []PathCount{
		{Path: "web:home:timeline:stream:tweet:action39", Count: 40},
		{Path: "web:home:timeline:stream:tweet:action38", Count: 39},
		{Path: "web:home:timeline:stream:tweet:action37", Count: 38},
	}
	if !reflect.DeepEqual(top, want) {
		t.Errorf("TopK(tweet, 3) = %v, want %v", top, want)
	}
	// A window that ends early leaves the later children out altogether.
	if all := c.TopK("web:home:timeline:stream:tweet", children, from, t0.Add(10*time.Minute)); len(all) != 10 {
		t.Errorf("TopK(tweet) over ten minutes has %d children, want 10: %v", len(all), all)
	}
	if roots := c.TopK("", 5, from, to); len(roots) != 1 || roots[0] != (PathCount{Path: "web", Count: children * (children + 1) / 2}) {
		t.Errorf("TopK(\"\") = %v", roots)
	}
}

func TestRollupRows(t *testing.T) {
	c := newCounter(t, Config{Shards: 4})
	b := c.NewBatcher()
	b.Add(ev("web:home:mentions:stream:avatar:profile_click", t0, 7, "us"))
	b.Add(ev("web:home:mentions:stream:avatar:profile_click", t0, 0, "jp"))
	b.Flush()
	c.Sync()

	from, to := t0, t0.Add(time.Minute)
	snap := c.RollupSnapshot(from, to)
	// 2 events x 5 levels, split across two (country, logged-in) cells.
	if len(snap) != 2*events.NumRollupLevels {
		t.Fatalf("snapshot has %d rows, want %d", len(snap), 2*events.NumRollupLevels)
	}
	k := analytics.RollupKey{
		Level:    2,
		Name:     "web:home:mentions:*:*:profile_click",
		Country:  "us",
		LoggedIn: true,
	}
	if snap[k] != 1 {
		t.Errorf("snapshot[%+v] = %d, want 1", k, snap[k])
	}
	if got := c.RollupTotal(4, "web:*:*:*:*:profile_click", from, to); got != 2 {
		t.Errorf("RollupTotal = %d, want 2", got)
	}
	if got := analytics.RollupTotal(snap, 4, "web:*:*:*:*:profile_click"); got != 2 {
		t.Errorf("analytics.RollupTotal over snapshot = %d, want 2", got)
	}
}

func TestTapBatchDecodesClientEvents(t *testing.T) {
	c := newCounter(t, Config{Shards: 2})
	e := ev("web:home:timeline:stream:tweet:impression", t0, 1, "us")
	c.TapBatch([]scribe.Entry{
		{Category: events.Category, Message: e.Marshal()},
		{Category: "other_category", Message: []byte("not a client event")},
		{Category: events.Category, Message: []byte("corrupt")},
	})
	c.Sync()
	st := c.Stats()
	if st.TapEntries != 2 {
		t.Errorf("TapEntries = %d, want 2", st.TapEntries)
	}
	if st.DecodeErrors != 1 {
		t.Errorf("DecodeErrors = %d, want 1", st.DecodeErrors)
	}
	if st.Observed != 1 {
		t.Errorf("Observed = %d, want 1", st.Observed)
	}
	if got := c.PathSum("web", t0, t0.Add(time.Minute)); got != 1 {
		t.Errorf("PathSum(web) = %d, want 1", got)
	}
}

func TestRetentionDropsAndEvicts(t *testing.T) {
	c := newCounter(t, Config{Shards: 1, Retention: 5 * time.Minute})
	one := func(at time.Time) {
		c.Ingest(ev("web:home:timeline:stream:tweet:impression", at, 1, "us"))
	}
	one(t0)
	c.Sync()
	// t0+10m lands on a slot five minutes ahead of t0+5m's; the wrap evicts
	// the t0 bucket.
	one(t0.Add(10 * time.Minute))
	c.Sync()
	if got := c.PathSum("web", t0, t0.Add(time.Minute)); got != 0 {
		t.Errorf("evicted bucket still readable: PathSum = %d", got)
	}
	if got := c.Stats().Evicted; got != 1 {
		t.Errorf("Evicted = %d, want 1", got)
	}
	// An observation older than the newest retained minute's window drops.
	one(t0)
	c.Sync()
	if got := c.Stats().DroppedOld; got != 1 {
		t.Errorf("DroppedOld = %d, want 1", got)
	}
	// A straggler behind the horizon drops even when its ring slot is
	// free — old windows read uniformly empty, never partially evicted.
	one(t0.Add(4 * time.Minute))
	c.Sync()
	if got := c.Stats().DroppedOld; got != 2 {
		t.Errorf("DroppedOld = %d, want 2", got)
	}
	if got := c.PathSum("web", t0.Add(4*time.Minute), t0.Add(5*time.Minute)); got != 0 {
		t.Errorf("behind-horizon minute = %d, want 0", got)
	}
	if got := c.PathSum("web", t0.Add(10*time.Minute), t0.Add(11*time.Minute)); got != 1 {
		t.Errorf("current bucket = %d, want 1", got)
	}
}

func TestInvalidNameSkipped(t *testing.T) {
	c := newCounter(t, Config{Shards: 1})
	bad := &events.ClientEvent{Timestamp: t0.UnixMilli(), IP: "10.0.0.1"} // empty name
	c.Ingest(bad)
	c.Sync()
	st := c.Stats()
	if st.Invalid != 1 || st.Observed != 0 {
		t.Errorf("stats = %+v, want Invalid 1, Observed 0", st)
	}
}

func TestCloseIsIdempotentAndStopsIngest(t *testing.T) {
	c := New(Config{Shards: 2})
	c.Ingest(ev("web:home:timeline:stream:tweet:impression", t0, 1, "us"))
	c.Sync()
	c.Close()
	c.Close()
	// Post-close ingestion is a no-op, and queries still serve.
	c.Ingest(ev("web:home:timeline:stream:tweet:impression", t0, 1, "us"))
	c.Sync()
	if got := c.PathSum("web", t0, t0.Add(time.Minute)); got != 1 {
		t.Errorf("PathSum after Close = %d, want 1", got)
	}
}

// TestSetApplyDelayOpensAndCloses: a delay set on a running counter makes
// its drain sleep before every batch it applies (each Ingest is one batch),
// and setting it back to 0 stops the sleeping.
func TestSetApplyDelayOpensAndCloses(t *testing.T) {
	const delay, n = 50 * time.Millisecond, 4
	c := New(Config{Shards: 1})
	defer c.Close()
	ingest := func() time.Duration {
		start := time.Now()
		for i := 0; i < n; i++ {
			c.Ingest(ev("web:home:timeline:stream:tweet:impression", t0, 1, "us"))
		}
		c.Sync()
		return time.Since(start)
	}
	c.SetApplyDelay(delay)
	if took := ingest(); took < n*delay {
		t.Fatalf("%d batches with a %v delay drained in %v", n, delay, took)
	}
	c.SetApplyDelay(0)
	if took := ingest(); took >= n*delay {
		t.Fatalf("%d batches with the delay off drained in %v, as slow as with it on", n, took)
	}
	if got := c.PathSum("web", t0, t0.Add(time.Minute)); got != 2*n {
		t.Fatalf("PathSum = %d, want %d", got, 2*n)
	}
}

// TestBatcherSteadyStateAllocationFree pins the hot-path contract the
// name table and batch pool buy: once the names in play are interned and a
// recycled batch buffer is in hand, Add performs no allocations at all —
// digest is a read-locked lookup, the Observation appends into pooled
// capacity.
func TestBatcherSteadyStateAllocationFree(t *testing.T) {
	c := newCounter(t, Config{Shards: 1, MaxBatch: 1 << 16})
	b := c.NewBatcher()
	es := []*events.ClientEvent{
		ev("web:home:mentions:stream:avatar:profile_click", t0, 1, "us"),
		ev("web:home:timeline:stream:tweet:impression", t0.Add(time.Minute), 0, "jp"),
		ev("iphone:home:timeline:stream:tweet:impression", t0, 2, "uk"),
		ev("android:profile:header:card:follow:click", t0.Add(2*time.Minute), 3, "br"),
	}
	// Warm up: intern every name, then hand the batch to the
	// drain and take a recycled buffer back out of the pool.
	for i := 0; i < 64; i++ {
		b.Add(es[i%len(es)])
	}
	b.Flush()
	c.Sync()
	b.Add(es[0]) // pulls the buffer before the measured loop

	i := 0
	avg := testing.AllocsPerRun(2000, func() {
		b.Add(es[i%len(es)])
		i++
	})
	if avg > 0.01 {
		t.Fatalf("steady-state Add = %.4f allocs/op, want 0", avg)
	}
	b.Flush()
	c.Sync()
	if got := c.Stats().Observed; got != 64+1+2001 {
		t.Fatalf("Observed = %d, want %d", got, 64+1+2001)
	}
}

// A timestamp arrives from outside: one before Unix minute 1 (negative, or
// inside the minute the ring uses as its empty-slot value) must be
// rejected at the door, not index the ring.
func TestPreEpochTimestampIsInvalid(t *testing.T) {
	c := newCounter(t, Config{Shards: 1})
	const name = "web:home:timeline:stream:tweet:impression"
	at := func(ms int64) *events.ClientEvent {
		e := ev(name, t0, 1, "us")
		e.Timestamp = ms
		return e
	}
	c.Ingest(at(-300_000))
	c.TapBatch([]scribe.Entry{
		{Category: events.Category, Message: at(0).Marshal()},
		{Category: events.Category, Message: at(59_999).Marshal()},
		{Category: events.Category, Message: at(60_000).Marshal()},
	})
	c.Sync()
	if got := c.PathSum("web", time.Unix(0, 0), time.Unix(120, 0)); got != 1 {
		t.Errorf("PathSum(web) = %d, want 1 (Unix minute 1)", got)
	}
	// t0 moves the retention horizon decades past minute 1, which from
	// then on reads empty like any minute behind it.
	c.Ingest(ev(name, t0, 1, "us"))
	c.Sync()
	if st := c.Stats(); st.Invalid != 3 || st.Observed != 2 {
		t.Errorf("stats = %+v, want Invalid 3, Observed 2", st)
	}
	if got := c.PathSum("web", time.Unix(0, 0), t0.Add(time.Minute)); got != 1 {
		t.Errorf("PathSum(web) = %d, want 1 (t0 alone)", got)
	}
}
