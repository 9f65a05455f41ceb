package realtime

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"unilog/internal/events"
)

// hourRun drives refGen through stretches whose minutes follow a moving
// head, so that over a run the retention horizon passes whole hours, minute
// slots and hour cells are recycled, and every stretch writes late into
// hours a previous battery has already read whole.
type hourRun struct {
	t       *testing.T
	rng     *rand.Rand
	g       *refGen
	buckets int64
	head    int64 // newest minute any stretch may write
	first   int64 // the first stretch's oldest minute
	cuts    int   // windows checked whose start the horizon cut mid-hour
}

func newHourRun(t *testing.T, seed int64, retention time.Duration) *hourRun {
	rng := rand.New(rand.NewSource(seed))
	r := &hourRun{t: t, rng: rng, g: newRefGen(rng, 1), buckets: int64(retention / time.Minute)}
	r.head = r.g.ref.m0 + r.buckets - 1
	r.first = r.g.ref.m0
	return r
}

// stretch moves the head on by advance minutes and feeds n events drawn
// from the minutes the ring can still hold whatever order the shards apply
// them in — [head−buckets+1, head] — so the reference needs no model of
// drops. A few events behind the horizon go to the counters alone: they
// must be dropped and must never show.
func (r *hourRun) stretch(advance int64, n int, cs ...*Counter) {
	r.head += advance
	r.g.ref.m0 = r.head - r.buckets + 1
	r.g.ref.minutes = int(r.buckets)
	r.g.feed(n, cs...)
	for _, c := range cs {
		late := c.maxMinute.Load() - r.buckets - r.rng.Int63n(90)
		c.Ingest(ev(tweetImpression, time.Unix(late*60, 0), 1, "us"))
		c.Sync()
	}
}

// window draws one [a, z) in minutes around the live range: hour-aligned,
// unaligned, a calendar day, one day long anywhere, wider than retention,
// or starting behind the horizon so that it cuts the window's first hour.
func (r *hourRun) window(newest int64) (a, z int64) {
	lo := newest - r.buckets + 1
	span := r.buckets + 120
	switch r.rng.Intn(6) {
	case 0:
		a = lo - 60 + r.rng.Int63n(span)
		a -= a % 60
		z = a + 60*(1+r.rng.Int63n(4))
	case 1:
		a = lo - 60 + r.rng.Int63n(span)
		z = a + 1 + r.rng.Int63n(300)
	case 2:
		a = newest - newest%1440
		z = a + 1440
	case 3:
		a = lo - 60 + r.rng.Int63n(span)
		z = a + 1440
	case 4:
		a, z = lo-1-r.rng.Int63n(200), newest+1+r.rng.Int63n(200)
	default:
		a, z = lo-r.rng.Int63n(30), newest-r.rng.Int63n(min(r.buckets, 30))
	}
	return a, z
}

// check asks PathSum and TopK over random windows of every kind and fails
// on any answer the reference, clamped to [horizon, newest], disagrees
// with.
func (r *hourRun) check(c *Counter, when string) {
	t, ref := r.t, r.g.ref
	t.Helper()
	newest := c.maxMinute.Load()
	if newest > r.head || newest < r.head-r.buckets+1 {
		t.Fatalf("%s: newest minute %d outside the stretch [%d, %d]", when, newest, r.head-r.buckets+1, r.head)
	}
	horizon := newest - r.buckets + 1
	paths := make([]string, 0, len(ref.minute))
	for p := range ref.minute {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	parents := []string{""}
	for _, p := range paths {
		if strings.Count(p, ":") < 3 {
			parents = append(parents, p)
		}
	}
	at := func(m int64) time.Time { return time.Unix(m*60, 0) }
	for trial := 0; trial < 120; trial++ {
		a, z := r.window(newest)
		lo, hi := max(a, horizon), min(z, newest+1)
		if a < horizon && horizon < z && horizon%60 != 0 {
			r.cuts++
		}
		path := paths[r.rng.Intn(len(paths))]
		var want int64
		if lo < hi {
			want = ref.sum(path, lo, hi)
		}
		if got := c.PathSum(path, at(a), at(z)); got != want {
			t.Fatalf("%s: PathSum(%q, [%d, %d) from the horizon %d) = %d, want %d", when, path, a-horizon, z-horizon, horizon, got, want)
		}
		if trial%3 != 0 {
			continue
		}
		parent := parents[r.rng.Intn(len(parents))]
		k := 1 + r.rng.Intn(5)
		if got, want := c.TopK(parent, k, at(a), at(z)), refTopK(ref, parent, k, lo, hi); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: TopK(%q, %d, [%d, %d) from the horizon %d) = %v, want %v", when, parent, k, a-horizon, z-horizon, horizon, got, want)
		}
	}
}

// refTopK ranks parent's children over [lo, hi) minutes the way TopK does:
// nonzero counts, descending, ties by path.
func refTopK(ref *refModel, parent string, k int, lo, hi int64) []PathCount {
	depth := 0
	if parent != "" {
		depth = strings.Count(parent, ":") + 1
	}
	var want []PathCount
	for p := range ref.minute {
		if strings.Count(p, ":") != depth || parent != "" && !strings.HasPrefix(p, parent+":") {
			continue
		}
		if n := ref.sum(p, lo, hi); n != 0 {
			want = append(want, PathCount{Path: p, Count: n})
		}
	}
	sort.Slice(want, func(i, j int) bool {
		if want[i].Count != want[j].Count {
			return want[i].Count > want[j].Count
		}
		return want[i].Path < want[j].Path
	})
	if len(want) > k {
		want = want[:k]
	}
	return want
}

// advance draws how far the head moves before a stretch: not at all, a few
// minutes, a few hours, or past the whole ring.
func (r *hourRun) advance() int64 {
	switch r.rng.Intn(4) {
	case 0:
		return 0
	case 1:
		return r.rng.Int63n(40)
	case 2:
		return 60 + r.rng.Int63n(300)
	default:
		return r.buckets + r.rng.Int63n(r.buckets+60)
	}
}

// covered fails unless the run recycled minute slots and hour cells and
// checked windows the horizon cut mid-hour.
func (r *hourRun) covered(c *Counter) {
	t := r.t
	t.Helper()
	if c.Stats().Evicted == 0 {
		t.Error("no minute slot was recycled")
	}
	if hours := (r.head-r.first)/60 + 1; hours <= int64(len(c.shards[0].hours)) {
		t.Errorf("the run spans %d hours, no more than the %d hour cells", hours, len(c.shards[0].hours))
	}
	if r.cuts == 0 {
		t.Error("no checked window started at a horizon inside an hour")
	}
}

var hourRetentions = []time.Duration{2 * time.Minute, 90 * time.Minute, 26 * time.Hour}

// TestHourCellsMatchReference: PathSum and TopK, which read whole hours from
// hour cells and only the edge minutes from the ring, answer every kind of
// window exactly as the string-keyed reference does, through late writes
// into hours already read whole, slot and cell recycling, and a horizon
// that cuts an hour in two.
func TestHourCellsMatchReference(t *testing.T) {
	for i, retention := range hourRetentions {
		t.Run(retention.String(), func(t *testing.T) {
			r := newHourRun(t, 20120824+int64(i), retention)
			c := newCounter(t, Config{Shards: 3, Retention: retention, MaxBatch: 64})
			for s := 0; s < 10; s++ {
				adv := r.advance()
				if s == 0 {
					adv = 0
				}
				r.stretch(adv, 300+r.rng.Intn(400), c)
				r.check(c, "live")
			}
			if dropped := c.Stats().DroppedOld; dropped != 10 {
				t.Errorf("DroppedOld = %d, want the 10 writes behind the horizon", dropped)
			}
			r.covered(c)
		})
	}
}

// TestSumPathsAcrossCellWrap: a 90-minute retention gives each shard three
// hour cells and a 90-slot ring, and t0's Unix hour is the last cell, so a
// window of t0's hour and the next reads a run of every row that wraps from
// the last cell to the first, and later reads walk past the ring's last
// slot. PathSum, TopK and Series over such windows answer as the per-minute
// reference does, and so do reads of a path whose ID lies above every row
// its shard has made, and of events.NoParent, which no counter counts.
func TestSumPathsAcrossCellWrap(t *testing.T) {
	const retention = 90 * time.Minute
	r := newHourRun(t, 20120826, retention)
	c := newCounter(t, Config{Shards: 3, Retention: retention, MaxBatch: 64})
	h0 := r.first / 60 // the first stretch writes minutes [h0*60, h0*60+90)
	if nh := int64(len(c.shards[0].hours)); nh != 3 || h0%nh != nh-1 {
		t.Fatalf("t0's hour %d lands in cell %d of %d, want the last of 3", h0, h0%nh, nh)
	}
	at := func(m int64) time.Time { return time.Unix(m*60, 0) }
	r.stretch(0, 600, c)
	newest := c.maxMinute.Load()
	horizon := newest - r.buckets + 1
	check := func(a, z int64) {
		t.Helper()
		lo, hi := max(a, horizon), min(z, newest+1)
		for _, path := range []string{"web", "iphone:home", "android:search:mentions"} {
			if got, want := c.PathSum(path, at(a), at(z)), r.g.ref.sum(path, lo, hi); got != want {
				t.Errorf("PathSum(%q, [%d, %d) from h0) = %d, want %d", path, a-h0*60, z-h0*60, got, want)
			}
		}
		for _, parent := range []string{"", "web", "iphone:home"} {
			if got, want := c.TopK(parent, 3, at(a), at(z)), refTopK(r.g.ref, parent, 3, lo, hi); !reflect.DeepEqual(got, want) {
				t.Errorf("TopK(%q, [%d, %d) from h0) = %v, want %v", parent, a-h0*60, z-h0*60, got, want)
			}
		}
	}
	for _, w := range [][2]int64{{0, 120}, {-60, 120}, {0, 180}, {-h0 * 60 % 1440, 1440 - h0*60%1440}} {
		check(h0*60+w[0], h0*60+w[1])
	}
	for i, s := range c.shards {
		if s.hours[2].minute != h0*60 || s.hours[0].minute != (h0+1)*60 {
			t.Fatalf("shard %d's cells hold hours from minutes %d and %d, want h0 in the last and h0+1 in the first", i, s.hours[2].minute, s.hours[0].minute)
		}
	}

	// A name new to the process, written into the open hour after its cell
	// was summed: its paths have the highest IDs and no row yet, so a window
	// of h0 whole and that hour's first minutes finds them past the row
	// index and counts them from the edge minutes alone.
	const fresh = "web:home:cellwrap:stream:tweet:impression"
	c.Ingest(ev(fresh, at(h0*60+65), 1, "us"))
	c.Sync()
	r.g.ref.addPaths(fresh, h0*60+65)
	entry, _ := events.Lookup(fresh)
	s := c.shards[c.shardOf(entry)]
	for _, id := range entry.Prefix[2:] {
		if int(id) < len(s.hourRow.slot) {
			t.Fatalf("path ID %d of %q lies inside its shard's row index (%d)", id, fresh, len(s.hourRow.slot))
		}
	}
	check(h0*60, h0*60+70)
	if got := c.PathSum("web:home:cellwrap", at(h0*60), at(h0*60+70)); got != 1 {
		t.Errorf("PathSum of the fresh name's section = %d, want 1", got)
	}
	check(h0*60, h0*60+120) // sums the open hour again: now the fresh paths have rows
	if got := c.PathSum("web:home:cellwrap", at(h0*60), at(h0*60+120)); got != 1 {
		t.Errorf("PathSum of the fresh name's section over both hours = %d, want 1", got)
	}

	// Ninety minutes on, ring slot 0 holds minute 150 from h0, half-way
	// through hour h0+2, so that hour's sum, the edge minutes of a window
	// across minute 150 and the Series across it walk past the ring's end.
	if (h0*60+150)%r.buckets != 0 {
		t.Fatalf("minute 150 from h0 is in ring slot %d, want 0", (h0*60+150)%r.buckets)
	}
	r.stretch(90, 600, c)
	newest = c.maxMinute.Load()
	horizon = newest - r.buckets + 1
	check(h0*60+120, h0*60+180)
	check(h0*60+140, h0*60+160)
	for _, path := range []string{"web", "iphone:home"} {
		a, z := h0*60+140, h0*60+160
		want := make([]int64, z-a)
		for m := max(a, horizon); m < min(z, newest+1); m++ {
			want[m-a] = r.g.ref.minute[path][m]
		}
		if got := c.Series(path, at(a), at(z)); !reflect.DeepEqual(got, want) {
			t.Errorf("Series(%q) across ring slot 0 = %v, want %v", path, got, want)
		}
	}

	if got := c.PathSum("web", time.Unix(-100000, 0), time.Unix(-7200, 0)); got != 0 {
		t.Errorf("PathSum over a pre-epoch window = %d, want 0", got)
	}
	web, _ := events.PathID("web")
	out := []int64{7, 0}
	c.SumPaths([]uint32{events.NoParent, web}, at(h0*60), at(h0*60+180), out)
	if want := r.g.ref.sum("web", horizon, newest+1); out[0] != 7 || out[1] != want {
		t.Errorf("SumPaths(NoParent, web) added %v, want [0 %d]", []int64{out[0] - 7, out[1]}, want)
	}
}

// TestHourCellsAfterReopen: cells are not persisted; a counter reopened from
// a snapshot plus WAL tail, or from the WAL alone, under another shard count,
// rebuilds them from what it loaded and answers like the reference, and
// again after late writes into the hours it has just read.
func TestHourCellsAfterReopen(t *testing.T) {
	for i, retention := range hourRetentions {
		for _, snapshot := range []bool{true, false} {
			name := retention.String() + map[bool]string{true: "/snapshot", false: "/wal-only"}[snapshot]
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				cfg := durCfg(3)
				cfg.Retention = retention
				cfg.MaxBatch = 64
				d, err := Open(dir, cfg)
				if err != nil {
					t.Fatal(err)
				}
				r := newHourRun(t, 20120825+int64(i), retention)
				for s := 0; s < 6; s++ {
					adv := r.advance()
					if s == 0 {
						adv = 0
					}
					r.stretch(adv, 200+r.rng.Intn(300), d)
					r.check(d, "live")
					if snapshot && s == 3 {
						if err := d.Snapshot(); err != nil {
							t.Fatal(err)
						}
					}
				}
				d.Crash()

				rcfg := durCfg(2)
				rcfg.Retention = retention
				c, err := Open(dir, rcfg)
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				r.check(c, "reopened")
				r.stretch(r.rng.Int63n(30), 300, c)
				r.check(c, "reopened, written again")
			})
		}
	}
}

// TestRecycledSlotMarksItsHour: a slot still stale from a minute that fell
// behind the horizon unread starts clean when a late write recycles it, so
// that write marks its own hour's cell — which a read had already summed
// without it — stale.
func TestRecycledSlotMarksItsHour(t *testing.T) {
	c := newCounter(t, Config{Shards: 1, Retention: 90 * time.Minute})
	base := t0.Unix() / 60
	at := func(m int64) time.Time { return time.Unix((base+m)*60, 0) }
	one := func(m int64) {
		c.Ingest(ev(tweetImpression, at(m), 1, "us"))
		c.Sync()
	}
	one(40)  // never read; slot 40 stays stale
	one(179) // the horizon moves to minute 90
	if got := c.PathSum("web", at(120), at(180)); got != 1 {
		t.Fatalf("PathSum over hour 2 = %d, want 1", got)
	}
	one(130) // slot 40 again, inside the hour just summed
	if got := c.PathSum("web", at(120), at(180)); got != 2 {
		t.Fatalf("PathSum over hour 2 after a late write = %d, want 2", got)
	}
}

// TestDayReadAllocations: on a clean generated day PathSum allocates
// nothing, and TopK its answer — the child counts and the ranking stay on
// the stack for a parent of up to 64 children, and only the kept children
// become PathCounts. The race detector's instrumentation adds one.
func TestDayReadAllocations(t *testing.T) {
	c := generatedDay(t)
	from, to := day, day.Add(24*time.Hour)
	for _, parent := range []string{"", "web", "iphone:home"} {
		if n := testing.AllocsPerRun(20, func() { c.TopK(parent, 5, from, to) }); n > 2 {
			t.Errorf("TopK(%q) allocates %.0f objects per call, want at most 2", parent, n)
		}
	}
	for _, w := range [][2]time.Time{{from, to}, {from.Add(14 * time.Hour), from.Add(15 * time.Hour)}, {from.Add(90 * time.Minute), to}} {
		if n := testing.AllocsPerRun(20, func() { c.PathSum("web:home", w[0], w[1]) }); n != 0 {
			t.Errorf("PathSum over [%v, %v) allocates %.0f objects per call, want 0", w[0], w[1], n)
		}
	}
}

// TestHourRowsGauge: the hour rows a day-window read makes show in
// realtime.hours.rows, one per path and shard: two names that differ only
// in their action, summed in two hours, hold seven.
func TestHourRowsGauge(t *testing.T) {
	c := newCounter(t, Config{Shards: 1})
	c.Ingest(ev(tweetImpression, t0.Add(-2*time.Hour), 1, "us"))
	c.Ingest(ev("web:home:timeline:stream:tweet:click", t0.Add(-time.Hour), 1, "us"))
	c.Ingest(ev(tweetImpression, t0, 1, "us")) // the newest minute: its hour is read from the ring
	c.Sync()
	midnight := t0.Truncate(24 * time.Hour)
	tmHourRows.Set(0)
	if got := c.PathSum("web", midnight, midnight.Add(24*time.Hour)); got != 3 {
		t.Fatalf("PathSum over the day = %d, want 3", got)
	}
	if got := tmHourRows.Value(); got != 7 {
		t.Fatalf("realtime.hours.rows = %d after a day read, want the 7 distinct paths", got)
	}
}
