package realtime

import (
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"unilog/internal/analytics"
	"unilog/internal/events"
	"unilog/internal/geo"
	"unilog/internal/workload"
)

// refModel is the brute-force, string-keyed reference the ID-keyed engine
// must reproduce bit-for-bit: per-path per-minute counts and the §3.2
// rollup table, whole and per minute, built exactly the way the
// pre-symbol-table engine counted (string prefixes, string rollup keys,
// eleven increments per event).
type refModel struct {
	minute   map[string]map[int64]int64 // path -> minute -> count
	rollup   map[analytics.RollupKey]int64
	rollupAt map[int64]map[analytics.RollupKey]int64 // minute -> its rollup rows
	names    map[string]bool
	events   int
	minutes  int
	m0       int64
}

// refGen streams one randomized workload, a stretch at a time, into
// counters and into the reference model beside them. Every stretch draws
// its minutes from the same window, so a read between two stretches finds
// buckets it has read before written again: clean → stale → clean.
type refGen struct {
	rng *rand.Rand
	ref *refModel
}

func newRefGen(rng *rand.Rand, minutes int) *refGen {
	return &refGen{rng: rng, ref: &refModel{
		minute:   map[string]map[int64]int64{},
		rollup:   map[analytics.RollupKey]int64{},
		rollupAt: map[int64]map[analytics.RollupKey]int64{},
		names:    map[string]bool{},
		minutes:  minutes,
		m0:       t0.Unix() / 60,
	}}
}

// feed streams n more events into every counter (one Batcher each) and the
// reference, and returns with them applied.
func (g *refGen) feed(n int, cs ...*Counter) {
	clients := []string{"web", "iphone", "android"}
	pages := []string{"home", "search", "profile"}
	sections := []string{"timeline", "mentions", ""}
	elements := []string{"tweet", "avatar", ""}
	actions := []string{"impression", "click", "open"}
	countries := []string{"us", "jp", "uk", "xx"} // xx resolves to unknown

	rng, ref := g.rng, g.ref
	batchers := make([]*Batcher, len(cs))
	for i, c := range cs {
		batchers[i] = c.NewBatcher()
	}
	for i := 0; i < n; i++ {
		name := events.EventName{
			Client:  clients[rng.Intn(len(clients))],
			Page:    pages[rng.Intn(len(pages))],
			Section: sections[rng.Intn(len(sections))],
			Element: elements[rng.Intn(len(elements))],
			Action:  actions[rng.Intn(len(actions))],
		}
		if rng.Intn(4) > 0 {
			name.Component = "stream"
		}
		minute := ref.m0 + rng.Int63n(int64(ref.minutes))
		country := countries[rng.Intn(len(countries))]
		user := rng.Int63n(3) // 0 = logged out
		e := ev(name.String(), time.Unix(minute*60, 0).Add(time.Duration(rng.Intn(60))*time.Second), user, country)
		for _, b := range batchers {
			b.Add(e)
		}

		ref.events++
		full := name.String()
		ref.names[full] = true
		parts := strings.Split(full, ":")
		for d := 1; d <= events.NumComponents; d++ {
			p := strings.Join(parts[:d], ":")
			if ref.minute[p] == nil {
				ref.minute[p] = map[int64]int64{}
			}
			ref.minute[p][minute]++
		}
		if ref.rollupAt[minute] == nil {
			ref.rollupAt[minute] = map[analytics.RollupKey]int64{}
		}
		for lvl := 0; lvl < events.NumRollupLevels; lvl++ {
			k := analytics.RollupKey{
				Level:    events.RollupLevel(lvl),
				Name:     name.Rollup(events.RollupLevel(lvl)).String(),
				Country:  geo.CountryOf(e.IP),
				LoggedIn: user != 0,
			}
			ref.rollup[k]++
			ref.rollupAt[minute][k]++
		}
	}
	for i, b := range batchers {
		b.Flush()
		cs[i].Sync()
	}
}

func (r *refModel) sum(path string, fromMin, toMin int64) int64 {
	var total int64
	for m, n := range r.minute[path] {
		if m >= fromMin && m < toMin {
			total += n
		}
	}
	return total
}

// checkAgainstReference runs the full query battery — the point sum of
// every path, point sums over random windows, per-minute series, prefix
// top-K of every parent depth, the complete rollup table, the total of
// every rolled name, and the observed total — and fails on any divergence
// from the reference model.
func checkAgainstReference(t *testing.T, rng *rand.Rand, c *Counter, ref *refModel) {
	t.Helper()
	m0, minutes := ref.m0, int64(ref.minutes)

	// Random paths (existing prefixes plus a few misses) over random windows.
	paths := make([]string, 0, len(ref.minute)+2)
	for p := range ref.minute {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	paths = append(paths, "ipad", "web:nosuchpage")
	for _, path := range paths {
		got := c.PathSum(path, time.Unix(m0*60, 0), time.Unix((m0+minutes)*60, 0))
		if want := ref.sum(path, m0, m0+minutes); got != want {
			t.Fatalf("PathSum(%q, whole window) = %d, want %d", path, got, want)
		}
	}
	for trial := 0; trial < 300; trial++ {
		path := paths[rng.Intn(len(paths))]
		a := m0 + rng.Int63n(minutes)
		z := a + 1 + rng.Int63n(minutes)
		got := c.PathSum(path, time.Unix(a*60, 0), time.Unix(z*60, 0))
		want := ref.sum(path, a, z)
		if got != want {
			t.Fatalf("PathSum(%q, m+%d, m+%d) = %d, want %d", path, a-m0, z-m0, got, want)
		}
	}

	// Per-minute series over the whole window.
	for trial := 0; trial < 20; trial++ {
		path := paths[rng.Intn(len(paths))]
		series := c.Series(path, time.Unix(m0*60, 0), time.Unix((m0+minutes)*60, 0))
		for i, got := range series {
			if want := ref.minute[path][m0+int64(i)]; got != want {
				t.Fatalf("Series(%q)[%d] = %d, want %d", path, i, got, want)
			}
		}
	}

	// Top-K of every parent depth against the reference ranking.
	from, to := time.Unix(m0*60, 0), time.Unix((m0+minutes)*60, 0)
	parents := append([]string{""}, paths[:len(paths)-2]...)
	for trial := 0; trial < 40; trial++ {
		parent := parents[rng.Intn(len(parents))]
		childDepth := 0
		if parent != "" {
			childDepth = strings.Count(parent, ":") + 1
		}
		var want []PathCount
		for p := range ref.minute {
			if strings.Count(p, ":") != childDepth {
				continue
			}
			if parent != "" && !strings.HasPrefix(p, parent+":") {
				continue
			}
			want = append(want, PathCount{Path: p, Count: ref.sum(p, m0, m0+minutes)})
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].Count != want[j].Count {
				return want[i].Count > want[j].Count
			}
			return want[i].Path < want[j].Path
		})
		k := 1 + rng.Intn(5)
		if len(want) > k {
			want = want[:k]
		}
		got := c.TopK(parent, k, from, to)
		if len(want) == 0 {
			want = nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("TopK(%q, %d) = %v, want %v", parent, k, got, want)
		}
	}

	// The full rollup table matches the reference exactly.
	snap := c.RollupSnapshot(from, to)
	if !reflect.DeepEqual(snap, ref.rollup) {
		t.Fatalf("rollup snapshot diverges: %d rows vs %d reference rows", len(snap), len(ref.rollup))
	}
	// The total of a sample of rolled names, summed over country and login.
	type rolled struct {
		level events.RollupLevel
		name  string
	}
	totals := map[rolled]int64{}
	for k, n := range ref.rollup {
		totals[rolled{k.Level, k.Name}] += n
	}
	keys := make([]rolled, 0, len(totals))
	for k := range totals {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].level != keys[j].level {
			return keys[i].level < keys[j].level
		}
		return keys[i].name < keys[j].name
	})
	for trial := 0; trial < 60; trial++ {
		k := keys[rng.Intn(len(keys))]
		if got := c.RollupTotal(k.level, k.name, from, to); got != totals[k] {
			t.Fatalf("RollupTotal(%d, %q) = %d, want %d", k.level, k.name, got, totals[k])
		}
	}

	if got := c.Stats().Observed; got != int64(ref.events) {
		t.Fatalf("Observed = %d, want %d", got, ref.events)
	}
}

// TestCounterMatchesReferenceModel drives a randomized workload through a
// small counter and checks every query against the brute-force
// string-keyed reference — the property pinning the ID-keyed, leaf-only
// engine to the semantics of the engine that counted eleven strings per
// event. The battery runs between stretches of the same stream, so every
// round after the first reads prefix caches that were clean, were written
// to, and must have been derived again.
func TestCounterMatchesReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(20120821))
	c := newCounter(t, Config{Shards: 3, Retention: 4 * time.Hour, MaxBatch: 64})
	g := newRefGen(rng, 120)
	for _, n := range []int{2000, 40, 1000, 960} { // 40: most minutes stay clean beside the dirty ones
		g.feed(n, c)
		checkAgainstReference(t, rng, c, g.ref)
	}
	if testing.Verbose() {
		fmt.Printf("reference model: %d names, %d prefix paths, %d rollup rows\n",
			len(g.ref.names), len(g.ref.minute), len(g.ref.rollup))
	}
}

// TestRecoveredCounterMatchesReferenceModel runs the same property
// through the whole durability vertical: a durable counter ingests the
// randomized workload with the battery read in between, cuts a snapshot
// (dictionary + ID-keyed leaf rows) while some buckets' prefix caches are
// clean and some stale, crashes with the tail only in the
// dictionary-compressed WAL, and is reopened under a *different* shard
// count. The recovered engine — every bucket loaded stale — must answer
// the battery exactly like the reference, and again after more writes to
// the same minutes.
func TestRecoveredCounterMatchesReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(20120822))
	dir := t.TempDir()
	cfg := durCfg(3)
	cfg.Retention = 4 * time.Hour
	cfg.MaxBatch = 64
	d, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := newRefGen(rng, 120)
	g.feed(1500, d)
	checkAgainstReference(t, rng, d, g.ref)
	g.feed(40, d)
	if err := d.Snapshot(); err != nil {
		t.Fatalf("mid-stream snapshot: %v", err)
	}
	checkAgainstReference(t, rng, d, g.ref)
	g.feed(1460, d)
	d.Crash()

	rcfg := durCfg(2) // recovery re-digests, so resharding must not change answers
	rcfg.Retention = 4 * time.Hour
	r, err := Open(dir, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	checkAgainstReference(t, rng, r, g.ref)
	g.feed(500, r)
	checkAgainstReference(t, rng, r, g.ref)
}

// snapshotLeaves reads a snapshot file's leaf records back through the
// WAL's decoder, as a load does, and returns their rows keyed the way the
// reference keys its level-0 rollup rows, per minute. A leaf is one row: a
// row the file holds twice fails the test.
func snapshotLeaves(t *testing.T, path string) map[int64]map[analytics.RollupKey]int64 {
	t.Helper()
	rows := map[int64]map[analytics.RollupKey]int64{}
	dec := &walDecoder{counted: true}
	for _, rec := range fileRecords(t, path)[1:] {
		err := dec.decodeBatch(rec, func(name *events.NameEntry, minute int64, country string, loggedIn bool, n int64) error {
			if rows[minute] == nil {
				rows[minute] = map[analytics.RollupKey]int64{}
			}
			k := analytics.RollupKey{Name: name.Full, Country: country, LoggedIn: loggedIn}
			if rows[minute][k] != 0 {
				t.Errorf("minute %d: leaf %+v written twice", minute, k)
			}
			rows[minute][k] += n
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return rows
}

// cacheStates copies every live bucket's stale mark and prefix cache.
func cacheStates(c *Counter) (stale map[[2]int64]bool, prefix map[[2]int64]map[uint32]int64) {
	stale, prefix = map[[2]int64]bool{}, map[[2]int64]map[uint32]int64{}
	for i, s := range c.shards {
		s.mu.Lock()
		for j := range s.ring {
			if b := &s.ring[j]; b.leaf != nil {
				at := [2]int64{int64(i), b.minute}
				stale[at], prefix[at] = b.stale, maps.Clone(b.prefix)
			}
		}
		s.mu.Unlock()
	}
	return stale, prefix
}

// TestSnapshotHoldsLeaves: a snapshot is the leaf table. One cut while some
// prefix caches are clean and some stale must hold, once each, the level-0
// rollup rows the reference counts for each minute and nothing derived
// from them; and cutting it reads the leaves only — no bucket's stale mark
// or prefix cache changes.
func TestSnapshotHoldsLeaves(t *testing.T) {
	rng := rand.New(rand.NewSource(20120823))
	dir := t.TempDir()
	cfg := durCfg(3)
	cfg.Retention = 4 * time.Hour
	d, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := newRefGen(rng, 90)
	g.feed(1200, d)
	checkAgainstReference(t, rng, d, g.ref) // every cache clean
	g.feed(30, d)                           // some stale again
	staleBefore, prefixBefore := cacheStates(d)
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	staleAfter, prefixAfter := cacheStates(d)
	d.Crash()

	var stale int
	for _, is := range staleBefore {
		if is {
			stale++
		}
	}
	if stale == 0 || stale == len(staleBefore) {
		t.Fatalf("%d of %d buckets stale at the capture, want some of each", stale, len(staleBefore))
	}
	if !reflect.DeepEqual(staleAfter, staleBefore) || !reflect.DeepEqual(prefixAfter, prefixBefore) {
		t.Errorf("the capture changed a bucket's stale mark or prefix cache")
	}

	rows := snapshotLeaves(t, filepath.Join(dir, snapName(1)))
	want := map[int64]map[analytics.RollupKey]int64{}
	for minute, at := range g.ref.rollupAt {
		want[minute] = map[analytics.RollupKey]int64{}
		for k, n := range at {
			if k.Level == 0 {
				want[minute][k] = n
			}
		}
	}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("the file's rows differ from the reference's level-0 rollup rows (%d minutes vs %d)", len(rows), len(want))
	}
}

// TestSnapshotBytesPerLeaf is the gate that keeps derived rows from coming
// back: the generated day's snapshot, header and dictionary included, costs
// at most 8 bytes per leaf (4.5 as written; a dictionary record and leaf
// rows per bucket cost 5.3, and prefix sums and five rollup levels per
// bucket 41.9).
func TestSnapshotBytesPerLeaf(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, durCfg(4))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Crash()
	ingestGeneratedDay(d)
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(filepath.Join(dir, snapName(1)))
	if err != nil {
		t.Fatal(err)
	}
	leaves := tmSnapshotLeaves.Value()
	t.Logf("%d bytes, %d leaves: %.1f bytes per leaf", fi.Size(), leaves, float64(fi.Size())/float64(leaves))
	if leaves == 0 || fi.Size() > 8*leaves {
		t.Errorf("snapshot is %d bytes for %d leaves, want at most 8 per leaf", fi.Size(), leaves)
	}
}

// ingestGeneratedDay streams workload.DefaultConfig's day into c and returns
// with it applied.
func ingestGeneratedDay(c *Counter) {
	evs, _ := workload.New(workload.DefaultConfig(day)).Generate()
	b := c.NewBatcher()
	for i := range evs {
		b.Add(&evs[i])
	}
	b.Flush()
	c.Sync()
}
