package realtime

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"unilog/internal/analytics"
	"unilog/internal/events"
	"unilog/internal/geo"
)

// refModel is the brute-force, string-keyed reference the ID-keyed engine
// must reproduce bit-for-bit: per-path per-minute counts and the full
// §3.2 rollup table, built exactly the way the pre-symbol-table engine
// counted (string prefixes, string rollup keys).
type refModel struct {
	minute  map[string]map[int64]int64 // path -> minute -> count
	rollup  map[analytics.RollupKey]int64
	names   map[string]bool
	events  int
	minutes int
	m0      int64
}

// genReferenceWorkload streams nEvents randomized events into every
// counter (one Batcher each) while recording the reference model. mid,
// when non-nil, runs once after half the events with all batchers flushed
// and counters synced — the hook a durability test uses to cut a
// mid-stream snapshot.
func genReferenceWorkload(rng *rand.Rand, nEvents, minutes int, mid func(), cs ...*Counter) *refModel {
	clients := []string{"web", "iphone", "android"}
	pages := []string{"home", "search", "profile"}
	sections := []string{"timeline", "mentions", ""}
	elements := []string{"tweet", "avatar", ""}
	actions := []string{"impression", "click", "open"}
	countries := []string{"us", "jp", "uk", "xx"} // xx resolves to unknown

	ref := &refModel{
		minute:  map[string]map[int64]int64{},
		rollup:  map[analytics.RollupKey]int64{},
		names:   map[string]bool{},
		events:  nEvents,
		minutes: minutes,
		m0:      t0.Unix() / 60,
	}
	batchers := make([]*Batcher, len(cs))
	for i, c := range cs {
		batchers[i] = c.NewBatcher()
	}
	flushAll := func() {
		for i, b := range batchers {
			b.Flush()
			cs[i].Sync()
		}
	}
	for i := 0; i < nEvents; i++ {
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
		minute := ref.m0 + rng.Int63n(int64(minutes))
		country := countries[rng.Intn(len(countries))]
		user := rng.Int63n(3) // 0 = logged out
		e := ev(name.String(), time.Unix(minute*60, 0).Add(time.Duration(rng.Intn(60))*time.Second), user, country)
		for _, b := range batchers {
			b.Add(e)
		}

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
		for lvl := 0; lvl < events.NumRollupLevels; lvl++ {
			ref.rollup[analytics.RollupKey{
				Level:    events.RollupLevel(lvl),
				Name:     name.Rollup(events.RollupLevel(lvl)).String(),
				Country:  geo.CountryOf(e.IP),
				LoggedIn: user != 0,
			}]++
		}
		if mid != nil && i == nEvents/2 {
			flushAll()
			mid()
		}
	}
	flushAll()
	return ref
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

// checkAgainstReference runs the full query battery — point sums over
// random windows, per-minute series, prefix top-K of every parent depth,
// the complete rollup table, and the observed total — and fails on any
// divergence from the reference model.
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

	if got := c.Stats().Observed; got != int64(ref.events) {
		t.Fatalf("Observed = %d, want %d", got, ref.events)
	}
}

// TestCounterMatchesReferenceModel drives a randomized workload through a
// small counter and checks every query against the brute-force
// string-keyed reference — the property pinning the ID-keyed engine to
// the pre-refactor semantics.
func TestCounterMatchesReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(20120821))
	c := newCounter(t, Config{Shards: 3, Retention: 4 * time.Hour, MaxBatch: 64})
	ref := genReferenceWorkload(rng, 4000, 120, nil, c)
	c.Sync()
	checkAgainstReference(t, rng, c, ref)
	if testing.Verbose() {
		fmt.Printf("reference model: %d names, %d prefix paths, %d rollup rows\n",
			len(ref.names), len(ref.minute), len(ref.rollup))
	}
}

// TestRecoveredCounterMatchesReferenceModel runs the same property
// through the whole durability vertical: a durable counter ingests the
// randomized workload, cuts a v2 snapshot (dictionary + ID-keyed
// buckets) mid-stream, crashes with the tail only in the
// dictionary-compressed WAL, and is reopened under a *different*
// shard count. The recovered engine must answer the full
// query battery exactly like the reference.
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
	ref := genReferenceWorkload(rng, 3000, 120, func() {
		if err := d.Snapshot(); err != nil {
			t.Fatalf("mid-stream snapshot: %v", err)
		}
	}, d)
	d.Sync()
	d.Crash()

	rcfg := durCfg(2) // recovery re-digests, so resharding must not change answers
	rcfg.Retention = 4 * time.Hour
	r, err := Open(dir, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	checkAgainstReference(t, rng, r, ref)
}
