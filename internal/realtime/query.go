package realtime

import (
	"cmp"
	"slices"
	"strings"
	"time"

	"unilog/internal/analytics"
	"unilog/internal/events"
)

// Queries merge counts across every shard and minute bucket whose
// minute falls in [from, to). They read committed state only — call Sync
// first for read-your-writes against a live ingest stream.
//
// The buckets are keyed by name-table IDs, so queries resolve strings at
// the edges: the requested path resolves to an ID before the scan (a miss
// means the path was never counted and the answer is zero), and result
// IDs resolve back to strings only once, after the per-bucket merge.

// minuteRange converts a [from, to) time window to a half-open Unix-minute
// interval, widening to to's enclosing minute when to is mid-minute.
func minuteRange(from, to time.Time) (int64, int64) {
	fm := from.Unix() / 60
	tm := to.Unix() / 60
	if to.Unix()%60 != 0 {
		tm++
	}
	return fm, tm
}

// liveMinutes converts [from, to) to minutes and clamps them to the ones
// that can hold counts, [horizon, maxMinute]: a bucket at or behind the
// retention horizon is not live even while its slot is unrecycled — writes
// there are dropped, so reads there are empty (Config.Retention) — and
// nothing lies beyond the newest minute applied. What is left is at most a
// ring long, so each minute's slot is probed by index.
func (c *Counter) liveMinutes(from, to time.Time) (int64, int64) {
	fm, tm := minuteRange(from, to)
	newest := c.maxMinute.Load()
	// From minute 1: 0 is the empty-slot value and minutes before it index no slot.
	return max(fm, newest-int64(c.buckets)+1, 1), min(tm, newest+1)
}

// readCost is what one prefix read rebuilt (realtime.derive.buckets, .hours,
// .ns). names must cover every leaf of the shard being read, so it is
// fetched under that shard's lock (reset per shard), and only if needed.
type readCost struct {
	names          []*events.NameEntry
	minutes, hours int64
	spent          time.Duration
}

// derive rebuilds a stale minute's prefix cache. The shard lock held is
// exclusive, so the rebuild races nothing.
func (r *readCost) derive(b *bucket) {
	t0 := time.Now()
	if r.names == nil {
		r.names = events.NameEntries()
	}
	b.derive(r.names)
	r.minutes++
	r.spent += time.Since(t0)
}

func (r *readCost) record() {
	if r.minutes+r.hours > 0 {
		tmDeriveBuckets.Add(r.minutes)
		tmDeriveHours.Add(r.hours)
		tmDeriveNs.Observe(int64(r.spent))
	}
}

// forEachBucket invokes fn under the shard lock for every live minute
// bucket in the window (liveMinutes). With prefixes set, a bucket written
// since it was last read that way is derived first, and a clean bucket
// costs what it always has; without, nothing is derived: a rollup question
// must not pay for (or hide the staleness of) a cache it does not use.
func (c *Counter) forEachBucket(from, to time.Time, prefixes bool, fn func(*bucket)) {
	fm, tm := c.liveMinutes(from, to)
	var cost readCost
	for _, s := range c.shards {
		s.mu.Lock()
		cost.names = nil
		n := int64(len(s.ring))
		for m := fm; m < tm; m++ {
			if b := &s.ring[m%n]; b.minute == m {
				if prefixes && b.stale {
					cost.derive(b)
				}
				fn(b)
			}
		}
		s.mu.Unlock()
	}
	cost.record()
}

// sumPaths adds each path's count over [from, to) to out, index for index
// with ids: the read kernel of PathSum and TopK. Per shard, under its lock,
// it rebuilds each whole hour of the window whose cell is stale or holds
// another hour (sumHour) and derives each stale edge minute; then a path
// costs one row lookup, a sum over a run of its row, and a map probe per
// live edge minute (at most 118, none on an hour-aligned window).
func (c *Counter) sumPaths(ids []uint32, from, to time.Time, out []int64) {
	fm, tm := c.liveMinutes(from, to)
	// The whole hours are [hf, ht); edges holds the minutes either side.
	hf, ht := (fm+59)/60*60, tm-tm%60
	if hf >= ht {
		hf, ht = tm, tm
	}
	edges := [2][2]int64{{fm, hf}, {ht, tm}}
	var cost readCost
	var edgeBuf [118]*bucket // the most edge minutes: 59 either side, or a window spanning no whole hour
	for _, s := range c.shards {
		s.mu.Lock()
		cost.names = nil
		n, nh := int64(len(s.ring)), int64(len(s.hours))
		for m := hf; m < ht; m += 60 {
			if h := m / 60 % nh; s.hours[h] != (hourCell{minute: m}) {
				t0, spent := time.Now(), cost.spent
				c.sumHour(s, int(h), m, &cost)
				cost.spent = spent + time.Since(t0)
			}
		}
		live := edgeBuf[:0]
		for _, e := range edges {
			for m := e[0]; m < e[1]; m++ {
				if b := &s.ring[m%n]; b.minute == m {
					if b.stale {
						cost.derive(b)
					}
					live = append(live, b)
				}
			}
		}
		h0, end := int(hf/60%nh), int(hf/60%nh+(ht-hf)/60)
		for i, id := range ids {
			if r, ok := s.hourRow[id]; ok {
				row := s.hourSum[int(r)*int(nh):][:nh]
				for _, v := range row[h0:min(end, int(nh))] {
					out[i] += v
				}
				for _, v := range row[:max(end-int(nh), 0)] {
					out[i] += v
				}
			}
			for _, b := range live {
				out[i] += b.prefix[id]
			}
		}
		s.mu.Unlock()
	}
	cost.record()
}

// sumHour rebuilds hour cell h as the hour starting at minute first, which
// it claims: it zeroes column h of every row, then adds in each live
// minute's prefix cache, derived first if stale, giving a path seen for the
// first time a new zeroed row. Rows are never removed. Callers hold the
// shard lock.
func (c *Counter) sumHour(s *shard, h int, first int64, cost *readCost) {
	nh, rows, n := len(s.hours), len(s.hourRow), int64(len(s.ring))
	for i := h; i < len(s.hourSum); i += nh {
		s.hourSum[i] = 0
	}
	for m := first; m < first+60; m++ {
		b := &s.ring[m%n]
		if b.minute != m {
			continue
		}
		if b.stale {
			cost.derive(b)
		}
		for id, v := range b.prefix {
			r, ok := s.hourRow[id]
			if !ok {
				r = int32(len(s.hourRow))
				s.hourRow[id] = r
				s.hourSum = append(s.hourSum, make([]int64, nh)...)
			}
			s.hourSum[int(r)*nh+h] += v
		}
	}
	s.hours[h] = hourCell{minute: first}
	cost.hours++
	if added := len(s.hourRow) - rows; added > 0 {
		tmHourRows.Set(c.hourRows.Add(int64(added)))
	}
}

// leafTotals sums the leaves of every live bucket in the window — what
// both rollup readers expand. It never derives a prefix cache.
func (c *Counter) leafTotals(from, to time.Time) map[uint64]int64 {
	acc := make(map[uint64]int64)
	c.forEachBucket(from, to, false, func(b *bucket) {
		for k, n := range b.leaf {
			acc[k] += n
		}
	})
	return acc
}

// PathSum is the point lookup: the total count of a hierarchy path —
// any prefix of an event name, or a full name — over [from, to).
func (c *Counter) PathSum(path string, from, to time.Time) int64 {
	defer tmQueryPathSumNs.ObserveSince(time.Now())
	id, ok := events.PathID(path)
	if !ok || !c.tab.counted(id) {
		return 0
	}
	var total [1]int64
	c.sumPaths([]uint32{id}, from, to, total[:])
	return total[0]
}

// Series returns per-minute counts of a path over [from, to), index 0
// holding from's minute. The window is capped at the retention length.
func (c *Counter) Series(path string, from, to time.Time) []int64 {
	defer tmQuerySeriesNs.ObserveSince(time.Now())
	fm, tm := minuteRange(from, to)
	if tm-fm > int64(c.buckets) {
		tm = fm + int64(c.buckets)
		to = time.Unix(tm*60, 0)
	}
	if tm <= fm {
		return nil
	}
	out := make([]int64, tm-fm)
	id, ok := events.PathID(path)
	if !ok || !c.tab.counted(id) {
		return out
	}
	c.forEachBucket(from, to, true, func(b *bucket) {
		out[b.minute-fm] += b.prefix[id]
	})
	return out
}

// PathCount pairs a hierarchy path with its count.
type PathCount struct {
	Path  string
	Count int64
}

// TopK ranks the children of a hierarchy path by count over [from, to):
// TopK("", k, ...) ranks clients, TopK("web", k, ...) ranks web pages,
// and so on down the namespace. Ties break by path, ascending.
func (c *Counter) TopK(parent string, k int, from, to time.Time) []PathCount {
	defer tmQueryTopKNs.ObserveSince(time.Now())
	if k <= 0 {
		return nil
	}
	parentID := events.NoParent
	if parent != "" {
		id, ok := events.PathID(parent)
		if !ok || !c.tab.counted(id) {
			return nil
		}
		parentID = id
	}
	// Only the children this counter has counted can count; on a cluster
	// partition that is often few of them.
	children := events.PathChildren(parentID)
	uncounted := func(id uint32) bool { return !c.tab.counted(id) }
	if slices.ContainsFunc(children, uncounted) {
		children = slices.DeleteFunc(slices.Clone(children), uncounted)
	}
	counts := make([]int64, len(children))
	c.sumPaths(children, from, to, counts)
	// Strings are resolved at the edge, for the children that counted.
	paths := events.Paths()
	ranked := make([]PathCount, 0, len(counts))
	for i, n := range counts {
		if n != 0 {
			ranked = append(ranked, PathCount{Path: paths[children[i]], Count: n})
		}
	}
	if len(ranked) == 0 {
		return nil
	}
	slices.SortFunc(ranked, func(a, b PathCount) int {
		return cmp.Or(cmp.Compare(b.Count, a.Count), strings.Compare(a.Path, b.Path))
	})
	if len(ranked) > k {
		ranked = ranked[:k]
	}
	return ranked
}

// RollupSnapshot builds the §3.2 rollup table of [from, to), keyed
// identically to analytics.Rollups. The merge runs over leaves in ID space;
// each distinct leaf expands into its five rows, and resolves their
// strings, exactly once.
func (c *Counter) RollupSnapshot(from, to time.Time) map[analytics.RollupKey]int64 {
	defer tmQueryRollupNs.ObserveSince(time.Now())
	acc := c.leafTotals(from, to)
	names, countries := events.NameEntries(), c.tab.countries()
	out := make(map[analytics.RollupKey]int64, len(acc))
	for k, n := range acc {
		name, country, loggedIn := leafFields(k)
		key := analytics.RollupKey{Country: countries[country], LoggedIn: loggedIn}
		for lvl, rolled := range names[name].Rolled {
			key.Level, key.Name = events.RollupLevel(lvl), rolled
			out[key] += n
		}
	}
	return out
}

// RollupTotal sums one rolled-up name across countries and login status
// over [from, to) — the live equivalent of analytics.RollupTotal. A level
// §3.2 does not define totals zero.
func (c *Counter) RollupTotal(level events.RollupLevel, name string, from, to time.Time) int64 {
	defer tmQueryRollupNs.ObserveSince(time.Now())
	if level < 0 || int(level) >= events.NumRollupLevels {
		return 0
	}
	acc := c.leafTotals(from, to)
	names := events.NameEntries()
	var total int64
	for k, n := range acc {
		if id, _, _ := leafFields(k); names[id].Rolled[level] == name {
			total += n
		}
	}
	return total
}
