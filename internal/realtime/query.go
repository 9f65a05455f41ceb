package realtime

import (
	"slices"
	"sort"
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

// readMode is what a window read takes from each bucket.
type readMode uint8

const (
	// readLeaves hands fn minute buckets for their leaves and derives
	// nothing: a rollup question must not pay for (or hide the staleness
	// of) a cache it does not use.
	readLeaves readMode = iota
	// readMinutes hands fn minute buckets whose prefix caches are current.
	readMinutes
	// readHours hands fn an hour cell for every hour the window covers
	// whole and a minute bucket for each minute at its edges, all with
	// current prefix caches: for a reader that sums over the window and
	// never asks which minute a count came from.
	readHours
)

// forEachBucket invokes fn under the shard lock for every live bucket in
// the window, or, reading hours, for every whole hour's cell and every live
// edge minute. The window is first clamped to the minutes that can hold
// counts, [horizon, maxMinute]: a bucket at or behind the retention horizon
// is not live even while its slot is unrecycled — writes there are dropped,
// so reads there are empty (Config.Retention) — and nothing lies beyond the
// newest minute applied. What is left is at most a ring long, so each
// minute's slot is probed by index, and a day-window read costs 24 cells
// per shard (23 and at most 118 edge probes if it is not hour-aligned)
// where it cost 1440 probes.
//
// Reading prefixes, a bucket written since it was last read that way is
// derived first: the lock held is exclusive, so the rebuild races nothing,
// and a clean bucket costs what it always has. A stale or unclaimed hour
// cell is rebuilt the same way (sumHour): the hour's stale minutes are
// derived and the minute caches summed. A late write therefore costs the
// next read one minute's derivation and one hour's sum of its minute caches.
// realtime.derive.buckets counts the minutes derived, realtime.derive.hours
// the cells summed, realtime.derive.ns the time one read spent on both.
func (c *Counter) forEachBucket(from, to time.Time, mode readMode, fn func(*bucket)) {
	fm, tm := minuteRange(from, to)
	newest := c.maxMinute.Load()
	// From minute 1: 0 is the empty-slot value and minutes before it index no slot.
	fm = max(fm, newest-int64(c.buckets)+1, 1)
	tm = min(tm, newest+1)
	var minutes, hours int64
	var spent time.Duration
	// names must cover every leaf of the shard being read, so it is fetched
	// under that shard's lock, and only by a read that derives.
	var names []*events.NameEntry
	derive := func(b *bucket) {
		if names == nil {
			names = events.NameEntries()
		}
		b.derive(names)
		minutes++
	}
	for _, s := range c.shards {
		s.mu.Lock()
		names = nil
		n, nh := int64(len(s.ring)), int64(len(s.hours))
		for m := fm; m < tm; {
			if mode == readHours && m%60 == 0 && tm-m >= 60 {
				cell := &s.hours[m/60%nh]
				if cell.stale || cell.minute != m {
					t0 := time.Now()
					s.sumHour(cell, m, derive)
					hours++
					spent += time.Since(t0)
				}
				fn(cell)
				m += 60
				continue
			}
			if b := &s.ring[m%n]; b.minute == m {
				if mode != readLeaves && b.stale {
					t0 := time.Now()
					derive(b)
					spent += time.Since(t0)
				}
				fn(b)
			}
			m++
		}
		s.mu.Unlock()
	}
	if minutes+hours > 0 {
		tmDeriveBuckets.Add(minutes)
		tmDeriveHours.Add(hours)
		tmDeriveNs.Observe(int64(spent))
	}
}

// sumHour rebuilds cell as the hour starting at minute first: every live
// minute of it is derived if stale and its prefix cache added in. A cell
// that held another hour is claimed for this one; summing the minutes is
// right whatever it held. Callers hold the shard lock.
func (s *shard) sumHour(cell *bucket, first int64, derive func(*bucket)) {
	if cell.prefix == nil {
		cell.prefix = make(map[uint32]int64, 2*events.NumComponents)
	} else {
		clear(cell.prefix)
	}
	n := int64(len(s.ring))
	for m := first; m < first+60; m++ {
		b := &s.ring[m%n]
		if b.minute != m {
			continue
		}
		if b.stale {
			derive(b)
		}
		for id, v := range b.prefix {
			cell.prefix[id] += v
		}
	}
	cell.minute, cell.stale = first, false
}

// leafTotals sums the leaves of every live bucket in the window — what
// both rollup readers expand. It never derives a prefix cache.
func (c *Counter) leafTotals(from, to time.Time) map[uint64]int64 {
	acc := make(map[uint64]int64)
	c.forEachBucket(from, to, readLeaves, func(b *bucket) {
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
	var total int64
	c.forEachBucket(from, to, readHours, func(b *bucket) {
		total += b.prefix[id]
	})
	return total
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
	c.forEachBucket(from, to, readMinutes, func(b *bucket) {
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
	// A path has few children and a bucket holds every prefix of every
	// name of its shard and minute (an hour cell, of its hour), so the scan
	// asks each bucket for the children by ID rather than walking its whole
	// map; a bucket with fewer cells than there are children is walked
	// instead.
	children := events.PathChildren(parentID)
	uncounted := func(id uint32) bool { return !c.tab.counted(id) }
	if slices.ContainsFunc(children, uncounted) {
		children = slices.DeleteFunc(slices.Clone(children), uncounted)
	}
	counts := make([]int64, len(children))
	c.forEachBucket(from, to, readHours, func(b *bucket) {
		if len(b.prefix) < len(children) {
			for id, n := range b.prefix {
				if i, ok := slices.BinarySearch(children, id); ok {
					counts[i] += n
				}
			}
			return
		}
		for i, id := range children {
			counts[i] += b.prefix[id]
		}
	})
	// Strings are resolved at the edge, for the children that counted.
	paths := events.Paths()
	var ranked []PathCount
	for i, n := range counts {
		if n != 0 {
			ranked = append(ranked, PathCount{Path: paths[children[i]], Count: n})
		}
	}
	if len(ranked) == 0 {
		return nil
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].Count != ranked[j].Count {
			return ranked[i].Count > ranked[j].Count
		}
		return ranked[i].Path < ranked[j].Path
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
