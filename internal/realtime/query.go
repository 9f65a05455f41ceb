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
// The buckets are keyed by symbol-table IDs, so queries resolve strings at
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

// forEachBucket invokes fn under the shard lock for every bucket in the
// window. A shard's ring holds one bucket per minute, so this visits at
// most ring-length buckets per shard regardless of the window width.
func (c *Counter) forEachBucket(from, to time.Time, fn func(*bucket)) {
	fm, tm := minuteRange(from, to)
	for _, s := range c.shards {
		s.mu.Lock()
		for j := range s.ring {
			b := &s.ring[j]
			if b.minute >= fm && b.minute < tm && b.prefix != nil {
				fn(b)
			}
		}
		s.mu.Unlock()
	}
}

// PathSum is the point lookup: the total count of a hierarchy path —
// any prefix of an event name, or a full name — over [from, to).
func (c *Counter) PathSum(path string, from, to time.Time) int64 {
	defer tmQueryPathSumNs.ObserveSince(time.Now())
	id, ok := c.tab.pathOf(path)
	if !ok {
		return 0
	}
	var total int64
	c.forEachBucket(from, to, func(b *bucket) {
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
	id, ok := c.tab.pathOf(path)
	if !ok {
		return out
	}
	c.forEachBucket(from, to, func(b *bucket) {
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
	parentID := noParent
	if parent != "" {
		id, ok := c.tab.pathOf(parent)
		if !ok {
			return nil
		}
		parentID = id
	}
	// A path has few children and a bucket holds every prefix of every
	// name of its shard and minute, so the scan asks each bucket for the
	// children by ID rather than walking its whole map; a bucket with
	// fewer cells than there are children is walked instead.
	children := c.tab.childrenOf(parentID)
	counts := make([]int64, len(children))
	c.forEachBucket(from, to, func(b *bucket) {
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
	ranked := c.tab.resolveCounts(children, counts)
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

// RollupSnapshot merges the §3.2 rollup rows accumulated over [from, to)
// into one table, keyed identically to analytics.Rollups. The merge runs
// in ID space; each distinct cell resolves to its string key exactly once.
func (c *Counter) RollupSnapshot(from, to time.Time) map[analytics.RollupKey]int64 {
	defer tmQueryRollupNs.ObserveSince(time.Now())
	acc := make(map[rollupCell]int64)
	c.forEachBucket(from, to, func(b *bucket) {
		for cell, n := range b.rollup {
			acc[cell] += n
		}
	})
	out := make(map[analytics.RollupKey]int64, len(acc))
	for cell, n := range acc {
		out[analytics.RollupKey{
			Level:    events.RollupLevel(cell.level),
			Name:     c.tab.pathString(cell.name),
			Country:  c.tab.countryName(cell.country),
			LoggedIn: cell.loggedIn,
		}] += n
	}
	return out
}

// RollupTotal sums one rolled-up name across countries and login status
// over [from, to) — the live equivalent of analytics.RollupTotal.
func (c *Counter) RollupTotal(level events.RollupLevel, name string, from, to time.Time) int64 {
	defer tmQueryRollupNs.ObserveSince(time.Now())
	id, ok := c.tab.pathOf(name)
	if !ok {
		return 0
	}
	var total int64
	c.forEachBucket(from, to, func(b *bucket) {
		for cell, n := range b.rollup {
			if cell.level == uint8(level) && cell.name == id {
				total += n
			}
		}
	})
	return total
}
