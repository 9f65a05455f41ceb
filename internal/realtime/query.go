package realtime

import (
	"cmp"
	"iter"
	"slices"
	"strings"
	"time"

	"unilog/internal/analytics"
	"unilog/internal/events"
	"unilog/internal/geo"
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
// ring long, for shard.minutes to walk.
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

// minutes yields the bucket of each minute in [from, to) that its slot
// holds, walking at most a ring's slots with no division, derived first if
// stale and cost is set. Callers hold the shard lock.
func (s *shard) minutes(from, to int64, cost *readCost) iter.Seq[*bucket] {
	return func(yield func(*bucket) bool) {
		slot := int(from % int64(len(s.ring)))
		for m := from; m < to; m++ {
			if b := &s.ring[slot]; b.minute == m {
				if cost != nil && b.stale {
					cost.derive(b)
				}
				if !yield(b) {
					return
				}
			}
			if slot++; slot == len(s.ring) {
				slot = 0
			}
		}
	}
}

// SumPaths adds each path's count over [from, to) to out, index for index
// with ids, skipping IDs this counter never counted: the read kernel of
// PathSum, TopK and a cluster node's scatter reads. Per shard, under its
// lock, it rebuilds each whole hour of the window whose cell is stale or
// holds another hour (sumHour) and derives each stale edge minute; then a
// path costs a slice index, a local sum of a run of its row, a map probe
// per live edge minute. No minute past the newest holds a count, so a window
// that runs to the end of the newest minute's hour or beyond takes that hour
// whole; edge minutes are those of a window starting mid-hour or behind the
// horizon and of one ending mid-hour before the newest minute's hour ends:
// at most 59 either side, 118 if it spans no whole hour.
func (c *Counter) SumPaths(ids []uint32, from, to time.Time, out []int64) {
	fm, tm := c.liveMinutes(from, to)
	if fm >= tm || !slices.ContainsFunc(ids, c.tab.counted) {
		return
	}
	if _, end := minuteRange(from, to); end >= (tm+59)/60*60 {
		tm = (tm + 59) / 60 * 60
	}
	// The whole hours are [hf, ht), the edge minutes either side of them.
	hf, ht := (fm+59)/60*60, tm-tm%60
	if hf >= ht {
		hf, ht = tm, tm
	}
	var cost readCost
	var edgeBuf [118]*bucket
	for _, s := range c.shards {
		s.mu.Lock()
		cost.names = nil
		nh, h0 := len(s.hours), int(hf/60%int64(len(s.hours)))
		for h, m := h0, hf; m < ht; m += 60 {
			if s.hours[h] != (hourCell{minute: m}) {
				t0, spent := time.Now(), cost.spent
				c.sumHour(s, h, m, &cost)
				cost.spent = spent + time.Since(t0)
			}
			if h++; h == nh {
				h = 0
			}
		}
		live := slices.AppendSeq(edgeBuf[:0], s.minutes(fm, hf, &cost))
		live = slices.AppendSeq(live, s.minutes(ht, tm, &cost))
		end := h0 + int(ht-hf)/60
		for i, id := range ids {
			if !c.tab.counted(id) {
				continue
			}
			var sum int64
			if int(id) < len(s.hourRow.slot) && s.hourRow.slot[id] != 0 {
				row := s.hourSum[int(s.hourRow.local(id))*nh:][:nh]
				sum = sumRun(row[h0:min(end, nh)]) + sumRun(row[:max(end-nh, 0)])
			}
			for _, b := range live {
				sum += b.prefix[id]
			}
			out[i] += sum
		}
		s.mu.Unlock()
	}
	cost.record()
}

// sumRun sums a run of hour cells four at a time, so no add waits on the last.
func sumRun(r []int64) int64 {
	var a, b, c, d int64
	for ; len(r) >= 4; r = r[4:] {
		a, b, c, d = a+r[0], b+r[1], c+r[2], d+r[3]
	}
	for _, v := range r {
		a += v
	}
	return a + b + c + d
}

// sumHour rebuilds hour cell h as the hour starting at minute first, which
// it claims: it zeroes column h of every row, then adds in each live
// minute's prefix cache, derived first if stale, giving a path seen for the
// first time a new zeroed row. Rows are never removed. Callers hold the
// shard lock.
func (c *Counter) sumHour(s *shard, h int, first int64, cost *readCost) {
	nh, rows := len(s.hours), s.hourRow.n
	for i := h; i < len(s.hourSum); i += nh {
		s.hourSum[i] = 0
	}
	for b := range s.minutes(first, first+60, cost) {
		for id, v := range b.prefix {
			if s.hourRow.add(id) {
				s.hourSum = append(s.hourSum, make([]int64, nh)...)
			}
			s.hourSum[int(s.hourRow.local(id))*nh+h] += v
		}
	}
	s.hours[h] = hourCell{minute: first}
	cost.hours++
	if added := s.hourRow.n - rows; added > 0 {
		tmHourRows.Set(c.hourRows.Add(int64(added)))
	}
}

// leafTotals sums the leaves of every live bucket in the window — what
// both rollup readers expand. It never derives a prefix cache: a rollup
// question must not pay for, or hide the staleness of, a cache it skips.
func (c *Counter) leafTotals(from, to time.Time) map[uint64]int64 {
	acc := make(map[uint64]int64)
	fm, tm := c.liveMinutes(from, to)
	for _, s := range c.shards {
		s.mu.Lock()
		for b := range s.minutes(fm, tm, nil) {
			for k, n := range b.leaf {
				acc[k] += n
			}
		}
		s.mu.Unlock()
	}
	return acc
}

// PathSum is the point lookup: the total count of a hierarchy path —
// any prefix of an event name, or a full name — over [from, to).
func (c *Counter) PathSum(path string, from, to time.Time) int64 {
	defer tmQueryPathSumNs.ObserveSince(time.Now())
	id, ok := events.PathID(path)
	if !ok {
		return 0
	}
	var total [1]int64
	c.SumPaths([]uint32{id}, from, to, total[:])
	return total[0]
}

// Series returns per-minute counts of a path over [from, to), index 0
// holding from's minute. The window is capped at the retention length.
func (c *Counter) Series(path string, from, to time.Time) []int64 {
	return c.AddSeries(path, from, to, nil)
}

// AddSeries adds Series(path, from, to) into out, index for index, and
// returns out, grown first to the window's length if it is shorter.
func (c *Counter) AddSeries(path string, from, to time.Time, out []int64) []int64 {
	defer tmQuerySeriesNs.ObserveSince(time.Now())
	fm, tm := minuteRange(from, to)
	if tm-fm > int64(c.buckets) {
		tm = fm + int64(c.buckets)
		to = time.Unix(tm*60, 0)
	}
	if tm <= fm {
		return out
	}
	out = append(out, make([]int64, max(int(tm-fm)-len(out), 0))...)
	id, ok := events.PathID(path)
	if !ok || !c.tab.counted(id) {
		return out
	}
	lo, hi := c.liveMinutes(from, to)
	var cost readCost
	for _, s := range c.shards {
		s.mu.Lock()
		cost.names = nil
		for b := range s.minutes(lo, hi, &cost) {
			out[b.minute-fm] += b.prefix[id]
		}
		s.mu.Unlock()
	}
	cost.record()
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
	children := events.ChildrenOf(parent)
	var buf [64]int64 // few parents have more children: the counts stay on the stack
	counts := append(buf[:0], make([]int64, len(children))...)
	c.SumPaths(children, from, to, counts)
	return RankChildren(children, counts, k)
}

// RankChildren is TopK's answer from the children's counts, index for
// index: the k largest nonzero ones, ties broken by path, ascending. The
// children are ranked by index, and only the k kept resolve to strings.
func RankChildren(children []uint32, counts []int64, k int) []PathCount {
	order := make([]int, 0, 64)
	for i, n := range counts {
		if n != 0 {
			order = append(order, i)
		}
	}
	if k <= 0 || len(order) == 0 {
		return nil
	}
	paths := events.Paths()
	slices.SortFunc(order, func(a, b int) int {
		if counts[a] != counts[b] {
			return cmp.Compare(counts[b], counts[a])
		}
		return strings.Compare(paths[children[a]], paths[children[b]])
	})
	top := make([]PathCount, min(k, len(order)))
	for j, i := range order[:len(top)] {
		top[j] = PathCount{Path: paths[children[i]], Count: counts[i]}
	}
	return top
}

// RollupSnapshot builds the §3.2 rollup table of [from, to), keyed
// identically to analytics.Rollups. The merge runs over leaves in ID space;
// each distinct leaf expands into its five rows, and resolves their
// strings, exactly once.
func (c *Counter) RollupSnapshot(from, to time.Time) map[analytics.RollupKey]int64 {
	defer tmQueryRollupNs.ObserveSince(time.Now())
	acc := c.leafTotals(from, to)
	names := events.NameEntries()
	out := make(map[analytics.RollupKey]int64, len(acc))
	for k, n := range acc {
		name, country, loggedIn := leafFields(k)
		key := analytics.RollupKey{Country: geo.CountryOfIndex(int(country)), LoggedIn: loggedIn}
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
