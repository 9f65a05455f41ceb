package main

import (
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"unilog/internal/birdbrain"
	"unilog/internal/realtime"
	"unilog/internal/scribe"
)

// Shared by the two counting workloads: the cyclic feeder that replays the
// pre-marshalled day into a tap, the paced open-loop writer, the seeded
// dashboard queries with their expected answers, and the closed-loop reader.

const (
	tapBatch = 500 // entries per TapBatch call, a staging flush's worth
	topKSize = 5
)

// feeder replays the day's entries into a tap in batches, cycle after
// cycle. Every replay carries the same timestamps, so after c whole cycles
// every count is exactly c times the oracle's.
type feeder struct {
	entries []scribe.Entry
	tap     func([]scribe.Entry)
	// afterBatch, when set, runs after every batch; the cluster workload
	// steps its manual clock there, at fixed event indices.
	afterBatch func()

	pos    int   // next entry of the current cycle
	cycles int64 // whole cycles fed
	fed    int64
}

// one feeds the next batch, never across a cycle boundary, inside a span.
func (f *feeder) one(tr *tracer, span, phase string, parent int) int {
	hi := min(f.pos+tapBatch, len(f.entries))
	b := f.entries[f.pos:hi]
	id := tr.begin(span, phase, parent)
	f.tap(b)
	tr.end(id, int64(len(b)))
	f.fed += int64(len(b))
	f.pos = hi
	if f.pos == len(f.entries) {
		f.pos = 0
		f.cycles++
	}
	if f.afterBatch != nil {
		f.afterBatch()
	}
	return len(b)
}

// some feeds n batches.
func (f *feeder) some(n int, tr *tracer, span, phase string, parent int) int64 {
	var fed int64
	for i := 0; i < n; i++ {
		fed += int64(f.one(tr, span, phase, parent))
	}
	return fed
}

// cycle feeds up to the next cycle boundary: the rest of a started cycle,
// or a whole one.
func (f *feeder) cycle(tr *tracer, span, phase string, parent int) int64 {
	var n int64
	for {
		n += int64(f.one(tr, span, phase, parent))
		if f.pos == 0 {
			return n
		}
	}
}

// paced feeds batches on a fixed schedule for dur: batch i is due at
// start + i × batch/rate whether or not the system kept up (open loop).
// Each batch is timed from its due time; lateMs is how far behind schedule
// the writer itself started a batch at worst.
func (f *feeder) paced(rate float64, dur time.Duration, tr *tracer, span, phase string, parent int) (fromDueMs []float64, lateMaxMs float64, events int64) {
	interval := time.Duration(float64(tapBatch) / rate * float64(time.Second))
	start := time.Now()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if due.Sub(start) >= dur {
			return fromDueMs, lateMaxMs, events
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if late := float64(time.Since(due).Nanoseconds()) / 1e6; late > lateMaxMs {
			lateMaxMs = late
		}
		events += int64(f.one(tr, span, phase, parent))
		fromDueMs = append(fromDueMs, float64(time.Since(due).Nanoseconds())/1e6)
	}
}

// queryAPI is the read side of either system: one counter, or the
// scatter-gather layer over the cluster. A single counter has no fan-out,
// so its QueryMeta is zero.
type queryAPI struct {
	pathSum func(path string, from, to time.Time) (int64, birdbrain.QueryMeta)
	topK    func(parent string, k int, from, to time.Time) ([]realtime.PathCount, birdbrain.QueryMeta)
	series  func(path string, from, to time.Time) ([]int64, birdbrain.QueryMeta)
}

func counterAPI(c *realtime.Counter) queryAPI {
	return queryAPI{
		pathSum: func(p string, from, to time.Time) (int64, birdbrain.QueryMeta) {
			return c.PathSum(p, from, to), birdbrain.QueryMeta{}
		},
		topK: func(p string, k int, from, to time.Time) ([]realtime.PathCount, birdbrain.QueryMeta) {
			return c.TopK(p, k, from, to), birdbrain.QueryMeta{}
		},
		series: func(p string, from, to time.Time) ([]int64, birdbrain.QueryMeta) {
			return c.Series(p, from, to), birdbrain.QueryMeta{}
		},
	}
}

func scatterAPI(s *birdbrain.Scatter) queryAPI {
	return queryAPI{pathSum: s.PathSum, topK: s.TopK, series: s.Series}
}

// dashboard is the seeded query list one reader cycles through, with the
// oracle's answer to each for one replay of the day.
type dashboard struct {
	paths   []string
	parents []string
	hourLo  time.Time // the one-hour window
	hourHi  time.Time
	dayLo   time.Time
	dayHi   time.Time

	wantHour   []int64
	wantDay    []int64
	wantSeries [][]int64
	wantTop    [][]realtime.PathCount
}

// newDashboard picks the paths (hierarchy prefixes of generated names, depth
// one to three) and draws one busy hour from the seed. The paths are those
// at ranks 0, 1, 2, 4, ... 64 when every prefix is ordered by its events of
// the day: the same mix of heavy and light on every seed, where a random
// draw moved the cost of a refresh by a fifth from seed to seed.
func newDashboard(o *oracle, seed int64) *dashboard {
	rng := rand.New(rand.NewSource(seed))
	perName := make([]int64, len(o.names))
	for c, n := range o.cells {
		perName[c.name] += n
	}
	ids := make([]int, len(o.names))
	for i := range ids {
		ids[i] = i
	}
	sort.Slice(ids, func(a, b int) bool { return o.names[ids[a]] < o.names[ids[b]] })
	count := make(map[string]int64)
	var cands, clients []string
	for _, id := range ids {
		c := strings.Split(o.names[id], ":")
		for depth := 1; depth <= 3; depth++ {
			if c[depth-1] == "" {
				break
			}
			p := strings.Join(c[:depth], ":")
			if _, seen := count[p]; !seen {
				cands = append(cands, p)
				if depth == 1 {
					clients = append(clients, p)
				}
			}
			count[p] += perName[id]
		}
	}
	sort.SliceStable(cands, func(a, b int) bool { return count[cands[a]] > count[cands[b]] })
	d := &dashboard{parents: append([]string{""}, clients...)}
	for rank := 0; rank < len(cands) && len(d.paths) < 8; rank = max(1, 2*rank) {
		d.paths = append(d.paths, cands[rank])
	}
	sort.Strings(d.paths)
	hour := 8 + rng.Intn(12)
	d.hourLo = benchDay.Add(time.Duration(hour) * time.Hour)
	d.hourHi = d.hourLo.Add(time.Hour)
	d.dayLo, d.dayHi = benchDay, benchDay.Add(24*time.Hour)
	for _, p := range d.paths {
		mask := o.pathMask(p)
		d.wantHour = append(d.wantHour, o.pathSum(mask, hour*60, hour*60+60))
		d.wantDay = append(d.wantDay, o.pathSum(mask, 0, 24*60))
		d.wantSeries = append(d.wantSeries, o.series(mask, hour*60, hour*60+60))
	}
	for _, p := range d.parents {
		d.wantTop = append(d.wantTop, o.topK(p, topKSize, 0, 24*60))
	}
	return d
}

// readerLog is what one closed-loop reader saw.
type readerLog struct {
	opUs, hourUs, dayUs, topUs, seriesUs []float64
	// Per refresh: which path, and the answers whose bounds are checked
	// once the writer's final position is known.
	path      []int
	hour, day []int64
	degraded  int64
	partial   int64
	failovers int64
}

func us(a, b time.Time) float64 { return float64(b.Sub(a).Nanoseconds()) / 1e3 }

// refresh redraws the whole dashboard once for the path in focus: its count
// over the hour and over the day, the top children of every client and of the
// root, and its per-minute series. Every refresh asks the same kinds of
// question, so their latencies form one population with a median worth
// quoting; a refresh that asked about one client in turn had as many modes as
// there are clients, and its median sat wherever the seed put the gap.
func (d *dashboard) refresh(api queryAPI, i int, tr *tracer, phase string, parent int, log *readerLog) {
	pi := i % len(d.paths)
	path := d.paths[pi]
	op := tr.begin("query.refresh", phase, parent)
	t0 := time.Now()
	id := tr.begin("query.pathsum_hour", phase, op)
	hour, m1 := api.pathSum(path, d.hourLo, d.hourHi)
	tr.end(id, 0)
	t1 := time.Now()
	id = tr.begin("query.pathsum_day", phase, op)
	day, m2 := api.pathSum(path, d.dayLo, d.dayHi)
	tr.end(id, 0)
	t2 := time.Now()
	metas := []birdbrain.QueryMeta{m1, m2}
	for _, p := range d.parents {
		id = tr.begin("query.topk", phase, op)
		s0 := time.Now()
		_, m := api.topK(p, topKSize, d.dayLo, d.dayHi)
		tr.end(id, 0)
		log.topUs = append(log.topUs, us(s0, time.Now()))
		metas = append(metas, m)
	}
	t3 := time.Now()
	id = tr.begin("query.series", phase, op)
	_, m4 := api.series(path, d.hourLo, d.hourHi)
	tr.end(id, 0)
	t4 := time.Now()
	tr.end(op, 0)
	log.opUs = append(log.opUs, us(t0, t4))
	log.hourUs = append(log.hourUs, us(t0, t1))
	log.dayUs = append(log.dayUs, us(t1, t2))
	log.seriesUs = append(log.seriesUs, us(t3, t4))
	log.path = append(log.path, pi)
	log.hour = append(log.hour, hour)
	log.day = append(log.day, day)
	for _, m := range append(metas, m4) {
		if m.Degraded {
			log.degraded++
		}
		if m.Partial {
			log.partial++
		}
		log.failovers += int64(m.Failovers)
	}
}

// read refreshes the dashboard back to back (closed loop, one client)
// until stop is set.
func (d *dashboard) read(api queryAPI, stop *atomic.Bool, tr *tracer, phase string, parent int) *readerLog {
	log := &readerLog{}
	for i := 0; !stop.Load(); i++ {
		d.refresh(api, i, tr, phase, parent, log)
	}
	return log
}

// readAlone is the phase that times the dashboard with no writer beside it
// (closed loop, one client, at least three refreshes, for about dur): each
// refresh on both clocks, and every count exactly cycles × the oracle's. With
// nothing else running in the process, the processor time of a refresh is
// the reader's own, which it is not while the paced writer runs.
func (d *dashboard) readAlone(who string, api queryAPI, dur time.Duration, cycles int64, cal *calibrator, tr *tracer, rec *recorder) {
	runtime.GC()
	root := tr.begin("phase.read", "read", -1)
	log := &readerLog{}
	var cpuMs []float64
	for i, start := 0, time.Now(); i < 3 || time.Since(start) < dur; i++ {
		cal.tick(tr, "read", root)
		t0 := now()
		d.refresh(api, i, tr, "read", root, log)
		_, cpu := t0.since()
		cpuMs = append(cpuMs, cpu*1e3)
	}
	tr.end(root, 0)
	rec.sampleAll("query.op_cpu_ms", cpuMs)
	rec.sampleAll("query.alone_op_us", log.opUs)
	d.checkBounds(who, "with no writer", log, cycles, cycles, rec)
}

// checkBounds verifies what a reader saw: every count lies between the whole
// cycles fed before the phase and the whole cycles fed once the started
// cycle was completed.
func (d *dashboard) checkBounds(who, when string, log *readerLog, cyclesLo, cyclesHi int64, rec *recorder) {
	var bad int64
	for i, pi := range log.path {
		okHour := log.hour[i] >= cyclesLo*d.wantHour[pi] && log.hour[i] <= cyclesHi*d.wantHour[pi]
		okDay := log.day[i] >= cyclesLo*d.wantDay[pi] && log.day[i] <= cyclesHi*d.wantDay[pi]
		if !okHour || !okDay {
			bad++
		}
	}
	rec.attempt(int64(len(log.path)))
	rec.fail(bad, "%s: %d of %d refreshes %s read a count outside [%d, %d] replays", who, bad, len(log.path), when, cyclesLo, cyclesHi)
	rec.fail(log.partial, "%s: %d queries %s came back partial", who, log.partial, when)
}

// checkExact asks every query of the dashboard on a quiescent system that
// has been fed whole cycles, and wants exactly cycles × the oracle.
func (d *dashboard) checkExact(who, when string, api queryAPI, cycles int64, rec *recorder) (degraded, failovers int64) {
	note := func(m birdbrain.QueryMeta) {
		if m.Degraded {
			degraded++
		}
		failovers += int64(m.Failovers)
		rec.check(!m.Partial, "%s %s: a query came back partial: %+v", who, when, m)
	}
	for i, p := range d.paths {
		hour, m := api.pathSum(p, d.hourLo, d.hourHi)
		note(m)
		rec.check(hour == cycles*d.wantHour[i], "%s %s: PathSum(%s, hour) = %d, reference %d", who, when, p, hour, cycles*d.wantHour[i])
		day, m := api.pathSum(p, d.dayLo, d.dayHi)
		note(m)
		rec.check(day == cycles*d.wantDay[i], "%s %s: PathSum(%s, day) = %d, reference %d", who, when, p, day, cycles*d.wantDay[i])
		series, m := api.series(p, d.hourLo, d.hourHi)
		note(m)
		ok := len(series) == len(d.wantSeries[i])
		for j := 0; ok && j < len(series); j++ {
			ok = series[j] == cycles*d.wantSeries[i][j]
		}
		rec.check(ok, "%s %s: Series(%s, hour) differs from the reference", who, when, p)
	}
	for i, p := range d.parents {
		top, m := api.topK(p, topKSize, d.dayLo, d.dayHi)
		note(m)
		want := d.wantTop[i]
		ok := len(top) == len(want)
		for j := 0; ok && j < len(top); j++ {
			ok = top[j].Path == want[j].Path && top[j].Count == cycles*want[j].Count
		}
		rec.check(ok, "%s %s: TopK(%q) = %v, reference %v × %d", who, when, p, top, want, cycles)
	}
	return degraded, failovers
}

// recordReader files a reader's latencies under the recorder's names.
func recordReader(rec *recorder, log *readerLog) {
	rec.sampleAll("query.op_us", log.opUs)
	rec.sampleAll("query.pathsum_hour_us", log.hourUs)
	rec.sampleAll("query.pathsum_day_us", log.dayUs)
	rec.sampleAll("query.topk_us", log.topUs)
	rec.sampleAll("query.series_us", log.seriesUs)
	rec.add("query.degraded", float64(log.degraded))
	rec.add("query.partial", float64(log.partial))
	rec.add("query.failovers", float64(log.failovers))
}

// singleQueries is every individual query latency of the mixed phase.
func singleQueries(rec *recorder) []float64 {
	var all []float64
	for _, k := range []string{"query.pathsum_hour_us", "query.pathsum_day_us", "query.topk_us", "query.series_us"} {
		all = append(all, rec.get(k)...)
	}
	return all
}

// streamEndToEnd is the part of the end-to-end table both counting
// workloads share: ingest throughput and the cost of one refresh on the
// processor clock, then the same two on the wall clock (the refresh beside
// the paced writer).
func streamEndToEnd(rec *recorder) map[string]float64 {
	return map[string]float64{
		"events_per_cpu_s":       median(rec.get("ingest.events_per_cpu_s")),
		"op_cpu_ms":              median(rec.get("query.op_cpu_ms")),
		"stored_bytes_per_event": rec.value("stored_bytes_per_event"),
		"events_per_s":           median(rec.get("ingest.events_per_s")),
		"op_p50_ms":              median(rec.get("query.op_us")) / 1e3,
	}
}

// streamLayers is the per-layer part both share: the ISSUE's per-query
// numbers, taken over single queries rather than whole refreshes.
func streamLayers(rec *recorder) map[string]float64 {
	single := singleQueries(rec)
	return map[string]float64{
		"ingest_events_per_s": median(rec.get("ingest.events_per_s")),
		"query_p50_us":        median(single),
		"query_p95_us":        tail(single, 0.95),
		"recover_s":           median(rec.get("recover_s")),
	}
}
