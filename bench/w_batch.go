package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"unilog/internal/analytics"
	"unilog/internal/columnar"
	"unilog/internal/dataflow"
	"unilog/internal/events"
	"unilog/internal/hdfs"
	"unilog/internal/session"
	"unilog/internal/telemetry"
	"unilog/internal/warehouse"
	"unilog/internal/workload"
)

// batchDay is the analyst's read path over one warehouse day. Sealed, the
// day is column chunks and every job runs in memory; unsealed, it is row
// files and every job runs under a 32 KiB budget, so the same dataflow
// engine is driven down its other path and must give the same answers.
// Closed loop: one goroutine runs one job or query at a time.
type batchDay struct {
	rc     *runCtx
	sealed bool

	fs      *hdfs.FS
	o       *oracle
	gs      genStats
	sealNs  int64
	chunks  int
	counts  []countQuery
	selects []selectQuery
	funnel  []string
}

const (
	spillBudget   = 32 << 10
	countQueries  = 100
	selectQueries = 200
	selectWindow  = 2 * time.Hour
	selectSlot    = 30 * time.Minute
	// The first rowSelects queries of the list tile the day: one per
	// whole-hour start, so every seed asks about the same windows. They
	// are all a row-file day is asked (each decodes two hours of rows), and
	// the answers both batch workloads fold into output_digest.
	rowSelects      = int((24*time.Hour-selectWindow)/time.Hour) + 1
	sequenceSamples = 3
)

type countQuery struct {
	pattern string
	match   analytics.Matcher
	want    analytics.CountReport
}

type selectQuery struct {
	sel  dataflow.Selection
	want selectAnswer
}

func (w *batchDay) name() string {
	if w.sealed {
		return "batch-sealed"
	}
	return "batch-rows-spill"
}

func (w *batchDay) setup() error {
	fs, o, gs, err := generateWarehouse(dayConfig(w.rc.seed, w.rc.events(600_000)))
	if err != nil {
		return err
	}
	w.fs, w.o, w.gs = fs, o, gs
	if w.sealed {
		t0 := time.Now()
		w.chunks, err = columnar.SealDay(fs, events.Category, benchDay)
		if err != nil {
			return err
		}
		w.sealNs = time.Since(t0).Nanoseconds()
	}
	w.funnel = workload.FunnelStages("web")
	return w.buildQueries()
}

func (w *batchDay) gen() genStats { return w.gs }

// buildQueries draws the seeded query lists from the names the generator
// produced and asks the oracle for each expected answer.
func (w *batchDay) buildQueries() error {
	rng := rand.New(rand.NewSource(w.rc.seed))
	var any, heads []string
	seen := make(map[string]bool)
	push := func(list *[]string, p string) {
		if !seen[p] {
			seen[p] = true
			*list = append(*list, p)
		}
	}
	for _, full := range w.o.sortedNames() {
		c := strings.Split(full, ":")
		push(&any, full)
		push(&any, "*:"+c[events.CompAction])
		for depth := 1; depth <= 3; depth++ {
			if c[depth-1] == "" {
				break
			}
			head := strings.Join(c[:depth], ":") + ":*"
			push(&any, head)
			heads = append(heads, head)
		}
	}
	slices.Sort(heads)
	heads = slices.Compact(heads)
	rng.Shuffle(len(any), func(i, j int) { any[i], any[j] = any[j], any[i] })
	w.counts = nil
	for _, p := range any {
		if len(w.counts) == countQueries {
			break
		}
		pat, err := events.ParsePattern(p)
		if err != nil {
			continue
		}
		m, err := analytics.MatcherFromPattern(p)
		if err != nil {
			return err
		}
		w.counts = append(w.counts, countQuery{pattern: p, match: m, want: w.o.countReport(w.o.patternMask(pat))})
	}
	if len(w.counts) == 0 || len(heads) == 0 {
		return fmt.Errorf("%s: the generated day has no usable name patterns", w.name())
	}
	// A stratified draw, so that every seed asks the same mix of broad and
	// narrow, busy and quiet: each query takes its prefix from its own one
	// of selectQueries equal slices of the sorted prefix list (visited in
	// steps of 37, so that the first rowSelects span the list too), and its
	// window from a tiling of the day in steps of seven slots. The seed
	// picks the prefix within the slice and where the tiling starts. A plain
	// random draw moved the median query's cost by a fifth from seed to seed.
	slots := int((24*time.Hour-selectWindow)/selectSlot) + 1
	firstSlot := rng.Intn(slots)
	w.selects = nil
	for i := 0; i < selectQueries; i++ {
		k := i * 37 % selectQueries
		lo, hi := k*len(heads)/selectQueries, (k+1)*len(heads)/selectQueries
		head := heads[lo]
		if hi > lo {
			head = heads[lo+rng.Intn(hi-lo)]
		}
		pat, err := events.ParsePattern(head)
		if err != nil {
			return err
		}
		from := benchDay.Add(time.Duration((firstSlot+7*i)%slots) * selectSlot)
		if i < rowSelects {
			from = benchDay.Add(time.Duration(i) * time.Hour)
		}
		sel := dataflow.Selection{
			Columns:     []string{"name", "timestamp"},
			NamePattern: head,
			TimeMin:     from.UnixMilli(),
			TimeMax:     from.Add(selectWindow).UnixMilli(),
		}
		w.selects = append(w.selects, selectQuery{sel: sel, want: w.o.selectAnswer(w.o.patternMask(pat), sel.TimeMin, sel.TimeMax)})
	}
	return nil
}

// job returns a fresh job with this workload's engine settings.
func (w *batchDay) job(name, spillDir string) *dataflow.Job {
	j := dataflow.NewJob(name, w.fs)
	if !w.sealed {
		j.MemoryBudget = spillBudget
		j.SpillDir = spillDir
	}
	return j
}

func (w *batchDay) measure(budget time.Duration, tr *tracer, rec *recorder) error {
	spillDir, err := os.MkdirTemp(w.rc.tmp, "spill-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(spillDir)
	round := 0
	if err := repeatFor(budget, func() error {
		err := w.round(round, spillDir, tr, rec)
		round++
		return err
	}); err != nil {
		return err
	}
	if tr != nil {
		return w.probes(spillDir, tr, rec)
	}
	return nil
}

// leg runs one job inside a span and a wall-clock sample, with the
// allocation counts of the traced run beside it. Every leg starts from a
// collected heap, so that how many collections fall inside it depends on
// the job and not on what ran before.
func (w *batchDay) leg(name string, parent int, tr *tracer, rec *recorder, fn func() error) error {
	var before runtime.MemStats
	gc := tr.begin("bench.gc", "jobs", parent)
	runtime.GC()
	tr.end(gc, 0)
	w.rc.cal.tick(tr, "jobs", parent)
	if tr != nil {
		runtime.ReadMemStats(&before)
	}
	id := tr.begin(name, "jobs", parent)
	t0 := now()
	err := fn()
	wall, cpu := t0.since()
	rec.sample(name+"_s", wall)
	rec.sample(name+"_cpu_s", cpu)
	tr.end(id, w.o.n)
	if tr != nil {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		rec.sample(name+".allocs_per_event", float64(after.Mallocs-before.Mallocs)/float64(w.o.n))
		rec.sample(name+".alloc_bytes_per_event", float64(after.TotalAlloc-before.TotalAlloc)/float64(w.o.n))
	}
	return err
}

// round runs every job and query of the workload once.
func (w *batchDay) round(round int, spillDir string, tr *tracer, rec *recorder) error {
	who := w.name()
	root := tr.begin("phase.jobs", "jobs", -1)

	// §3.2 rollups.
	rj := w.job("rollups", spillDir)
	var rollups map[analytics.RollupKey]int64
	if err := w.leg("analytics.rollup", root, tr, rec, func() error {
		var err error
		rollups, err = analytics.Rollups(rj, benchDay)
		return err
	}); err != nil {
		return err
	}
	diffs := rollupDiffs(rollups, w.o.rollups, 1)
	rec.check(diffs == 0, "%s: rollup table differs from the reference in %d rows", who, diffs)
	w.jobStats(rec, "dataflow.rollup", rj.Stats())
	if round == 0 {
		rec.note("output.rollups", fmt.Sprintf("%016x", hashRollups(rollups)))
	}

	// Raw-log counting query: scan, shuffle every event, re-sessionize.
	cq := w.counts[round%len(w.counts)]
	cj := w.job("rawcount", spillDir)
	var rep analytics.CountReport
	if err := w.leg("analytics.rawcount", root, tr, rec, func() error {
		var err error
		rep, err = analytics.CountRawDay(cj, benchDay, cq.match)
		return err
	}); err != nil {
		return err
	}
	rec.check(rep == cq.want, "%s: CountRawDay(%s) = %+v, reference %+v", who, cq.pattern, rep, cq.want)
	w.jobStats(rec, "dataflow.rawcount", cj.Stats())
	if round == 0 {
		rec.note("output.rawcount", fmt.Sprintf("%d/%d/%d", rep.Events, rep.Sessions, rep.TotalSessions))
	}

	if w.sealed {
		if err := w.sequences(round, root, tr, rec); err != nil {
			return err
		}
	} else {
		if err := w.orderBy(root, spillDir, tr, rec); err != nil {
			return err
		}
	}
	tr.end(root, w.o.n)
	return w.selectLeg(round, spillDir, tr, rec)
}

// jobStats keeps the engine's own cost counters of the latest run of a job.
func (w *batchDay) jobStats(rec *recorder, prefix string, s dataflow.Stats) {
	rec.set(prefix+".bytes_read", float64(s.BytesRead))
	rec.set(prefix+".shuffle_bytes", float64(s.ShuffleBytes))
	rec.set(prefix+".spilled_bytes", float64(s.SpilledBytes))
	rec.set(prefix+".spill_runs", float64(s.SpillRuns))
	rec.set(prefix+".merge_passes", float64(s.MergePasses))
	rec.set(prefix+".peak_fan_in", float64(s.PeakRunFanIn))
	if w.sealed {
		rec.check(s.SpilledBytes == 0 && s.SpillRuns == 0, "%s: %s spilled %d bytes in %d runs with no memory budget", w.name(), prefix, s.SpilledBytes, s.SpillRuns)
	}
}

// sequences runs the §4.2 daily job, then the counting queries over what it
// materialized.
func (w *batchDay) sequences(round, root int, tr *tracer, rec *recorder) error {
	for _, dir := range []string{warehouse.SessionDayDir(benchDay), warehouse.DictionaryDir(benchDay)} {
		if w.fs.Exists(dir) {
			if err := w.fs.Delete(dir, true); err != nil {
				return err
			}
		}
	}
	var dict *session.Dictionary
	var stats session.DayStats
	if err := w.leg("session.build", root, tr, rec, func() error {
		var err error
		dict, _, stats, err = session.BuildDay(w.fs, benchDay, sequenceSamples)
		return err
	}); err != nil {
		return err
	}
	rec.check(stats.Events == w.o.n && stats.Sessions == int64(len(w.o.sessions)) && stats.Alphabet == len(w.o.names),
		"batch-sealed: BuildDay saw %d events, %d sessions, %d names; reference %d, %d, %d",
		stats.Events, stats.Sessions, stats.Alphabet, w.o.n, len(w.o.sessions), len(w.o.names))
	rec.set("session.seq_bytes_per_event", float64(stats.SeqBytes)/float64(w.o.n))
	rec.set("session.compression_ratio_x", stats.Ratio())
	rec.set("session.alphabet_size", float64(stats.Alphabet))

	// The counting queries are asked once, after the first build: at about
	// ten milliseconds each, asking all of them every round would leave the
	// three jobs too few repeats for a steady median.
	if round > 0 {
		return nil
	}
	runtime.GC()
	lat := make([]float64, len(w.counts))
	qroot := tr.begin("phase.seqcount", "queries", -1)
	sj := dataflow.NewJob("seqcount", w.fs)
	for i, q := range w.counts {
		id := tr.begin("analytics.seqcount", "queries", qroot)
		t0 := time.Now()
		rep, err := analytics.CountSequencesDay(sj, benchDay, dict, q.match)
		lat[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
		tr.end(id, 0)
		if err != nil {
			return err
		}
		rec.check(rep == q.want, "batch-sealed: CountSequencesDay(%s) = %+v, reference %+v", q.pattern, rep, q.want)
	}
	tr.end(qroot, 0)
	rec.rounds("seqcount_ms", lat)
	return nil
}

// orderBy sorts the whole day by timestamp under the memory budget and
// checks the relation that comes back: complete, ordered, the same events.
func (w *batchDay) orderBy(root int, spillDir string, tr *tracer, rec *recorder) error {
	oj := w.job("orderby", spillDir)
	var got setDigest
	ordered := true
	err := w.leg("dataflow.orderby", root, tr, rec, func() error {
		d, err := oj.LoadClientEventsDay(benchDay)
		if err != nil {
			return err
		}
		p, err := d.Project("timestamp", "session_id", "name")
		if err != nil {
			return err
		}
		sorted, err := p.OrderBy("timestamp", true)
		if err != nil {
			return err
		}
		prev := int64(0)
		err = sorted.Each(func(t dataflow.Tuple) error {
			ts := t[0].(int64)
			if ts < prev {
				ordered = false
			}
			prev = ts
			got.add(rowIdentity(t[1].(string), ts, t[2].(string)))
			return nil
		})
		if cerr := sorted.Close(); err == nil {
			err = cerr
		}
		return err
	})
	if err != nil {
		return err
	}
	rec.check(ordered && got == w.o.digest, "batch-rows-spill: OrderBy returned %s (ordered %v), reference %s", got, ordered, w.o.digest)
	s := oj.Stats()
	w.jobStats(rec, "dataflow.orderby", s)
	rec.check(s.SpilledBytes > 0, "batch-rows-spill: OrderBy under %d bytes never spilled", spillBudget)
	return nil
}

// loadSelection opens one selective query. A sealed day gets the whole day
// and lets the zone maps prune it. A row-file day has no zone maps: handed
// the day it would decode all 24 hours per query, so the query names the
// hour directories its window touches, the one kind of pruning a row layout
// offers, and the same selection filters what those hours hold.
func (w *batchDay) loadSelection(j *dataflow.Job, sel dataflow.Selection) (*dataflow.Dataset, error) {
	if w.sealed {
		return columnar.LoadDay(j, benchDay, sel)
	}
	var dirs []string
	first := time.UnixMilli(sel.TimeMin).UTC().Truncate(time.Hour)
	for h := first; h.UnixMilli() < sel.TimeMax; h = h.Add(time.Hour) {
		dirs = append(dirs, warehouse.HourDir(events.Category, h))
	}
	return j.LoadDirsSelective(dirs, columnar.EventsFormat{}, sel)
}

// selectLeg asks the selective, projected queries: all of them of a sealed
// day, the first rowSelects of a row-file day, where each costs a decode of
// up to three hours of rows.
func (w *batchDay) selectLeg(round int, spillDir string, tr *tracer, rec *recorder) error {
	qs := w.selects
	if !w.sealed {
		qs = qs[:min(rowSelects, len(qs))]
	}
	scanned0 := telemetry.GetCounter("columnar.chunks.scanned").Value()
	pruned0 := telemetry.GetCounter("columnar.chunks.pruned").Value()
	j := w.job("select", spillDir)
	runtime.GC()
	w.rc.cal.tick(nil, "", -1)
	lat, cpuMs := make([]float64, len(qs)), make([]float64, len(qs))
	var digest uint64 = fnvOffset
	root := tr.begin("phase.select", "queries", -1)
	for i, q := range qs {
		var got selectAnswer
		w.rc.cal.tick(tr, "queries", root)
		id := tr.begin("columnar.select", "queries", root)
		t0 := now()
		d, err := w.loadSelection(j, q.sel)
		if err == nil {
			err = d.Each(func(t dataflow.Tuple) error {
				got.Rows++
				got.SumTs += t[1].(int64)
				return nil
			})
		}
		wall, cpu := t0.since()
		lat[i], cpuMs[i] = wall*1e3, cpu*1e3
		tr.end(id, got.Rows)
		if err != nil {
			return err
		}
		rec.check(got == q.want, "%s: select %s [%d,%d) = %+v, reference %+v", w.name(), q.sel.NamePattern, q.sel.TimeMin, q.sel.TimeMax, got, q.want)
		if i < rowSelects {
			digest = hashUint64(hashUint64(digest, uint64(got.Rows)), uint64(got.SumTs))
		}
	}
	tr.end(root, 0)
	rec.rounds("select_ms", lat)
	rec.rounds("select_cpu_ms", cpuMs)
	if round == 0 {
		rec.note("output.selects", fmt.Sprintf("%016x", digest))
	}
	scanned := float64(telemetry.GetCounter("columnar.chunks.scanned").Value() - scanned0)
	pruned := float64(telemetry.GetCounter("columnar.chunks.pruned").Value() - pruned0)
	rec.set("columnar.chunks_scanned", scanned)
	rec.set("columnar.chunks_pruned", pruned)
	rec.set("columnar.prune_ratio", ratio(pruned, scanned+pruned))
	rec.set("columnar.select_bytes_per_query", ratio(float64(j.Stats().BytesRead), float64(len(qs))))
	return nil
}

// probes are the single-layer legs only the traced run pays for: a bare
// scan of each layout, the serial baseline of each job, the funnel pair and
// the two passes of the daily job on their own.
func (w *batchDay) probes(spillDir string, tr *tracer, rec *recorder) error {
	root := tr.begin("phase.probes", "probes", -1)
	defer func() { tr.end(root, 0) }()
	n := w.o.n
	var before, after runtime.MemStats

	runtime.ReadMemStats(&before)
	var rows int64
	if err := tr.call("warehouse.scan", "probes", root, n, func() error {
		return warehouse.ScanDay(w.fs, events.Category, benchDay, func(*events.ClientEvent) error {
			rows++
			return nil
		})
	}); err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	rec.check(rows == n, "%s: ScanDay decoded %d of %d events", w.name(), rows, n)
	rec.set("warehouse.scan_allocs_per_event", float64(after.Mallocs-before.Mallocs)/float64(n))

	if w.sealed {
		runtime.ReadMemStats(&before)
		if err := tr.call("columnar.scan", "probes", root, n, func() error {
			d, err := columnar.LoadDay(dataflow.NewJob("colscan", w.fs), benchDay, dataflow.Selection{Columns: []string{"name", "ip", "logged_in"}})
			if err != nil {
				return err
			}
			// Each, not Count: the tuples have to be built, as they are
			// for the rollup whose scan share this leg stands for.
			rows = 0
			return d.Each(func(dataflow.Tuple) error {
				rows++
				return nil
			})
		}); err != nil {
			return err
		}
		runtime.ReadMemStats(&after)
		rec.check(rows == n, "batch-sealed: columnar scan counted %d of %d events", rows, n)
		rec.set("columnar.scan_allocs_per_event", float64(after.Mallocs-before.Mallocs)/float64(n))
	}

	// The same two jobs on one worker: the single-threaded baseline.
	sj := w.job("rollups-serial", spillDir)
	sj.Parallelism = 1
	if err := tr.call("dataflow.rollup_serial", "probes", root, n, func() error {
		got, err := analytics.Rollups(sj, benchDay)
		if err == nil {
			diffs := rollupDiffs(got, w.o.rollups, 1)
			rec.check(diffs == 0, "%s: serial rollup table differs in %d rows", w.name(), diffs)
		}
		return err
	}); err != nil {
		return err
	}
	cj := w.job("rawcount-serial", spillDir)
	cj.Parallelism = 1
	if err := tr.call("dataflow.rawcount_serial", "probes", root, n, func() error {
		rep, err := analytics.CountRawDay(cj, benchDay, w.counts[0].match)
		if err == nil {
			rec.check(rep == w.counts[0].want, "%s: serial CountRawDay = %+v, reference %+v", w.name(), rep, w.counts[0].want)
		}
		return err
	}); err != nil {
		return err
	}

	// Funnel: the raw-log way, and (where sequences exist) the §5.3 way.
	stages := make([]analytics.Matcher, len(w.funnel))
	for i, name := range w.funnel {
		name := name
		stages[i] = func(s string) bool { return s == name }
	}
	if err := tr.call("analytics.funnel_raw", "probes", root, n, func() error {
		rep, err := analytics.FunnelRawDay(w.job("funnel-raw", spillDir), benchDay, stages)
		if err == nil {
			rec.check(rep.Examined == int64(len(w.o.sessions)), "%s: FunnelRawDay examined %d sessions, reference %d", w.name(), rep.Examined, len(w.o.sessions))
		}
		return err
	}); err != nil {
		return err
	}
	if err := tr.call("session.histogram", "probes", root, n, func() error {
		h, err := session.HistogramDay(w.fs, benchDay, sequenceSamples)
		if err == nil {
			rec.check(h.Events == n && len(h.Counts) == len(w.o.names), "%s: HistogramDay saw %d events, %d names", w.name(), h.Events, len(h.Counts))
		}
		return err
	}); err != nil {
		return err
	}
	if !w.sealed {
		return nil
	}
	dict, err := session.LoadDictionary(w.fs, benchDay)
	if err != nil {
		return err
	}
	if err := tr.call("analytics.funnel_seq", "probes", root, 0, func() error {
		rep, err := analytics.FunnelSequencesDay(dataflow.NewJob("funnel-seq", w.fs), benchDay, analytics.NewFunnelFromNames(dict, w.funnel...))
		if err == nil {
			rec.check(rep.Examined == int64(len(w.o.sessions)), "batch-sealed: FunnelSequencesDay examined %d sessions, reference %d", rep.Examined, len(w.o.sessions))
		}
		return err
	}); err != nil {
		return err
	}
	var sessions int64
	if err := tr.call("session.scan", "probes", root, 0, func() error {
		return session.ScanDay(w.fs, benchDay, func(*session.Record) error {
			sessions++
			return nil
		})
	}); err != nil {
		return err
	}
	rec.check(sessions == int64(len(w.o.sessions)), "batch-sealed: session.ScanDay read %d sessions, reference %d", sessions, len(w.o.sessions))
	return nil
}

// hashRollups digests a rollup table independent of map order.
func hashRollups(t map[analytics.RollupKey]int64) uint64 {
	var sum uint64
	for k, n := range t {
		h := hashString(hashUint64(fnvOffset, uint64(k.Level)), k.Name)
		h = hashString(h, k.Country)
		if k.LoggedIn {
			h = hashUint64(h, 1)
		}
		sum += mix64(hashUint64(h, uint64(n)))
	}
	return sum
}

// legSeconds is the median wall time of a leg, legCPUSeconds the median
// processor time.
func legSeconds(rec *recorder, leg string) float64    { return median(rec.get(leg + "_s")) }
func legCPUSeconds(rec *recorder, leg string) float64 { return median(rec.get(leg + "_cpu_s")) }

func (w *batchDay) bulkLegs() []string {
	if w.sealed {
		return []string{"analytics.rollup", "analytics.rawcount", "session.build"}
	}
	return []string{"analytics.rollup", "analytics.rawcount", "dataflow.orderby"}
}

func (w *batchDay) endToEnd(rec *recorder) map[string]float64 {
	var wall, cpu float64
	legs := w.bulkLegs()
	for _, leg := range legs {
		wall += legSeconds(rec, leg)
		cpu += legCPUSeconds(rec, leg)
	}
	through := float64(w.o.n) * float64(len(legs))
	stored, _ := w.fs.TotalSize("/")
	return map[string]float64{
		// The whole batch: every event through each of the three jobs,
		// over the time the three take back to back.
		"events_per_cpu_s":       ratio(through, cpu),
		"op_cpu_ms":              median(perItemMedians(rec.roundsOf("select_cpu_ms"))),
		"stored_bytes_per_event": float64(stored) / float64(w.o.n),
		"events_per_s":           ratio(through, wall),
		"op_p50_ms":              median(perItemMedians(rec.roundsOf("select_ms"))),
	}
}

func (w *batchDay) opSamples(rec *recorder) int {
	return len(perItemMedians(rec.roundsOf("select_cpu_ms")))
}

func (w *batchDay) layers(rec *recorder, tr *tracer) (map[string]float64, attribution) {
	n := float64(w.o.n)
	perSec := func(leg string) float64 { return ratio(n, legSeconds(rec, leg)) }
	nsPer := func(leg string) float64 { return legSeconds(rec, leg) * 1e9 / n }
	sel := perItemMedians(rec.roundsOf("select_ms"))
	rows, _ := warehouse.DataSize(w.fs, warehouse.CategoryDir(events.Category))
	total, _ := w.fs.TotalSize(warehouse.CategoryDir(events.Category))
	scanLeg := "warehouse.scan"
	if w.sealed {
		scanLeg = "columnar.scan"
	}
	out := map[string]float64{
		"rollup_events_per_s":                    perSec("analytics.rollup"),
		"rawcount_events_per_s":                  perSec("analytics.rawcount"),
		"select_query_p50_ms":                    median(sel),
		"select_query_p90_ms":                    tail(sel, 0.90),
		"warehouse.write_ns_per_event":           ratio(float64(w.gs.SinkNs), n),
		"warehouse.row_bytes_per_event":          float64(rows) / n,
		"warehouse.scan_ns_per_event":            tr.nsPerEvent("warehouse.scan"),
		"analytics.rollup_ns_per_event":          nsPer("analytics.rollup"),
		"analytics.rollup_allocs_per_event":      median(rec.get("analytics.rollup.allocs_per_event")),
		"analytics.rollup_alloc_bytes_per_event": median(rec.get("analytics.rollup.alloc_bytes_per_event")),
		"analytics.rollup_self_ns_per_event":     nsPer("analytics.rollup") - tr.nsPerEvent(scanLeg),
		"analytics.rawcount_ns_per_event":        nsPer("analytics.rawcount"),
		"analytics.rawcount_allocs_per_event":    median(rec.get("analytics.rawcount.allocs_per_event")),
		"analytics.funnel_raw_ms":                median(tr.durationsMs("analytics.funnel_raw")),
		"session.histogram_ns_per_event":         tr.nsPerEvent("session.histogram"),
		"dataflow.rollup_serial_events_per_s":    ratio(1e9, tr.nsPerEvent("dataflow.rollup_serial")),
		"dataflow.rawcount_serial_events_per_s":  ratio(1e9, tr.nsPerEvent("dataflow.rawcount_serial")),
	}
	copyValues(out, rec, "warehouse.scan_allocs_per_event", "dataflow.rollup.bytes_read", "dataflow.rollup.shuffle_bytes",
		"dataflow.rawcount.shuffle_bytes", "dataflow.rawcount.spilled_bytes", "dataflow.rawcount.spill_runs",
		"dataflow.rawcount.merge_passes", "dataflow.rawcount.peak_fan_in",
		"columnar.chunks_scanned", "columnar.chunks_pruned", "columnar.prune_ratio", "columnar.select_bytes_per_query")
	if w.sealed {
		seq := perItemMedians(rec.roundsOf("seqcount_ms"))
		out["sequences_build_events_per_s"] = perSec("session.build")
		out["seqcount_query_p50_ms"] = median(seq)
		out["columnar.seal_ns_per_event"] = ratio(float64(w.sealNs), n)
		out["columnar.bytes_per_event"] = float64(total-rows) / n
		out["columnar.chunks"] = float64(w.chunks)
		out["columnar.scan_ns_per_event"] = tr.nsPerEvent("columnar.scan")
		out["analytics.funnel_seq_ms"] = median(tr.durationsMs("analytics.funnel_seq"))
		out["session.build_ns_per_event"] = nsPer("session.build")
		out["session.scan_ns_per_session"] = ratio(float64(tr.totals()["session.scan"].Ns), float64(len(w.o.sessions)))
		copyValues(out, rec, "columnar.scan_allocs_per_event", "session.seq_bytes_per_event",
			"session.compression_ratio_x", "session.alphabet_size")
	} else {
		out["orderby_events_per_s"] = perSec("dataflow.orderby")
		copyValues(out, rec, "dataflow.orderby.spilled_bytes", "dataflow.orderby.peak_fan_in")
	}
	return out, attribute(tr, "phase.jobs", "1e9 × jobs / events_per_s", append(w.bulkLegs(), "bench.gc", "bench.kernel.jobs")...)
}
