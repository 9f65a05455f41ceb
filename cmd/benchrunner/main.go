// Command benchrunner regenerates every experiment in DESIGN.md §2 (E1–E12)
// and prints paper-claim-versus-measured tables; EXPERIMENTS.md is produced
// from its output.
//
// Usage:
//
//	benchrunner [-users N] [-loggedout N] [-seed S] [-only e1,e4]
//	benchrunner -grid ci/scenarios/smoke.json [-grid-out DIR]
//
// All experiments share one generated day of traffic with planted ground
// truth, a warehouse populated through the direct writer, and a session
// store built by the two-pass daily job.
//
// With -grid, benchrunner instead runs a scenario experiment grid: every
// (scenario × config) cell in the grid file executes a declarative
// workload spec (internal/scenario) through the full pipeline and writes
// one machine-readable JSON per cell; the run exits nonzero if any
// cell's spec-declared invariants fail.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"unilog/internal/analytics"
	"unilog/internal/colloc"
	"unilog/internal/columnar"
	"unilog/internal/dataflow"
	"unilog/internal/events"
	"unilog/internal/hdfs"
	"unilog/internal/legacy"
	"unilog/internal/logmover"
	"unilog/internal/ngram"
	"unilog/internal/realtime"
	"unilog/internal/recordio"
	"unilog/internal/scribe"
	"unilog/internal/session"
	"unilog/internal/telemetry"
	"unilog/internal/twin"
	"unilog/internal/users"
	"unilog/internal/warehouse"
	"unilog/internal/workload"
	"unilog/internal/zk"
)

var day = time.Date(2012, 8, 21, 0, 0, 0, 0, time.UTC)

// realtimeMetrics is the machine-readable summary of the realtime
// experiments (E14/E15), written as JSON so the perf trajectory of the
// streaming subsystem is tracked run over run instead of scraped from
// stdout. Zero-valued fields mean the experiment that measures them was
// skipped via -only.
type realtimeMetrics struct {
	GeneratedAt           string  `json:"generated_at"`
	Events                int64   `json:"events"`
	IngestEventsPerSec    float64 `json:"ingest_events_per_sec"`
	IngestAllocsPerEvent  float64 `json:"ingest_allocs_per_event"`
	WALIngestEventsPerSec float64 `json:"wal_ingest_events_per_sec"`
	WALBytesPerEvent      float64 `json:"wal_bytes_per_event"`
	WALOverheadX          float64 `json:"wal_overhead_x"`
	RecoveryMillis        float64 `json:"recovery_ms"`
	RecoveryEventsPerSec  float64 `json:"recovery_events_per_sec"`
	ReconcileOK           bool    `json:"reconcile_ok"`

	// Latency percentiles from the pipeline's own telemetry histograms,
	// recorded over everything the selected experiments ran. Flat _ns keys
	// so benchcompare's direction-aware gate (lower is better) sees them.
	IngestApplyP50Ns  int64 `json:"ingest_apply_p50_ns"`
	IngestApplyP95Ns  int64 `json:"ingest_apply_p95_ns"`
	IngestApplyP99Ns  int64 `json:"ingest_apply_p99_ns"`
	WALAppendP50Ns    int64 `json:"wal_append_p50_ns"`
	WALAppendP95Ns    int64 `json:"wal_append_p95_ns"`
	WALAppendP99Ns    int64 `json:"wal_append_p99_ns"`
	QueryPathSumP50Ns int64 `json:"query_pathsum_p50_ns"`
	QueryPathSumP95Ns int64 `json:"query_pathsum_p95_ns"`
	QueryPathSumP99Ns int64 `json:"query_pathsum_p99_ns"`

	// Telemetry is the full registry snapshot at write time: every series
	// and histogram summary, for forensics beyond the flat keys above.
	Telemetry telemetry.Snap `json:"telemetry"`

	measured bool
}

var metrics realtimeMetrics

// dataflowMetrics is the machine-readable summary of the out-of-core
// dataflow experiments (E16/E17), written as BENCH_dataflow.json. The
// spill figures are the peak-RSS proxy: what the engine staged on disk
// instead of holding in memory; the run/fan-in figures are the sort-merge
// reduce-memory proxy. Zero-valued fields mean the experiment that
// measures them was skipped via -only.
type dataflowMetrics struct {
	GeneratedAt             string  `json:"generated_at"`
	Events                  int64   `json:"events"`
	BaselineEvents          int64   `json:"baseline_events"`
	ScaleX                  float64 `json:"scale_x"`
	MemoryBudgetBytes       int64   `json:"memory_budget_bytes"`
	RollupRows              int     `json:"rollup_rows"`
	RollupEventsPerSec      float64 `json:"rollup_events_per_sec"`
	InMemRollupEventsPerSec float64 `json:"inmem_rollup_events_per_sec"`
	SpilledBytes            int64   `json:"spilled_bytes"`
	SpilledRecords          int64   `json:"spilled_records"`
	SpillFlushes            int     `json:"spill_flushes"`
	MergePasses             int     `json:"merge_passes"`
	ShuffleBytes            int64   `json:"shuffle_bytes"`
	SessionGroups           int     `json:"session_groups"`
	Identical               bool    `json:"identical"`

	// E17: sort-merge reduce + external OrderBy at day scale.
	E17Events                int64   `json:"e17_events"`
	E17SpillRuns             int     `json:"e17_spill_runs"`
	E17MergeRuns             int     `json:"e17_merge_runs"`
	E17PeakRunFanIn          int     `json:"e17_peak_run_fan_in"`
	E17RollupIdentical       bool    `json:"e17_rollup_identical"`
	SessionizeEventsPerSec   float64 `json:"sessionize_events_per_sec"`
	InMemSessionizePerSec    float64 `json:"inmem_sessionize_events_per_sec"`
	OrderByEventsPerSec      float64 `json:"orderby_events_per_sec"`
	OrderBySpilledBytes      int64   `json:"orderby_spilled_bytes"`
	OrderedSessionsIdentical bool    `json:"ordered_sessions_identical"`
	OrderBySortedAndComplete bool    `json:"orderby_sorted_and_complete"`

	// Stage-latency percentiles from the dataflow telemetry histograms
	// (flat _ns keys for benchcompare's lower-is-better gate), plus the
	// full registry snapshot for forensics.
	// E18: columnar sealed-day storage — zone-map pruning + projection
	// pushdown vs the row scan, plus the full-scan equivalence proof.
	E18Events                      int64   `json:"e18_events"`
	E18Chunks                      int     `json:"e18_chunks"`
	E18RowScanEventsPerSec         float64 `json:"e18_rowscan_events_per_sec"`
	E18ColumnarScanEventsPerSec    float64 `json:"e18_columnar_scan_events_per_sec"`
	E18SelectiveRowEventsPerSec    float64 `json:"e18_selective_row_events_per_sec"`
	E18SelectivePrunedEventsPerSec float64 `json:"e18_selective_pruned_events_per_sec"`
	E18SelectiveRowBytes           int64   `json:"e18_selective_row_bytes"`
	E18SelectivePrunedBytes        int64   `json:"e18_selective_pruned_bytes"`
	E18BytesRatio                  float64 `json:"e18_bytes_ratio"`
	E18SpeedupX                    float64 `json:"e18_speedup_x"`
	E18ChunksScanned               int64   `json:"e18_chunks_scanned"`
	E18ChunksPruned                int64   `json:"e18_chunks_pruned"`
	E18RollupIdentical             bool    `json:"e18_rollup_identical"`

	MergePassP50Ns  int64 `json:"merge_pass_p50_ns"`
	MergePassP95Ns  int64 `json:"merge_pass_p95_ns"`
	MergePassP99Ns  int64 `json:"merge_pass_p99_ns"`
	SpillFlushP50Ns int64 `json:"spill_flush_p50_ns"`
	SpillFlushP95Ns int64 `json:"spill_flush_p95_ns"`
	SpillFlushP99Ns int64 `json:"spill_flush_p99_ns"`

	Telemetry telemetry.Snap `json:"telemetry"`

	measured bool
}

var dfMetrics dataflowMetrics

type env struct {
	fs    *hdfs.FS
	dict  *session.Dictionary
	truth *workload.Truth
	stats session.DayStats
	evs   []events.ClientEvent
	seqs  []string
	cfg   workload.Config
}

func main() {
	users := flag.Int("users", 400, "logged-in user population")
	loggedOut := flag.Int("loggedout", 400, "logged-out sessions (funnel traffic)")
	seed := flag.Int64("seed", 2012, "workload seed")
	only := flag.String("only", "", "comma-separated experiment ids (default: all)")
	benchJSON := flag.String("benchjson", "BENCH_realtime.json",
		"write machine-readable realtime metrics (e14/e15) to this file; empty disables")
	benchJSONDataflow := flag.String("benchjson-dataflow", "BENCH_dataflow.json",
		"write machine-readable dataflow metrics (e16/e17) to this file; empty disables")
	grid := flag.String("grid", "",
		"run the scenario experiment grid in this JSON file (see ci/scenarios/) and exit")
	gridOut := flag.String("grid-out", "", "override the grid's output_dir")
	flag.Parse()

	if *grid != "" {
		if err := runGrid(*grid, *gridOut); err != nil {
			fatal(err)
		}
		return
	}

	cfg := workload.DefaultConfig(day)
	cfg.Users = *users
	cfg.LoggedOutSessions = *loggedOut
	cfg.Seed = *seed

	fmt.Printf("# Experiment harness — %d users, %d logged-out sessions, seed %d\n\n",
		cfg.Users, cfg.LoggedOutSessions, cfg.Seed)

	start := time.Now()
	evs, truth := workload.New(cfg).Generate()
	fs := hdfs.New(0)
	w := warehouse.NewWriter(fs, events.Category)
	w.RollRecords = 4000
	for i := range evs {
		if err := w.Append(&evs[i]); err != nil {
			fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		fatal(err)
	}
	dict, _, stats, err := session.BuildDay(fs, day, 3)
	if err != nil {
		fatal(err)
	}
	var seqs []string
	if err := session.ScanDay(fs, day, func(r *session.Record) error {
		seqs = append(seqs, r.Sequence)
		return nil
	}); err != nil {
		fatal(err)
	}
	e := &env{fs: fs, dict: dict, truth: truth, stats: stats, evs: evs, seqs: seqs, cfg: cfg}
	fmt.Printf("corpus: %d events, %d sessions, %d event types (built in %v)\n\n",
		truth.Events, truth.Sessions, dict.Len(), time.Since(start).Round(time.Millisecond))

	experiments := []struct {
		id   string
		name string
		run  func(*env)
	}{
		{"e1", "session-sequence compression (§4.2 'about fifty times smaller')", e1},
		{"e2", "query latency: raw scan vs session sequences (§4.2)", e2},
		{"e3", "session reconstruction: legacy join vs unified vs materialized (§3.1/§4.1)", e3},
		{"e4", "map-task and scan reduction (§4.1 'tens of thousands of mappers')", e4},
		{"e5", "automatic rollup aggregation (§3.2)", e5},
		{"e6", "funnel analytics (§5.3 worked example)", e6},
		{"e7", "CTR/FTR recovery (§5.2, §4.1)", e7},
		{"e8", "n-gram language models over sessions (§5.4)", e8},
		{"e9", "activity collocations, PMI and G² (§5.4)", e9},
		{"e10", "pipeline fault tolerance (§2)", e10},
		{"e11", "Elephant Twin selective queries (§6)", e11},
		{"e12", "dictionary ordering ablation (§4.2 variable-length coding)", e12},
		{"e13", "ad-hoc segment queries via users-table join (§4.1, §5.2)", e13},
		{"e14", "realtime streaming counters: ingest, queries, lambda reconciliation (§6)", e14},
		{"e15", "realtime durability: WAL ingest overhead, crash recovery of ~1M events", e15},
		{"e16", "out-of-core dataflow: day-scale rollups under a spilling memory budget", e16},
		{"e17", "sort-merge dataflow: streaming merge-reduce, ordered groups, external OrderBy", e17},
		{"e18", "columnar sealed-day storage: zone-map pruning and pushdown vs row scan", e18},
	}
	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.TrimSpace(id)] = true
		}
	}
	for _, ex := range experiments {
		if len(want) > 0 && !want[ex.id] {
			continue
		}
		fmt.Printf("## %s — %s\n\n", strings.ToUpper(ex.id), ex.name)
		ex.run(e)
		fmt.Println()
	}

	if metrics.measured && *benchJSON != "" {
		metrics.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
		metrics.IngestApplyP50Ns, metrics.IngestApplyP95Ns, metrics.IngestApplyP99Ns = pcts("realtime.apply.batch.ns")
		metrics.WALAppendP50Ns, metrics.WALAppendP95Ns, metrics.WALAppendP99Ns = pcts("realtime.wal.append.ns")
		metrics.QueryPathSumP50Ns, metrics.QueryPathSumP95Ns, metrics.QueryPathSumP99Ns = pcts("realtime.query.pathsum.ns")
		metrics.Telemetry = telemetry.Snapshot()
		data, err := json.MarshalIndent(&metrics, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*benchJSON, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("realtime metrics written to %s\n", *benchJSON)
	}
	if dfMetrics.measured && *benchJSONDataflow != "" {
		dfMetrics.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
		dfMetrics.MergePassP50Ns, dfMetrics.MergePassP95Ns, dfMetrics.MergePassP99Ns = pcts("dataflow.stage.merge.ns")
		dfMetrics.SpillFlushP50Ns, dfMetrics.SpillFlushP95Ns, dfMetrics.SpillFlushP99Ns = pcts("dataflow.stage.spill.ns")
		dfMetrics.Telemetry = telemetry.Snapshot()
		data, err := json.MarshalIndent(&dfMetrics, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*benchJSONDataflow, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("dataflow metrics written to %s\n", *benchJSONDataflow)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchrunner:", err)
	os.Exit(1)
}

// pcts reads the p50/p95/p99 summary of one telemetry histogram; zeros if
// no experiment that feeds it ran.
func pcts(name string) (p50, p95, p99 int64) {
	s := telemetry.GetHistogram(name).Summary()
	return s.P50, s.P95, s.P99
}

func e1(e *env) {
	fmt.Printf("  raw client-event logs (gzipped):   %10d bytes\n", e.stats.RawBytes)
	fmt.Printf("  materialized session sequences:    %10d bytes\n", e.stats.SeqBytes)
	fmt.Printf("  ratio:                             %10.1fx smaller (paper: ~50x)\n", e.stats.Ratio())
}

func timeIt(fn func()) time.Duration {
	t0 := time.Now()
	fn()
	return time.Since(t0)
}

func e2(e *env) {
	m, err := analytics.MatcherFromPattern("*:profile_click")
	if err != nil {
		fatal(err)
	}
	var rawRep, seqRep analytics.CountReport
	rawJob := dataflow.NewJob("raw", e.fs)
	rawT := timeIt(func() { rawRep, err = analytics.CountRawDay(rawJob, day, m) })
	if err != nil {
		fatal(err)
	}
	seqJob := dataflow.NewJob("seq", e.fs)
	seqT := timeIt(func() { seqRep, err = analytics.CountSequencesDay(seqJob, day, e.dict, m) })
	if err != nil {
		fatal(err)
	}
	fmt.Printf("  query: count *:profile_click events and sessions containing one\n")
	fmt.Printf("  %-22s %12s %12s %10s %12s %10s\n", "path", "events", "sessions", "latency", "bytes-read", "cluster-s")
	rs, ss := rawJob.Stats(), seqJob.Stats()
	fmt.Printf("  %-22s %12d %12d %10v %12d %10.1f\n", "raw logs", rawRep.Events, rawRep.Sessions, rawT.Round(time.Millisecond), rs.BytesRead, rs.ClusterSeconds())
	fmt.Printf("  %-22s %12d %12d %10v %12d %10.1f\n", "session sequences", seqRep.Events, seqRep.Sessions, seqT.Round(time.Millisecond), ss.BytesRead, ss.ClusterSeconds())
	fmt.Printf("  speedup: %.0fx latency, %.0fx bytes, answers identical: %v\n",
		float64(rawT)/float64(seqT), float64(rs.BytesRead)/float64(ss.BytesRead), rawRep == seqRep)
}

func e3(e *env) {
	// Legacy: write the same traffic as application-specific logs.
	lfs := hdfs.New(0)
	type sink struct {
		buf *memBuf
		w   *recordio.GzipWriter
	}
	sinks := map[string]*sink{}
	for i := range e.evs {
		cat, rec := legacy.FromClientEvent(&e.evs[i])
		s := sinks[cat]
		if s == nil {
			mb := &memBuf{}
			s = &sink{buf: mb, w: recordio.NewGzipWriter(mb)}
			sinks[cat] = s
		}
		if err := s.w.Append(rec); err != nil {
			fatal(err)
		}
	}
	dirs := map[string][]string{}
	for cat, s := range sinks {
		if err := s.w.Close(); err != nil {
			fatal(err)
		}
		dir := warehouse.HourDir(cat, day)
		if err := lfs.WriteFile(dir+"/part-00000.gz", s.buf.data); err != nil {
			fatal(err)
		}
		dirs[cat] = []string{dir}
	}

	legacyJob := dataflow.NewJob("legacy", lfs)
	var legacySessions int64
	legacyT := timeIt(func() {
		var err error
		legacySessions, err = legacy.ReconstructSessions(legacyJob, dirs, session.InactivityGap)
		if err != nil {
			fatal(err)
		}
	})

	unifiedJob := dataflow.NewJob("unified", e.fs)
	var unifiedGroups int
	unifiedT := timeIt(func() {
		d, err := unifiedJob.LoadClientEventsDay(day)
		if err != nil {
			fatal(err)
		}
		p, err := d.Project("user_id", "session_id", "name", "timestamp")
		if err != nil {
			fatal(err)
		}
		g, err := p.GroupBy("user_id", "session_id")
		if err != nil {
			fatal(err)
		}
		defer g.Close()
		unifiedGroups, err = g.NumGroups()
		if err != nil {
			fatal(err)
		}
	})

	matJob := dataflow.NewJob("materialized", e.fs)
	var matSessions int64
	matT := timeIt(func() {
		d, err := matJob.LoadSessionSequencesDay(day)
		if err != nil {
			fatal(err)
		}
		matSessions, err = d.Count()
		if err != nil {
			fatal(err)
		}
	})

	fmt.Printf("  task: reconstruct user sessions for one day\n")
	fmt.Printf("  %-34s %10s %12s %14s\n", "approach", "latency", "bytes-read", "shuffle-bytes")
	fmt.Printf("  %-34s %10v %12d %14d   (%d sessions via user-id+time join)\n",
		"legacy app-specific logs (3 joins)", legacyT.Round(time.Millisecond), legacyJob.Stats().BytesRead, legacyJob.Stats().ShuffleBytes, legacySessions)
	fmt.Printf("  %-34s %10v %12d %14d   (%d groups via one group-by)\n",
		"unified client events", unifiedT.Round(time.Millisecond), unifiedJob.Stats().BytesRead, unifiedJob.Stats().ShuffleBytes, unifiedGroups)
	fmt.Printf("  %-34s %10v %12d %14d   (%d sessions pre-materialized)\n",
		"session sequences", matT.Round(time.Millisecond), matJob.Stats().BytesRead, matJob.Stats().ShuffleBytes, matSessions)
	fmt.Printf("  ground truth: %d sessions. The legacy path undercounts: without a\n", e.truth.Sessions)
	fmt.Printf("  consistent session id it joins on user id alone, merging interleaved\n")
	fmt.Printf("  anonymous traffic — the accuracy problem §3.2 says unified logging fixed.\n")
}

func e4(e *env) {
	// Loads are lazy now: driving the scan (Count) is what spawns the map
	// tasks and charges the bytes.
	rawJob := dataflow.NewJob("raw", e.fs)
	rawDS, err := rawJob.LoadClientEventsDay(day)
	if err != nil {
		fatal(err)
	}
	if _, err := rawDS.Count(); err != nil {
		fatal(err)
	}
	seqJob := dataflow.NewJob("seq", e.fs)
	seqDS, err := seqJob.LoadSessionSequencesDay(day)
	if err != nil {
		fatal(err)
	}
	if _, err := seqDS.Count(); err != nil {
		fatal(err)
	}
	rs, ss := rawJob.Stats(), seqJob.Stats()
	fmt.Printf("  %-22s %10s %12s %12s %10s\n", "input", "map-tasks", "bytes", "blocks", "cluster-s")
	fmt.Printf("  %-22s %10d %12d %12d %10.1f\n", "raw logs", rs.MapTasks, rs.BytesRead, rs.BlocksRead, rs.ClusterSeconds())
	fmt.Printf("  %-22s %10d %12d %12d %10.1f\n", "session sequences", ss.MapTasks, ss.BytesRead, ss.BlocksRead, ss.ClusterSeconds())
	fmt.Printf("  reduction: %.0fx tasks, %.0fx bytes\n",
		float64(rs.MapTasks)/float64(ss.MapTasks), float64(rs.BytesRead)/float64(ss.BytesRead))
}

func e5(e *env) {
	j := dataflow.NewJob("rollups", e.fs)
	rollups, err := analytics.Rollups(j, day)
	if err != nil {
		fatal(err)
	}
	perLevel := make([]int64, events.NumRollupLevels)
	rows := make([]int, events.NumRollupLevels)
	for k, n := range rollups {
		perLevel[k.Level] += n
		rows[k.Level]++
	}
	fmt.Printf("  %-54s %8s %12s\n", "rollup schema", "rows", "events")
	labels := []string{
		"(client, page, section, component, element, action)",
		"(client, page, section, component, *, action)",
		"(client, page, section, *, *, action)",
		"(client, page, *, *, *, action)",
		"(client, *, *, *, *, action)",
	}
	for lvl := 0; lvl < events.NumRollupLevels; lvl++ {
		fmt.Printf("  %-54s %8d %12d\n", labels[lvl], rows[lvl], perLevel[lvl])
	}
	fmt.Printf("  every level conserves the %d daily events; example top-level metric:\n", e.truth.Events)
	name := "web:*:*:*:*:profile_click"
	fmt.Printf("    %s = %d (by country & login status in the full table)\n",
		name, analytics.RollupTotal(rollups, 4, name))
}

func e6(e *env) {
	stages := make([]analytics.Matcher, 5)
	stageNames := workload.FunnelStages("web")
	for i, full := range stageNames {
		suffix := full[len("web"):]
		stages[i] = func(name string) bool { return strings.HasSuffix(name, suffix) }
	}
	f := analytics.NewFunnel(e.dict, stages...)
	j := dataflow.NewJob("funnel", e.fs)
	rep, err := analytics.FunnelSequencesDay(j, day, f)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("  signup funnel over %d sessions (paper's §5.3 output format):\n", rep.Examined)
	for i, n := range rep.Completed {
		fmt.Printf("    (%d, %d)   truth: %d\n", i, n, e.truth.FunnelStage[i])
	}
	fmt.Printf("  measured per-stage continuation vs planted:\n")
	for i := 0; i+1 < len(rep.Completed); i++ {
		got := 0.0
		if rep.Completed[i] > 0 {
			got = float64(rep.Completed[i+1]) / float64(rep.Completed[i])
		}
		fmt.Printf("    stage %d->%d: measured %.3f, planted %.3f\n", i, i+1, got, e.cfg.FunnelContinue[i])
	}
}

func e7(e *env) {
	fmt.Printf("  %-18s %12s %10s %10s %10s\n", "feature", "impressions", "clicks", "ctr", "planted")
	features := []string{workload.FeatureWhoToFollow, workload.FeatureSearch, workload.FeatureTrends, workload.FeatureDiscover}
	for _, feature := range features {
		impSuffix := workload.FeatureImpressionName("web", feature)[len("web"):]
		clkSuffix := workload.FeatureClickName("web", feature)[len("web"):]
		imp := func(n string) bool { return strings.HasSuffix(n, impSuffix) }
		clk := func(n string) bool { return strings.HasSuffix(n, clkSuffix) }
		rep, err := analytics.RateOverSequences(e.fs, day, e.dict, imp, clk)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("  %-18s %12d %10d %10.3f %10.3f\n", feature, rep.Impressions, rep.Actions, rep.Rate(), e.cfg.CTR[feature])
	}
	// FTR for who-to-follow.
	impSuffix := workload.FeatureImpressionName("web", workload.FeatureWhoToFollow)[len("web"):]
	folSuffix := workload.FeatureFollowName("web", workload.FeatureWhoToFollow)[len("web"):]
	rep, err := analytics.RateOverSequences(e.fs, day, e.dict,
		func(n string) bool { return strings.HasSuffix(n, impSuffix) },
		func(n string) bool { return strings.HasSuffix(n, folSuffix) })
	if err != nil {
		fatal(err)
	}
	fmt.Printf("  %-18s %12d %10d %10.3f %10.3f  (follow-through)\n",
		"who_to_follow FTR", rep.Impressions, rep.Actions, rep.Rate(), e.cfg.FTR[workload.FeatureWhoToFollow])
}

func e8(e *env) {
	split := len(e.seqs) * 4 / 5
	train, test := e.seqs[:split], e.seqs[split:]
	fmt.Printf("  perplexity of held-out sessions by n-gram order (%d train / %d test):\n", len(train), len(test))
	fmt.Printf("  %8s %12s %14s\n", "order", "perplexity", "cross-entropy")
	for order := 1; order <= 4; order++ {
		m := ngram.NewModel(order)
		m.TrainAll(train)
		h, err := m.CrossEntropy(test)
		if err != nil {
			fatal(err)
		}
		p, err := m.Perplexity(test)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("  %8d %12.2f %14.3f\n", order, p, h)
	}
	fmt.Printf("  decreasing perplexity = real temporal signal in user behavior (§5.4)\n")
}

func e9(e *env) {
	s := colloc.Collect(e.seqs)
	fmt.Printf("  top adjacent-event collocates by Dunning G² (min count 5):\n")
	fmt.Printf("  %10s %8s %10s  %s\n", "G²", "count", "PMI", "pair")
	for _, p := range s.TopLLR(5, 5) {
		a, _ := e.dict.Name(p.A)
		b, _ := e.dict.Name(p.B)
		fmt.Printf("  %10.1f %8d %10.2f  %s -> %s\n", p.Score, p.Count, s.PMI(p.A, p.B), a, b)
	}
	ex, _ := e.dict.Symbol("web:home:timeline:stream:tweet:expand")
	pc, _ := e.dict.Symbol("web:home:timeline:stream:avatar:profile_click")
	fmt.Printf("  planted pair (expand -> profile_click, p=%.2f): G²=%.1f, PMI=%.2f\n",
		e.cfg.CollocationProb, s.LLR(ex, pc), s.PMI(ex, pc))
}

func e10(e *env) {
	// A compact replay of the integration scenario with counters printed.
	clock := zk.NewManualClock(day)
	dc1, err := scribe.NewDatacenter("dc1", hdfs.New(0), clock, 2, 3, 11)
	if err != nil {
		fatal(err)
	}
	dc2, err := scribe.NewDatacenter("dc2", hdfs.New(0), clock, 2, 3, 22)
	if err != nil {
		fatal(err)
	}
	dcs := []*scribe.Datacenter{dc1, dc2}
	wh := hdfs.New(0)
	mover := logmover.New(wh,
		logmover.Source{Datacenter: "dc1", FS: dc1.Staging},
		logmover.Source{Datacenter: "dc2", FS: dc2.Staging})
	i := 0
	var accepted int64
	for hr := 0; hr < 24; hr++ {
		hour := day.Add(time.Duration(hr) * time.Hour)
		if hr == 6 {
			_ = dc1.Aggregators[0].Stop() // graceful restart
		}
		if hr == 10 {
			dc2.Staging.SetAvailable(false)
		}
		if hr == 12 {
			dc2.Staging.SetAvailable(true)
		}
		for ; i < len(e.evs) && e.evs[i].Timestamp < hour.Add(time.Hour).UnixMilli(); i++ {
			ev := &e.evs[i]
			dc := dcs[int(ev.UserID+int64(len(ev.SessionID)))%2]
			dc.Daemons[int(ev.Timestamp)%len(dc.Daemons)].Log(events.Category, ev.Marshal())
			accepted++
		}
		clock.Advance(time.Hour)
		for _, dc := range dcs {
			_ = dc.SealHour([]string{events.Category}, hour) // fails during outage; resealed below
		}
		if _, err := mover.MoveAllSealed(); err != nil {
			fatal(err)
		}
	}
	for hr := 0; hr < 24; hr++ {
		for _, dc := range dcs {
			if err := dc.SealHour([]string{events.Category}, day.Add(time.Duration(hr)*time.Hour)); err != nil {
				fatal(err)
			}
		}
	}
	if _, err := mover.MoveAllSealed(); err != nil {
		fatal(err)
	}
	var inWarehouse int64
	if err := warehouse.ScanDay(wh, events.Category, day, func(*events.ClientEvent) error {
		inWarehouse++
		return nil
	}); err != nil {
		fatal(err)
	}
	var redisc, sendFail, flushFail, dropped int64
	for _, dc := range dcs {
		for _, d := range dc.Daemons {
			s := d.Stats()
			redisc += s.Rediscoveries
			sendFail += s.SendFailures
		}
		for _, a := range dc.Aggregators {
			s := a.Stats()
			flushFail += s.FlushFailures
			dropped += s.MessagesDropped
		}
	}
	fmt.Printf("  faults injected: 1 aggregator restart (hour 6), staging outage hours 10-12\n")
	fmt.Printf("  accepted by daemons:   %d\n", accepted)
	fmt.Printf("  landed in warehouse:   %d (exactly once: %v)\n", inWarehouse, inWarehouse == accepted)
	fmt.Printf("  zk rediscoveries: %d, send failures: %d, staging flush failures: %d, dropped: %d\n",
		redisc, sendFail, flushFail, dropped)
	mv := mover.Audits()
	var filesIn, filesOut int
	for _, a := range mv {
		filesIn += a.FilesIn
		filesOut += a.FilesOut
	}
	fmt.Printf("  log mover: %d hourly moves, %d staging files merged into %d warehouse files\n",
		len(mv), filesIn, filesOut)
}

func e11(e *env) {
	if _, err := twin.IndexDay(e.fs, events.Category, day); err != nil {
		fatal(err)
	}
	defer func() {
		if _, err := twin.DropIndexes(e.fs, warehouse.CategoryDir(events.Category)); err != nil {
			fatal(err)
		}
	}()
	// Selectivity sweep: from a common event to a very rare one.
	targets := []struct {
		label string
		match func(string) bool
	}{
		{"~common: page opens", func(n string) bool { return strings.HasSuffix(n, ":page:open") }},
		{"selective: funnel complete", func(n string) bool { return strings.HasSuffix(n, ":signup:flow:step:complete:view") }},
		{"rare: ipad funnel complete", func(n string) bool { return n == "ipad:signup:flow:step:complete:view" }},
	}
	fmt.Printf("  %-28s %10s %12s %12s %12s\n", "query", "matches", "files-read", "files-skip", "bytes-read")
	for _, tgt := range targets {
		f := &twin.IndexedFormat{Match: tgt.match}
		j := dataflow.NewJob("twin", e.fs)
		d, err := j.LoadDirs(dataflow.HourDirs(e.fs, events.Category, day), f)
		if err != nil {
			fatal(err)
		}
		matches, err := d.Count()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("  %-28s %10d %12d %12d %12d\n", tgt.label, matches, j.Stats().FilesRead, f.SkippedFiles(), j.Stats().BytesRead)
	}
	full := dataflow.NewJob("full", e.fs)
	fullDS, err := full.LoadClientEventsDay(day)
	if err != nil {
		fatal(err)
	}
	if _, err := fullDS.Count(); err != nil {
		fatal(err)
	}
	fmt.Printf("  %-28s %10s %12d %12d %12d\n", "full scan baseline", "-", full.Stats().FilesRead, 0, full.Stats().BytesRead)
}

func e12(e *env) {
	// Re-encode the day's sessions under shuffled code-point assignment.
	names := e.dict.Names()
	rng := rand.New(rand.NewSource(42))
	perm := rng.Perm(len(names))
	h := make(map[string]int64, len(names))
	for i, name := range names {
		h[name] = int64(len(names) - perm[i])
	}
	shuffled, err := session.Build(h)
	if err != nil {
		fatal(err)
	}
	var freqBytes, shufBytes int64
	for _, seq := range e.seqs {
		ns, err := e.dict.Decode(seq)
		if err != nil {
			fatal(err)
		}
		freqBytes += int64(len(seq))
		enc, err := shuffled.Encode(ns)
		if err != nil {
			fatal(err)
		}
		shufBytes += int64(len(enc))
	}
	fmt.Printf("  UTF-8 bytes of all %d session sequences:\n", len(e.seqs))
	fmt.Printf("    frequency-ordered dictionary: %10d\n", freqBytes)
	fmt.Printf("    shuffled dictionary:          %10d\n", shufBytes)
	fmt.Printf("    saving from frequency order:  %9.1f%%\n", 100*(1-float64(freqBytes)/float64(shufBytes)))
}

func e13(e *env) {
	if err := users.Write(e.fs, e.truth); err != nil {
		fatal(err)
	}
	uj := dataflow.NewJob("users", e.fs)
	usersDS, err := uj.Load(users.Dir, users.Format())
	if err != nil {
		fatal(err)
	}
	impSuffix := workload.FeatureImpressionName("web", workload.FeatureWhoToFollow)[len("web"):]
	clkSuffix := workload.FeatureClickName("web", workload.FeatureWhoToFollow)[len("web"):]
	imp := func(n string) bool { return strings.HasSuffix(n, impSuffix) }
	clk := func(n string) bool { return strings.HasSuffix(n, clkSuffix) }
	fmt.Printf("  who-to-follow CTR per user segment (join users table + select, then count):\n")
	fmt.Printf("  %-10s %12s %10s %10s\n", "segment", "impressions", "clicks", "ctr")
	for _, country := range []string{"us", "jp", "uk", "br", "in"} {
		j := dataflow.NewJob("segment-"+country, e.fs)
		rep, err := analytics.RateForSegment(j, day, e.dict, imp, clk, usersDS, analytics.ColumnEquals("country", country))
		if err != nil {
			fatal(err)
		}
		fmt.Printf("  %-10s %12d %10d %10.3f\n", country, rep.Impressions, rep.Actions, rep.Rate())
	}
	fmt.Printf("  planted CTR %.3f is country-independent; every sizable segment recovers it\n",
		e.cfg.CTR[workload.FeatureWhoToFollow])
}

func e14(e *env) {
	// Ingest throughput: replay the day through the sharded counters until
	// at least one million events have been fanned out, four producers in
	// parallel — the scale the subsystem is built for.
	const producers = 4
	target := 1_000_000
	reps := (target + len(e.evs) - 1) / len(e.evs)
	rt := realtime.New(realtime.Config{Shards: 4})
	defer rt.Close()
	var msBefore, msAfter runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	start := time.Now()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			b := rt.NewBatcher()
			for r := p; r < reps; r += producers {
				for i := range e.evs {
					b.Add(&e.evs[i])
				}
			}
			b.Flush()
		}(p)
	}
	wg.Wait()
	rt.Sync()
	ingestT := time.Since(start)
	runtime.ReadMemStats(&msAfter)
	st := rt.Stats()
	allocsPerEvent := float64(msAfter.Mallocs-msBefore.Mallocs) / float64(st.Observed)
	fmt.Printf("  ingest: %d events (day replayed %dx) through %d shards in %v — %.0f events/s, %.3f allocs/event\n",
		st.Observed, reps, rt.Shards(), ingestT.Round(time.Millisecond), float64(st.Observed)/ingestT.Seconds(), allocsPerEvent)
	fmt.Printf("  backpressure: %d full-queue waits; dropped-old %d, decode errors %d\n",
		st.QueueFull, st.DroppedOld, st.DecodeErrors)
	metrics.measured = true
	metrics.Events = st.Observed
	metrics.IngestEventsPerSec = float64(st.Observed) / ingestT.Seconds()
	metrics.IngestAllocsPerEvent = allocsPerEvent

	// Query latency over the populated windows.
	end := day.Add(24 * time.Hour)
	lat := func(name string, n int, fn func()) {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		fmt.Printf("  %-34s %10v/op\n", name, (time.Since(t0) / time.Duration(n)).Round(time.Microsecond))
	}
	lat("point lookup PathSum(web, day)", 200, func() { rt.PathSum("web", day, end) })
	lat("windowed sum PathSum(web, 1h)", 200, func() { rt.PathSum("web", day.Add(12*time.Hour), day.Add(13*time.Hour)) })
	lat("prefix top-5 TopK(web:home)", 50, func() { rt.TopK("web:home", 5, day, end) })
	lat("rollup total (level 4)", 200, func() { rt.RollupTotal(4, "web:*:*:*:*:profile_click", day, end) })
	fmt.Printf("  consistency: PathSum(web) = %d over %d replays (per-replay %d)\n",
		rt.PathSum("web", day, end), reps, rt.PathSum("web", day, end)/int64(reps))

	// Lambda reconciliation: the streaming path must agree exactly with
	// the batch rollup job on a sealed day.
	start = time.Now()
	rep, err := realtime.Reconcile(e.fs, day, realtime.Config{Shards: 4})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("  %s (replay+diff in %v)\n", rep, time.Since(start).Round(time.Millisecond))
	metrics.ReconcileOK = rep.OK()
}

func e15(e *env) {
	// The durability question: what does write-ahead logging cost the
	// ingest hot path, and how fast does a killed counter come back? Same
	// setup as E14 — replay the day until ~1M events, four producers —
	// once memory-only and once with the WAL on, then kill the durable
	// counter and time realtime.Open.
	const producers = 4
	target := 1_000_000
	reps := (target + len(e.evs) - 1) / len(e.evs)
	ingest := func(rt *realtime.Counter) (int64, time.Duration) {
		start := time.Now()
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				b := rt.NewBatcher()
				for r := p; r < reps; r += producers {
					for i := range e.evs {
						b.Add(&e.evs[i])
					}
				}
				b.Flush()
			}(p)
		}
		wg.Wait()
		rt.Sync()
		return rt.Stats().Observed, time.Since(start)
	}

	mem := realtime.New(realtime.Config{Shards: 4})
	memN, memT := ingest(mem)
	mem.Close()
	memRate := float64(memN) / memT.Seconds()
	fmt.Printf("  %-34s %12d events %10v %12.0f events/s\n", "WAL off (memory only)", memN, memT.Round(time.Millisecond), memRate)

	dir, err := os.MkdirTemp("", "benchrunner-wal-")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(dir)
	// Snapshots disabled for the run so recovery replays the full WAL —
	// the worst case the snapshotter normally bounds.
	cfg := realtime.Config{Shards: 4, SnapshotEvery: time.Hour}
	dur, err := realtime.Open(dir, cfg)
	if err != nil {
		fatal(err)
	}
	durN, durT := ingest(dur)
	durRate := float64(durN) / durT.Seconds()
	st := dur.Stats()
	fmt.Printf("  %-34s %12d events %10v %12.0f events/s\n", "WAL on (batch fsync)", durN, durT.Round(time.Millisecond), durRate)
	fmt.Printf("  overhead: %.2fx slower with the WAL (%d batches, %.1f MiB logged, %d fsyncs, %.1f B/event)\n",
		memRate/durRate, st.WALBatches, float64(st.WALBytes)/(1<<20), st.Fsyncs, float64(st.WALBytes)/float64(durN))

	dur.Crash()
	start := time.Now()
	rec, err := realtime.Open(dir, cfg)
	if err != nil {
		fatal(err)
	}
	recT := time.Since(start)
	end := day.Add(24 * time.Hour)
	fmt.Printf("  crash recovery: %d events rebuilt in %v (%.0f events/s replay), exact: %v\n",
		rec.Stats().Observed, recT.Round(time.Millisecond),
		float64(rec.Stats().Observed)/recT.Seconds(), rec.Stats().Observed == durN)
	fmt.Printf("  recovered PathSum(web) = %d (live engine served %d)\n",
		rec.PathSum("web", day, end), mem.PathSum("web", day, end))
	rec.Close()

	metrics.measured = true
	if metrics.Events == 0 {
		metrics.Events = durN
	}
	metrics.WALIngestEventsPerSec = durRate
	metrics.WALBytesPerEvent = float64(st.WALBytes) / float64(durN)
	metrics.WALOverheadX = memRate / durRate
	metrics.RecoveryMillis = float64(recT.Milliseconds())
	metrics.RecoveryEventsPerSec = float64(durN) / recT.Seconds()
}

func e16(e *env) {
	// The out-of-core question: can the batch vertical roll up a synthetic
	// day an order of magnitude past the shared corpus while the group-by
	// is forbidden from holding the shuffle in memory? The run executes
	// twice — once under a deliberately tiny Job.MemoryBudget (forcing the
	// hash partitions to spill and merge partition-at-a-time) and once
	// unbudgeted — and the two rollup tables must be identical.
	cfg := e.cfg
	cfg.Users = e.cfg.Users * 12
	cfg.LoggedOutSessions = e.cfg.LoggedOutSessions * 12
	cfg.Seed = e.cfg.Seed + 16
	bigFS, truth := synthesizeDay(cfg)
	scale := float64(truth.Events) / float64(e.truth.Events)
	fmt.Printf("  synthetic day: %d events (%.1fx the shared E-series corpus)\n", truth.Events, scale)
	if scale < 10 {
		fatal(fmt.Errorf("e16: synthetic day only %.1fx the shared corpus, want >= 10x", scale))
	}

	const budget = 32 << 10 // 32 KiB: far below the shuffle, so spilling is mandatory
	spillDir, err := os.MkdirTemp("", "benchrunner-spill-")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(spillDir)

	bj := dataflow.NewJob("rollups-budget", bigFS)
	bj.MemoryBudget = budget
	bj.SpillDir = spillDir
	var budgeted map[analytics.RollupKey]int64
	bt := timeIt(func() {
		var err error
		budgeted, err = analytics.Rollups(bj, day)
		if err != nil {
			fatal(err)
		}
	})
	bst := bj.Stats()

	mj := dataflow.NewJob("rollups-inmem", bigFS)
	var inmem map[analytics.RollupKey]int64
	mt := timeIt(func() {
		var err error
		inmem, err = analytics.Rollups(mj, day)
		if err != nil {
			fatal(err)
		}
	})

	identical := len(budgeted) == len(inmem)
	if identical {
		for k, v := range inmem {
			if budgeted[k] != v {
				identical = false
				break
			}
		}
	}
	fmt.Printf("  %-26s %10s %12s %14s %10s\n", "rollup run", "latency", "rows", "spilled-bytes", "events/s")
	fmt.Printf("  %-26s %10v %12d %14d %10.0f\n", fmt.Sprintf("budget %d KiB", budget>>10),
		bt.Round(time.Millisecond), len(budgeted), bst.SpilledBytes, float64(truth.Events)/bt.Seconds())
	fmt.Printf("  %-26s %10v %12d %14d %10.0f\n", "unbudgeted (in-memory)",
		mt.Round(time.Millisecond), len(inmem), mj.Stats().SpilledBytes, float64(truth.Events)/mt.Seconds())
	fmt.Printf("  peak-RSS proxy under budget: %d sorted runs, %d spilled records, %d merge passes\n",
		bst.SpillRuns, bst.SpilledRecords, bst.MergePasses)
	fmt.Printf("  rollup tables identical: %v\n", identical)
	if !identical {
		fatal(fmt.Errorf("e16: spilling and in-memory rollups diverged"))
	}
	if bst.SpillRuns < 2 {
		fatal(fmt.Errorf("e16: only %d spilled runs — the budget did not force external grouping", bst.SpillRuns))
	}
	if mj.Stats().SpilledBytes != 0 {
		fatal(fmt.Errorf("e16: unbudgeted run spilled"))
	}

	// The raw sessionization group-by at the same scale — the operator the
	// budget really protects, since its shuffle input is every event (the
	// rollup job's combiner already shrank its shuffle to distinct rows).
	countGroups := func(budgeted bool) (int, dataflow.Stats) {
		j := dataflow.NewJob("sessions", bigFS)
		if budgeted {
			j.MemoryBudget = budget
			j.SpillDir = spillDir
		}
		d, err := j.LoadClientEventsDay(day)
		if err != nil {
			fatal(err)
		}
		p, err := d.Project("user_id", "session_id")
		if err != nil {
			fatal(err)
		}
		g, err := p.GroupBy("user_id", "session_id")
		if err != nil {
			fatal(err)
		}
		defer g.Close()
		n, err := g.NumGroups()
		if err != nil {
			fatal(err)
		}
		return n, j.Stats()
	}
	bg, bgs := countGroups(true)
	mg, _ := countGroups(false)
	fmt.Printf("  session group-by: %d groups budgeted vs %d in-memory (equal: %v); spilled %.1f MiB in %d runs\n",
		bg, mg, bg == mg, float64(bgs.SpilledBytes)/(1<<20), bgs.SpillRuns)
	if bg != mg {
		fatal(fmt.Errorf("e16: session group-by diverged under budget"))
	}
	if bgs.SpillRuns < 2 {
		fatal(fmt.Errorf("e16: session group-by spilled %d runs, want >= 2", bgs.SpillRuns))
	}

	dfMetrics.measured = true
	dfMetrics.Events = truth.Events
	dfMetrics.BaselineEvents = e.truth.Events
	dfMetrics.ScaleX = scale
	dfMetrics.MemoryBudgetBytes = budget
	dfMetrics.RollupRows = len(budgeted)
	dfMetrics.RollupEventsPerSec = float64(truth.Events) / bt.Seconds()
	dfMetrics.InMemRollupEventsPerSec = float64(truth.Events) / mt.Seconds()
	dfMetrics.SpilledBytes = bst.SpilledBytes + bgs.SpilledBytes
	dfMetrics.SpilledRecords = bst.SpilledRecords + bgs.SpilledRecords
	dfMetrics.SpillFlushes = bst.SpillFlushes + bgs.SpillFlushes
	dfMetrics.MergePasses = bst.MergePasses + bgs.MergePasses
	dfMetrics.ShuffleBytes = bst.ShuffleBytes + bgs.ShuffleBytes
	dfMetrics.SessionGroups = bg
	dfMetrics.Identical = identical
}

// synthesizeDay streams a synthetic day straight into a fresh warehouse —
// generator events flow into the writer one at a time, so day scale is no
// longer bounded by a materialized []events.ClientEvent.
func synthesizeDay(cfg workload.Config) (*hdfs.FS, *workload.Truth) {
	fs := hdfs.New(0)
	w := warehouse.NewWriter(fs, events.Category)
	w.RollRecords = 4000
	truth, err := workload.New(cfg).GenerateTo(func(ev *events.ClientEvent) error {
		return w.Append(ev)
	})
	if err != nil {
		fatal(err)
	}
	if err := w.Close(); err != nil {
		fatal(err)
	}
	return fs, truth
}

func e17(e *env) {
	// The sort-merge question: with the shuffle spilling *sorted runs* and
	// the reduce side a streaming k-way merge, reduce memory is bounded by
	// run fan-in instead of group count — while producing byte-identical
	// relations. Three legs, all on a streamed synthetic day an order of
	// magnitude past the shared corpus, all under a deliberately tiny
	// budget: the §3.2 rollup table (vs the in-memory path), an
	// ordered-group sessionization (GroupByOrdered delivers each session's
	// events time-sorted, no reducer re-sort), and a day-scale external
	// OrderBy that never materializes its input.
	cfg := e.cfg
	cfg.Users = e.cfg.Users * 12
	cfg.LoggedOutSessions = e.cfg.LoggedOutSessions * 12
	cfg.Seed = e.cfg.Seed + 17
	bigFS, truth := synthesizeDay(cfg)
	fmt.Printf("  synthetic day: %d events (%.1fx the shared corpus), streamed into the warehouse\n",
		truth.Events, float64(truth.Events)/float64(e.truth.Events))

	const budget = 32 << 10
	spillDir, err := os.MkdirTemp("", "benchrunner-sortmerge-")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(spillDir)
	budgeted := func(name string) *dataflow.Job {
		j := dataflow.NewJob(name, bigFS)
		j.MemoryBudget = budget
		j.SpillDir = spillDir
		return j
	}

	// Leg 1: rollups under budget vs in memory — byte-identical tables.
	bj := budgeted("rollups-sortmerge")
	var bRoll map[analytics.RollupKey]int64
	bt := timeIt(func() {
		var err error
		bRoll, err = analytics.Rollups(bj, day)
		if err != nil {
			fatal(err)
		}
	})
	mj := dataflow.NewJob("rollups-inmem", bigFS)
	var mRoll map[analytics.RollupKey]int64
	mt := timeIt(func() {
		var err error
		mRoll, err = analytics.Rollups(mj, day)
		if err != nil {
			fatal(err)
		}
	})
	rollIdentical := len(bRoll) == len(mRoll)
	if rollIdentical {
		for k, v := range mRoll {
			if bRoll[k] != v {
				rollIdentical = false
				break
			}
		}
	}
	bst := bj.Stats()
	fmt.Printf("  rollups: budgeted %v vs in-memory %v over %d rows; identical: %v\n",
		bt.Round(time.Millisecond), mt.Round(time.Millisecond), len(bRoll), rollIdentical)
	fmt.Printf("  reduce memory proxy: %d sorted runs spilled, %d run cursors merged, peak fan-in %d (one buffered tuple per run)\n",
		bst.SpillRuns, bst.MergeRuns, bst.PeakRunFanIn)
	if !rollIdentical {
		fatal(fmt.Errorf("e17: sort-merge and in-memory rollups diverged"))
	}
	if bst.SpillRuns == 0 || bst.PeakRunFanIn < 2 {
		fatal(fmt.Errorf("e17: budget did not force a multi-run merge (runs=%d fan-in=%d)", bst.SpillRuns, bst.PeakRunFanIn))
	}

	// Leg 2: ordered-group sessionization — the raw-log count with the
	// shuffle's secondary sort, budgeted vs in-memory.
	m, err := analytics.MatcherFromPattern("*:profile_click")
	if err != nil {
		fatal(err)
	}
	sj := budgeted("sessionize-sortmerge")
	var bRep analytics.CountReport
	sbt := timeIt(func() {
		var err error
		bRep, err = analytics.CountRawDay(sj, day, m)
		if err != nil {
			fatal(err)
		}
	})
	smj := dataflow.NewJob("sessionize-inmem", bigFS)
	var mRep analytics.CountReport
	smt := timeIt(func() {
		var err error
		mRep, err = analytics.CountRawDay(smj, day, m)
		if err != nil {
			fatal(err)
		}
	})
	fmt.Printf("  ordered sessionization: %d sessions, %d matching events; budgeted %v (%.0f events/s) vs in-memory %v; identical: %v\n",
		bRep.TotalSessions, bRep.Events, sbt.Round(time.Millisecond),
		float64(truth.Events)/sbt.Seconds(), smt.Round(time.Millisecond), bRep == mRep)
	if bRep != mRep {
		fatal(fmt.Errorf("e17: ordered-group sessionization diverged under budget"))
	}
	if sj.Stats().SpillRuns == 0 {
		fatal(fmt.Errorf("e17: sessionization never spilled a sorted run"))
	}

	// Leg 3: external OrderBy over the day (projected first, §4.1) — the
	// sort streams through sorted runs, never through Tuples().
	oj := budgeted("orderby-sortmerge")
	d, err := oj.LoadClientEventsDay(day)
	if err != nil {
		fatal(err)
	}
	p, err := d.Project("timestamp", "name", "user_id")
	if err != nil {
		fatal(err)
	}
	var sorted *dataflow.Dataset
	var rows int64
	ordered := true
	ot := timeIt(func() {
		var err error
		sorted, err = p.OrderBy("timestamp", true)
		if err != nil {
			fatal(err)
		}
		prev := int64(0)
		if err := sorted.Each(func(t dataflow.Tuple) error {
			ts := t[0].(int64)
			if ts < prev {
				ordered = false
			}
			prev = ts
			rows++
			return nil
		}); err != nil {
			fatal(err)
		}
	})
	ost := oj.Stats()
	if err := sorted.Close(); err != nil {
		fatal(err)
	}
	complete := rows == truth.Events
	fmt.Printf("  external OrderBy: %d rows in %v (%.0f events/s), %.1f MiB of sorted runs, fan-in %d; ordered: %v, complete: %v\n",
		rows, ot.Round(time.Millisecond), float64(rows)/ot.Seconds(),
		float64(ost.SpilledBytes)/(1<<20), ost.PeakRunFanIn, ordered, complete)
	if !ordered || !complete {
		fatal(fmt.Errorf("e17: external OrderBy produced a wrong relation (ordered=%v rows=%d want=%d)", ordered, rows, truth.Events))
	}
	if ost.SpilledRecords == 0 {
		fatal(fmt.Errorf("e17: OrderBy under budget never spilled — not an external sort"))
	}

	dfMetrics.measured = true
	dfMetrics.E17Events = truth.Events
	dfMetrics.E17SpillRuns = bst.SpillRuns
	dfMetrics.E17MergeRuns = bst.MergeRuns
	dfMetrics.E17PeakRunFanIn = bst.PeakRunFanIn
	dfMetrics.E17RollupIdentical = rollIdentical
	dfMetrics.SessionizeEventsPerSec = float64(truth.Events) / sbt.Seconds()
	dfMetrics.InMemSessionizePerSec = float64(truth.Events) / smt.Seconds()
	dfMetrics.OrderByEventsPerSec = float64(rows) / ot.Seconds()
	dfMetrics.OrderBySpilledBytes = ost.SpilledBytes
	dfMetrics.OrderedSessionsIdentical = bRep == mRep
	dfMetrics.OrderBySortedAndComplete = ordered && complete
}

func e18(e *env) {
	// The columnar question: once a warehouse day is sealed into column
	// chunks, what does a selective query stop paying for? Four legs over
	// a streamed synthetic day: (1) the full §3.2 rollup over rows, (2)
	// the same selective query over rows — filter and project applied
	// tuple-side, every byte of the day decoded — then the day is sealed
	// and (3) the rollup re-runs over chunks to prove byte-identical
	// output, and (4) the selective query re-runs with the name/time
	// predicate pruning whole chunks via zone maps and the projection
	// reading only its column files.
	cfg := e.cfg
	cfg.Users = e.cfg.Users * 12
	cfg.LoggedOutSessions = e.cfg.LoggedOutSessions * 12
	cfg.Seed = e.cfg.Seed + 18
	bigFS, truth := synthesizeDay(cfg)
	fmt.Printf("  synthetic day: %d events (%.1fx the shared corpus), streamed into the warehouse\n",
		truth.Events, float64(truth.Events)/float64(e.truth.Events))

	// The selective query: web home-page traffic in a six-hour window,
	// three columns of eight. Head-anchored name prefix + time range is
	// exactly the shape the chunk zone maps can prune.
	sel := dataflow.Selection{
		Columns:     []string{"name", "user_id", "timestamp"},
		NamePattern: "web:home:*",
		TimeMin:     day.Add(9 * time.Hour).UnixMilli(),
		TimeMax:     day.Add(15 * time.Hour).UnixMilli(),
	}
	dirs := dataflow.HourDirs(bigFS, events.Category, day)
	scanSelective := func(d *dataflow.Dataset, err error) (rows int64, sum int64) {
		if err != nil {
			fatal(err)
		}
		if err := d.Each(func(t dataflow.Tuple) error {
			rows++
			sum += t[1].(int64)
			return nil
		}); err != nil {
			fatal(err)
		}
		if err := d.Close(); err != nil {
			fatal(err)
		}
		return rows, sum
	}

	// Leg 1: full rollups over rows (the day is not sealed yet, so the
	// pushdown-aware load falls through to the row files).
	rj := dataflow.NewJob("e18-rollups-rows", bigFS)
	var rowRoll map[analytics.RollupKey]int64
	rt := timeIt(func() {
		var err error
		rowRoll, err = analytics.Rollups(rj, day)
		if err != nil {
			fatal(err)
		}
	})

	// Leg 2: the selective query over rows — ClientEventFormat is not
	// pushdown-aware, so filter and projection run tuple-side after a
	// full decode.
	srj := dataflow.NewJob("e18-selective-rows", bigFS)
	var rowN, rowSum int64
	srt := timeIt(func() {
		d, err := srj.LoadDirsSelective(dirs, dataflow.ClientEventFormat{}, sel)
		rowN, rowSum = scanSelective(d, err)
	})
	rowBytes := srj.Stats().BytesRead

	// Seal the day: every hour re-encoded into column chunks alongside
	// the row files (which stay authoritative for non-pushdown readers).
	var chunks int
	st := timeIt(func() {
		var err error
		chunks, err = columnar.SealDay(bigFS, events.Category, day)
		if err != nil {
			fatal(err)
		}
	})
	fmt.Printf("  sealed: %d column chunks across the day in %v\n", chunks, st.Round(time.Millisecond))

	// Leg 3: the same rollup over chunks — byte-identical table or bust.
	cj := dataflow.NewJob("e18-rollups-columnar", bigFS)
	var colRoll map[analytics.RollupKey]int64
	ct := timeIt(func() {
		var err error
		colRoll, err = analytics.Rollups(cj, day)
		if err != nil {
			fatal(err)
		}
	})
	rollIdentical := len(rowRoll) == len(colRoll)
	if rollIdentical {
		for k, v := range rowRoll {
			if colRoll[k] != v {
				rollIdentical = false
				break
			}
		}
	}
	fmt.Printf("  full rollups: rows %v (%.0f events/s) vs columnar %v (%.0f events/s) over %d rows; identical: %v\n",
		rt.Round(time.Millisecond), float64(truth.Events)/rt.Seconds(),
		ct.Round(time.Millisecond), float64(truth.Events)/ct.Seconds(), len(colRoll), rollIdentical)
	if !rollIdentical {
		fatal(fmt.Errorf("e18: columnar and row rollups diverged"))
	}

	// Leg 4: the selective query over chunks, zone maps pruning.
	scanned0 := telemetry.GetCounter("columnar.chunks.scanned").Value()
	pruned0 := telemetry.GetCounter("columnar.chunks.pruned").Value()
	pj := dataflow.NewJob("e18-selective-columnar", bigFS)
	var colN, colSum int64
	pt := timeIt(func() {
		d, err := columnar.LoadDay(pj, day, sel)
		colN, colSum = scanSelective(d, err)
	})
	prunedBytes := pj.Stats().BytesRead
	chunksScanned := telemetry.GetCounter("columnar.chunks.scanned").Value() - scanned0
	chunksPruned := telemetry.GetCounter("columnar.chunks.pruned").Value() - pruned0

	if colN != rowN || colSum != rowSum {
		fatal(fmt.Errorf("e18: selective query diverged (columnar %d rows sum %d, rows %d rows sum %d)",
			colN, colSum, rowN, rowSum))
	}
	bytesRatio := float64(rowBytes) / float64(prunedBytes)
	speedup := srt.Seconds() / pt.Seconds()
	fmt.Printf("  selective query (%d of %d events): rows %v reading %.1f MiB vs pruned+projected %v reading %.1f MiB\n",
		rowN, truth.Events, srt.Round(time.Millisecond), float64(rowBytes)/(1<<20),
		pt.Round(time.Millisecond), float64(prunedBytes)/(1<<20))
	fmt.Printf("  pruning: %d chunks scanned, %d pruned by zone maps; %.1fx fewer bytes, %.1fx faster\n",
		chunksScanned, chunksPruned, bytesRatio, speedup)
	if chunksPruned == 0 || chunksScanned == 0 {
		fatal(fmt.Errorf("e18: zone maps pruned %d and scanned %d chunks — pruning not exercised", chunksPruned, chunksScanned))
	}
	if bytesRatio < 5 {
		fatal(fmt.Errorf("e18: pruned path read only %.1fx fewer bytes, want >= 5x", bytesRatio))
	}
	if speedup < 2 {
		fatal(fmt.Errorf("e18: pruned path only %.1fx faster, want >= 2x", speedup))
	}

	dfMetrics.measured = true
	dfMetrics.E18Events = truth.Events
	dfMetrics.E18Chunks = chunks
	dfMetrics.E18RowScanEventsPerSec = float64(truth.Events) / rt.Seconds()
	dfMetrics.E18ColumnarScanEventsPerSec = float64(truth.Events) / ct.Seconds()
	dfMetrics.E18SelectiveRowEventsPerSec = float64(truth.Events) / srt.Seconds()
	dfMetrics.E18SelectivePrunedEventsPerSec = float64(truth.Events) / pt.Seconds()
	dfMetrics.E18SelectiveRowBytes = rowBytes
	dfMetrics.E18SelectivePrunedBytes = prunedBytes
	dfMetrics.E18BytesRatio = bytesRatio
	dfMetrics.E18SpeedupX = speedup
	dfMetrics.E18ChunksScanned = chunksScanned
	dfMetrics.E18ChunksPruned = chunksPruned
	dfMetrics.E18RollupIdentical = rollIdentical
}

type memBuf struct{ data []byte }

func (m *memBuf) Write(p []byte) (int, error) {
	m.data = append(m.data, p...)
	return len(p), nil
}
