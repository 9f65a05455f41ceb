package main

// The benchmark's vocabulary. BENCHMARK.json at the root of the repository
// is printed from these tables (-manifest) and a test keeps the two equal.

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// manifestFile is BENCHMARK.json.
type manifestFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// benchScale is the -scale the committed command runs at: the ISSUE's event
// counts (500k/600k/600k/400k/300k) times this, so that set-up (three
// times), the measured seconds and the checks of one run fit the driver's
// share of its total time.
const benchScale = 0.2

// benchSeconds is how long one run measures.
const benchSeconds = 15

var workloadDefs = []workloadDef{
	{"deliver-day", "the write path of section 2: scribe, log mover and columnar sealing do all the work, dataflow and realtime none, so a transport or mover change shows here and nowhere else"},
	{"batch-sealed", "the analyst's read path over column chunks and session sequences, in memory: zone-map pruning, projection pushdown, the daily sequence job and its counting queries"},
	{"batch-rows-spill", "the same day left as row files with every job under a 32 KiB budget: Thrift row decode, sorted-run spill and k-way merge, the path a columnar-only gain could cost"},
	{"realtime-mixed", "one durable counter with a paced writer beside a dashboard reader on the same stripes, then snapshot, kill and exact recovery; scribe and dataflow idle"},
	{"cluster-scatter", "three nodes, two replicas: routing, send queues, hinted handoff and scatter-gather reads, with realtime-mixed as the control that a cluster-only change must not move"},
}

// endToEnd: every workload reports every one of these, each with the
// meaning its README row gives. Bounds are the share of the parent's
// median by which a later change may worsen the metric. The three timings
// are taken on the processor clock (see stamp in stats.go): the driver's
// first check of this benchmark found the wall-clock versions spreading by
// 34-237% between the quartiles of ten runs of unchanged code on a loaded
// host, against a largest allowed bound of 25%. The wall-clock figures are
// still measured by every run and reported with the per-layer metrics.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"events_per_cpu_s", "1/s", higher, 0.25},
	{"op_cpu_ms", "ms", lower, 0.25},
	{"stored_bytes_per_event", "B", lower, 0.03},
	{"peak_rss_mb", "MiB", lower, 0.25},
}

// perLayer: reported by the traced run. A workload that does not exercise a
// layer reports 0 for it. The first block holds the wall-clock versions of
// the bounded timings and the workload-specific end-to-end figures the ISSUE
// names; the driver's contract wants every workload to report every bounded
// metric, so they live here, unbounded.
var perLayer = []metricDef{
	{"events_per_s", "1/s", higher, 0},
	{"op_p50_ms", "ms", lower, 0},
	{"setup_wall_s", "s", lower, 0},
	{"deliver_events_per_s", "1/s", higher, 0},
	{"rollup_events_per_s", "1/s", higher, 0},
	{"rawcount_events_per_s", "1/s", higher, 0},
	{"orderby_events_per_s", "1/s", higher, 0},
	{"sequences_build_events_per_s", "1/s", higher, 0},
	{"select_query_p50_ms", "ms", lower, 0},
	{"select_query_p90_ms", "ms", lower, 0},
	{"seqcount_query_p50_ms", "ms", lower, 0},
	{"ingest_events_per_s", "1/s", higher, 0},
	{"query_p50_us", "us", lower, 0},
	{"query_p95_us", "us", lower, 0},
	{"recover_s", "s", lower, 0},

	{"events.marshal_ns_per_event", "ns", lower, 0},
	{"events.unmarshal_ns_per_event", "ns", lower, 0},

	{"scribe.log_ns_per_event", "ns", lower, 0},
	{"scribe.flush_ms", "ms", lower, 0},
	{"scribe.seal_hour_p50_ms", "ms", lower, 0},
	{"scribe.staging_bytes_per_event", "B", lower, 0},
	{"scribe.staging_files", "count", lower, 0},
	{"scribe.send_failures", "count", lower, 0},
	{"scribe.spooled_at_end", "count", lower, 0},

	{"logmover.move_ns_per_event", "ns", lower, 0},
	{"logmover.move_hour_p50_ms", "ms", lower, 0},
	{"logmover.files_in_per_file_out", "ratio", higher, 0},
	{"logmover.bytes_out_per_event", "B", lower, 0},

	{"hdfs.bytes_written_per_event", "B", lower, 0},
	{"hdfs.bytes_read_per_event", "B", lower, 0},
	{"hdfs.files_created", "count", lower, 0},
	{"hdfs.renames", "count", lower, 0},

	{"warehouse.write_ns_per_event", "ns", lower, 0},
	{"warehouse.row_bytes_per_event", "B", lower, 0},
	{"warehouse.scan_ns_per_event", "ns", lower, 0},
	{"warehouse.scan_allocs_per_event", "count", lower, 0},

	{"columnar.seal_ns_per_event", "ns", lower, 0},
	{"columnar.bytes_per_event", "B", lower, 0},
	{"columnar.chunks", "count", lower, 0},
	{"columnar.scan_ns_per_event", "ns", lower, 0},
	{"columnar.scan_allocs_per_event", "count", lower, 0},
	{"columnar.chunks_scanned", "count", lower, 0},
	{"columnar.chunks_pruned", "count", higher, 0},
	{"columnar.prune_ratio", "ratio", higher, 0},
	{"columnar.select_bytes_per_query", "B", lower, 0},

	{"dataflow.rollup.bytes_read", "B", lower, 0},
	{"dataflow.rollup.shuffle_bytes", "B", lower, 0},
	{"dataflow.rawcount.shuffle_bytes", "B", lower, 0},
	{"dataflow.rawcount.spilled_bytes", "B", lower, 0},
	{"dataflow.rawcount.spill_runs", "count", lower, 0},
	{"dataflow.rawcount.merge_passes", "count", lower, 0},
	{"dataflow.rawcount.peak_fan_in", "count", lower, 0},
	{"dataflow.orderby.spilled_bytes", "B", lower, 0},
	{"dataflow.orderby.peak_fan_in", "count", lower, 0},
	{"dataflow.rollup_serial_events_per_s", "1/s", higher, 0},
	{"dataflow.rawcount_serial_events_per_s", "1/s", higher, 0},

	{"analytics.rollup_ns_per_event", "ns", lower, 0},
	{"analytics.rollup_allocs_per_event", "count", lower, 0},
	{"analytics.rollup_alloc_bytes_per_event", "B", lower, 0},
	{"analytics.rollup_self_ns_per_event", "ns", lower, 0},
	{"analytics.rawcount_ns_per_event", "ns", lower, 0},
	{"analytics.rawcount_allocs_per_event", "count", lower, 0},
	{"analytics.funnel_raw_ms", "ms", lower, 0},
	{"analytics.funnel_seq_ms", "ms", lower, 0},

	{"session.histogram_ns_per_event", "ns", lower, 0},
	{"session.build_ns_per_event", "ns", lower, 0},
	{"session.seq_bytes_per_event", "B", lower, 0},
	{"session.compression_ratio_x", "ratio", higher, 0},
	{"session.alphabet_size", "count", lower, 0},
	{"session.scan_ns_per_session", "ns", lower, 0},

	{"realtime.tap_ns_per_event", "ns", lower, 0},
	{"realtime.sync_wait_ms", "ms", lower, 0},
	{"realtime.batcher_ns_per_event", "ns", lower, 0},
	{"realtime.allocs_per_event", "count", lower, 0},
	{"realtime.queue_full_waits", "count", lower, 0},
	{"realtime.dropped_old", "count", lower, 0},
	{"realtime.decode_errors", "count", lower, 0},
	{"realtime.wal_bytes_per_event", "B", lower, 0},
	{"realtime.fsyncs", "count", lower, 0},
	{"realtime.snapshot_ms", "ms", lower, 0},
	{"realtime.snapshot_bytes", "B", lower, 0},
	{"realtime.recover_events_per_s", "1/s", higher, 0},
	{"realtime.pathsum_hour_p50_us", "us", lower, 0},
	{"realtime.pathsum_day_p50_us", "us", lower, 0},
	{"realtime.topk_p50_us", "us", lower, 0},
	{"realtime.series_p50_us", "us", lower, 0},
	{"realtime.query_p99_us", "us", lower, 0},
	{"realtime.rollup_snapshot_ms", "ms", lower, 0},
	{"realtime.writer_late_max_ms", "ms", lower, 0},

	{"cluster.tap_ns_per_event", "ns", lower, 0},
	{"cluster.sync_wait_ms", "ms", lower, 0},
	{"cluster.delivered_per_ingested", "ratio", lower, 0},
	{"cluster.send_retries", "count", lower, 0},
	{"cluster.send_failures", "count", lower, 0},
	{"cluster.hinted", "count", lower, 0},
	{"cluster.replayed", "count", lower, 0},
	{"cluster.handoff_high_water", "count", lower, 0},
	{"cluster.deaths", "count", lower, 0},
	{"cluster.writer_late_max_ms", "ms", lower, 0},

	{"birdbrain.scatter_pathsum_p50_us", "us", lower, 0},
	{"birdbrain.scatter_topk_p50_us", "us", lower, 0},
	{"birdbrain.scatter_series_p50_us", "us", lower, 0},
	{"birdbrain.scatter_query_p99_us", "us", lower, 0},
	{"birdbrain.scatter_rollup_ms", "ms", lower, 0},
	{"birdbrain.degraded_queries", "count", lower, 0},
	{"birdbrain.partial_queries", "count", lower, 0},
	{"birdbrain.failovers", "count", lower, 0},

	{"bench.gen_events_per_s", "1/s", higher, 0},
	{"bench.spans", "count", lower, 0},
	{"bench.trace_overhead_pct", "%", lower, 0},
	{"bench.attributed_pct", "%", higher, 0},
	{"bench.host_slowdown", "ratio", lower, 0},
}
