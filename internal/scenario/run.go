package scenario

import (
	"fmt"
	"os"
	"time"

	"unilog/internal/analytics"
	"unilog/internal/chunk"
	"unilog/internal/dataflow"
	"unilog/internal/events"
	"unilog/internal/hdfs"
	"unilog/internal/logmover"
	"unilog/internal/realtime"
	"unilog/internal/scribe"
	"unilog/internal/telemetry"
	"unilog/internal/warehouse"
	"unilog/internal/zk"
)

// RunConfig is one grid configuration axis: the knobs an experiment grid
// varies against the scenarios.
type RunConfig struct {
	// Name labels the config in cell filenames and reports.
	Name string `json:"name"`
	// Shards is the realtime counter's shard count; 0 takes the realtime
	// default.
	Shards int `json:"shards,omitempty"`
	// MemoryBudgetBytes bounds the cell's batch rollup job; 0 runs it
	// in-memory.
	MemoryBudgetBytes int64 `json:"memory_budget_bytes,omitempty"`
}

// InvariantCheck is one evaluated assertion from Spec.Invariants.
type InvariantCheck struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// Result is one cell of the experiment grid: everything one scenario run
// under one config produced, as flat machine-readable JSON. Invariants
// carries the spec's per-cell verdicts and OK their conjunction — the
// only thing a cell is judged on. The two _per_sec rates are wall-clock
// readings of a single small run, kept as information; Telemetry is the
// full registry snapshot (every series and histogram summary) for
// forensics.
type Result struct {
	Scenario    string `json:"scenario"`
	Config      string `json:"config"`
	Repeat      int    `json:"repeat"`
	Seed        int64  `json:"seed"`
	GeneratedAt string `json:"generated_at"`

	Events      int64 `json:"events"`
	BaseEvents  int64 `json:"base_events"`
	CrowdEvents int64 `json:"crowd_events"`
	Sessions    int   `json:"sessions"`

	IngestEventsPerSec float64 `json:"ingest_events_per_sec"`
	InWarehouse        int64   `json:"in_warehouse"`
	// AcceptedDigest and WarehouseDigest are events.Digest sums, in hex, over
	// the events handed to the daemons and the events the warehouse holds.
	// ExactlyOnce requires the counts and the digests to be equal.
	AcceptedDigest  string `json:"accepted_digest"`
	WarehouseDigest string `json:"warehouse_digest"`
	ExactlyOnce     bool   `json:"exactly_once"`

	SendFailures   int64 `json:"send_failures"`
	Rediscoveries  int64 `json:"rediscoveries"`
	SpoolHighWater int64 `json:"spool_high_water"`
	SpooledAtEnd   int64 `json:"spooled_at_end"`

	QueueFullWaits int64 `json:"queue_full_waits"`
	DroppedOld     int64 `json:"dropped_old"`

	ReconcileOK        bool `json:"reconcile_ok"`
	ReconcileBatchRows int  `json:"reconcile_batch_rows"`
	ReconcileDiffs     int  `json:"reconcile_diffs"`

	RollupRows         int     `json:"rollup_rows"`
	RollupEventsPerSec float64 `json:"rollup_events_per_sec"`
	SpilledBytes       int64   `json:"spilled_bytes"`
	SpillRuns          int     `json:"spill_runs"`

	// Cluster fields, present only when the spec declares a cluster. The
	// reconcile verdict is the scatter-gathered day versus the batch
	// rollups; the probe counters record how reads behaved through the
	// fault windows (degraded = answered around a dead/failing replica,
	// partial = some partition had no live replica at all).
	ClusterNodes          int   `json:"cluster_nodes,omitempty"`
	ClusterReplication    int   `json:"cluster_replication,omitempty"`
	ClusterReconcileOK    bool  `json:"cluster_reconcile_ok,omitempty"`
	ClusterReconcileDiffs int   `json:"cluster_reconcile_diffs,omitempty"`
	ClusterDrained        bool  `json:"cluster_drained,omitempty"`
	HandoffHinted         int64 `json:"handoff_hinted,omitempty"`
	HandoffReplayed       int64 `json:"handoff_replayed,omitempty"`
	NodeCrashes           int64 `json:"node_crashes,omitempty"`
	NodeRestarts          int64 `json:"node_restarts,omitempty"`
	DetectorDeaths        int64 `json:"detector_deaths,omitempty"`
	DetectorRevivals      int64 `json:"detector_revivals,omitempty"`
	ScatterProbes         int64 `json:"scatter_probes,omitempty"`
	DegradedQueries       int64 `json:"degraded_queries,omitempty"`
	PartialQueries        int64 `json:"partial_queries,omitempty"`

	Telemetry  telemetry.Snap   `json:"telemetry"`
	Invariants []InvariantCheck `json:"invariants"`
	OK         bool             `json:"ok"`
}

// daemonsPerRegion and aggsPerRegion size each region's Scribe topology.
// Small on purpose: the harness exercises shapes, not scale.
const (
	daemonsPerRegion = 3
	aggsPerRegion    = 2
)

// Run executes one scenario under one config: the spec's event stream
// feeds a multi-region Scribe topology (with the realtime counter
// tapping every aggregator), the manual clock advances hour by hour
// sealing and moving as it goes, outage windows take regions dark and
// replay their spools, and the cell ends with the exactly-once check,
// the lambda reconciliation, a budgeted rollup leg, and the spec's
// invariant verdicts.
//
// Run resets the process-global telemetry registry so the cell's
// Telemetry snapshot covers this cell alone; do not run cells
// concurrently in one process.
func Run(spec *Spec, rc RunConfig) (*Result, error) {
	telemetry.Reset()
	res := &Result{
		Scenario:    spec.Name,
		Config:      rc.Name,
		Repeat:      1,
		Seed:        spec.Seed,
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Sessions:    spec.TotalSessions,
	}

	stream, err := spec.EventStream()
	if err != nil {
		return nil, err
	}

	day := spec.DayStart()
	clock := zk.NewManualClock(day)
	wh := hdfs.New(0)

	faults := faultSchedule{spec: spec}
	type region struct {
		name string
		dc   *scribe.Datacenter
		dark bool
	}
	regions := make([]*region, len(spec.Regions))
	var sources []logmover.Source
	for i, name := range spec.Regions {
		staging := hdfs.New(0)
		dc, err := scribe.NewDatacenter(name, staging, clock, aggsPerRegion, daemonsPerRegion,
			spec.Seed+int64(i)*101)
		if err != nil {
			return nil, err
		}
		r := &region{name: name, dc: dc}
		// While the region is dark (an outage covers it) every send to its
		// aggregators fails at the "network", so daemons spool locally and
		// replay once the window closes — the backfill under test.
		dc.Net.FailSend = func(string) error {
			if r.dark {
				return fmt.Errorf("scenario %s: region %s dark", spec.Name, r.name)
			}
			return nil
		}
		faults.add(FaultOutage, name, func(level int) error {
			// A closing window replays the spools now rather than at the
			// next auto-flush, so the backfill lands in the current hour.
			if r.dark = level > 0; !r.dark {
				for _, d := range dc.Daemons {
					d.Flush() //nolint:errcheck // spool retried on later flushes
				}
			}
			return nil
		})
		regions[i] = r
		sources = append(sources, logmover.Source{Datacenter: name, FS: staging})
	}
	mover := logmover.New(wh, sources...)

	counterCfg := realtime.Config{Shards: rc.Shards}
	if spec.hasFault(FaultSlowConsumer) {
		counterCfg.QueueDepth = 2 // so a slow drain blocks producers at once
	}
	counter := realtime.New(counterCfg)
	defer counter.Close()
	counter.Publish(nil)
	faults.add(FaultSlowConsumer, "", func(ms int) error {
		counter.SetApplyDelay(time.Duration(ms) * time.Millisecond)
		return nil
	})

	// With a cluster declared, every aggregator batch fans into both the
	// single counter (the existing reconcile baseline) and the replicated
	// cluster, whose own scatter-gathered reconcile lands in the cluster_*
	// result fields.
	var ch *clusterHarness
	tap := counter.TapBatch
	if spec.Cluster != nil {
		ch, err = newClusterHarness(spec, clock, &faults)
		if err != nil {
			return nil, err
		}
		defer ch.close()
		tap = func(batch []scribe.Entry) {
			counter.TapBatch(batch)
			ch.c.TapBatch(batch)
		}
	}
	for _, r := range regions {
		for _, a := range r.dc.Aggregators {
			a.Tap = tap
		}
	}
	if err := faults.apply(0); err != nil {
		return nil, err
	}

	cats := []string{events.Category} // SealHour seals scribe.InvalidCategory with it
	dayMs := day.UnixMilli()
	curHour := 0

	// sealThrough seals every hour in [from, to) on every region and moves
	// what sealed. A dark region cannot flush its daemons, so its seal
	// fails and the hour simply waits — the final pass below re-seals
	// everything once every spool has replayed.
	sealThrough := func(from, to int) error {
		for h := from; h < to; h++ {
			hour := day.Add(time.Duration(h) * time.Hour)
			for _, r := range regions {
				if err := r.dc.SealHour(cats, hour); err != nil && r.dark {
					continue // spooled entries replay after the outage
				} else if err != nil {
					return err
				}
			}
		}
		_, err := mover.MoveAllSealed()
		return err
	}

	// advanceTo moves the manual clock, and the fault schedule with it, to
	// an event's minute; an event lagging the latest minute moves neither.
	// Without a cluster the clock jumps hour to hour (aggregators bucket
	// staging by hour, nothing finer matters); with one it steps every
	// minute so the failure detector, hint replay, fault edges, and scatter
	// probes all run between the hours, sealing each hour as it completes.
	onHour := func(hr int) error {
		if err := sealThrough(curHour, hr); err != nil {
			return err
		}
		curHour = hr
		return nil
	}
	clockMinute := 0
	advanceTo := func(minute int) error {
		if ch != nil {
			return ch.advanceTo(minute, onHour)
		}
		if minute <= clockMinute {
			return nil
		}
		clockMinute = minute
		if h := minute / 60; h > curHour {
			clock.Advance(time.Duration(h-curHour) * time.Hour)
			if err := onHour(h); err != nil {
				return err
			}
		}
		return faults.apply(minute)
	}

	var accepted events.Digest
	t0 := time.Now()
	err = stream(func(e *events.ClientEvent) error {
		minute := int((e.Timestamp - dayMs) / 60_000)
		if minute < 0 {
			minute = 0
		}
		if minute > 23*60+59 {
			minute = 23*60 + 59
		}
		// The manual clock tracks event time so aggregators bucket staging
		// files into the event's (arrival) hour; each hour crossed is
		// sealed and moved behind the clock.
		if err := advanceTo(minute); err != nil {
			return err
		}

		// Low bits pick the region, high bits the daemon, so routing is
		// stable per session and uncorrelated between the two choices.
		ri := int(events.Hash64(e.SessionID) % uint64(len(regions)))
		di := int((events.Hash64(e.SessionID) >> 32) % uint64(daemonsPerRegion))
		regions[ri].dc.Daemons[di].Log(events.Category, e.Marshal())
		accepted.Add(e.UserID, e.SessionID, e.Timestamp, e.Name.String())
		res.Events++
		if e.Details["crowd"] == "1" {
			res.CrowdEvents++
		} else {
			res.BaseEvents++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// End of day: every fault window closes by DurationMinutes (the cluster
	// walks there minute by minute), so the schedule closes what is still
	// open; then every spool and aggregator drains into the still-current
	// day, all 24 hours seal and the remainder moves. The clock stays inside
	// the day so late flushes cannot leak into tomorrow's directories.
	if ch != nil {
		if err := ch.advanceTo(spec.DurationMinutes, onHour); err != nil {
			return nil, err
		}
	}
	if err := faults.apply(spec.DurationMinutes); err != nil {
		return nil, err
	}
	for _, r := range regions {
		if err := r.dc.FlushAll(); err != nil {
			return nil, fmt.Errorf("scenario %s: final flush %s: %w", spec.Name, r.name, err)
		}
	}
	if err := sealThrough(0, 24); err != nil {
		return nil, err
	}
	// Every tap input is in; let the cluster's queues and hints drain
	// before anything reads it.
	if ch != nil {
		if err := ch.drain(); err != nil {
			return nil, err
		}
	}
	feedDur := time.Since(t0)
	if res.Events > 0 && feedDur > 0 {
		res.IngestEventsPerSec = float64(res.Events) / feedDur.Seconds()
	}

	for _, r := range regions {
		for _, d := range r.dc.Daemons {
			s := d.Stats()
			res.SendFailures += s.SendFailures
			res.Rediscoveries += s.Rediscoveries
			res.SpooledAtEnd += s.Spooled
			if s.SpoolHighWater > res.SpoolHighWater {
				res.SpoolHighWater = s.SpoolHighWater
			}
		}
	}

	// The mover sealed every hour it published: the digest and the reconcile
	// below and the budgeted rollup leg all read column chunks, so every
	// scenario cell proves the columnar path end to end against the events
	// accepted and the realtime counters.
	stored, err := storedDigest(wh, day)
	if err != nil {
		return nil, err
	}
	res.InWarehouse = stored.N
	res.AcceptedDigest = fmt.Sprintf("%016x", accepted.Sum)
	res.WarehouseDigest = fmt.Sprintf("%016x", stored.Sum)
	res.ExactlyOnce = accepted == stored

	counter.Sync()
	cstats := counter.Stats()
	res.QueueFullWaits = cstats.QueueFull
	res.DroppedOld = cstats.DroppedOld

	report, err := realtime.Reconcile(wh, day, counter)
	if err != nil {
		return nil, err
	}
	res.ReconcileOK = report.OK()
	res.ReconcileBatchRows = report.BatchRows
	res.ReconcileDiffs = report.MissingN + report.ExtraN + report.MismatchN

	if ch != nil {
		if err := ch.finish(res, wh); err != nil {
			return nil, err
		}
	}

	// The budgeted rollup leg: the same day again through the out-of-core
	// dataflow engine under the config's memory budget, so grid configs
	// can trade memory for spill and the cell records the difference.
	spillDir, err := os.MkdirTemp("", "scenario-spill-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(spillDir)
	j := dataflow.NewJob("scenario-rollup", wh)
	j.MemoryBudget = rc.MemoryBudgetBytes
	j.SpillDir = spillDir
	rt0 := time.Now()
	rollups, err := analytics.Rollups(j, day)
	if err != nil {
		return nil, err
	}
	rollupDur := time.Since(rt0)
	res.RollupRows = len(rollups)
	if res.Events > 0 && rollupDur > 0 {
		res.RollupEventsPerSec = float64(res.Events) / rollupDur.Seconds()
	}
	js := j.Stats()
	res.SpilledBytes = js.SpilledBytes
	res.SpillRuns = js.SpillRuns

	res.Telemetry = telemetry.Snapshot()

	res.evaluateInvariants(spec)
	return res, nil
}

// faultSchedule is the one dispatcher of the outage, slow_consumer and
// node_crash faults: one switch per subject, moved at each minute apply is
// given to its level — 0 when no fault of its kind covers it, else the
// largest covering magnitude and at least 1 — and acting only on a change.
// Windows on one subject that abut or overlap are thus one stretch.
type faultSchedule struct {
	spec     *Spec
	switches []faultSwitch
}

type faultSwitch struct {
	kind, subject string
	level         int
	set           func(level int) error
}

// add registers a subject of one kind with the action that moves it.
func (fs *faultSchedule) add(kind, subject string, set func(level int) error) {
	fs.switches = append(fs.switches, faultSwitch{kind: kind, subject: subject, set: set})
}

// apply moves every subject to its level at minute m of the day, counting
// each move into or out of a fault in scenario.fault.edges.
func (fs *faultSchedule) apply(m int) error {
	for i := range fs.switches {
		sw := &fs.switches[i]
		l := 0
		for j := range fs.spec.Faults {
			if f := &fs.spec.Faults[j]; f.Kind == sw.kind && f.Subject == sw.subject && f.covers(m) {
				l = max(l, f.Magnitude, 1)
			}
		}
		if l == sw.level {
			continue
		}
		if (l == 0) != (sw.level == 0) {
			tmFaultEdges.Inc()
		}
		sw.level = l
		if err := sw.set(l); err != nil {
			return fmt.Errorf("scenario %s: %s %q at minute %d: %w", fs.spec.Name, sw.kind, sw.subject, m, err)
		}
	}
	return nil
}

var tmFaultEdges = telemetry.GetCounter("scenario.fault.edges")

// storedDigest digests the client events of day through the day reader,
// from the column chunks of every hour. It fails on an hour that holds rows
// but was published without its chunks, as the log mover never publishes
// one.
func storedDigest(wh *hdfs.FS, day time.Time) (events.Digest, error) {
	var d events.Digest
	for _, dir := range warehouse.HourDirs(wh, events.Category, day) {
		rows, err := warehouse.DataSize(wh, dir)
		if err != nil {
			return d, err
		}
		if rows > 0 && !wh.Exists(chunk.SealedPath(dir)) {
			return d, fmt.Errorf("scenario: %s was published without its column chunks", dir)
		}
		err = chunk.ReadHour(wh, dir, chunk.UserID|chunk.SessionID|chunk.Timestamp|chunk.Name, func(b *chunk.Batch) error {
			defer b.Release()
			for row := 0; row < b.Rows; row++ {
				d.Add(b.UserID[row], b.SessionID.At(row), b.Timestamp[row], b.Name.At(row))
			}
			return nil
		})
		if err != nil {
			return d, err
		}
	}
	return d, nil
}

// evaluateInvariants fills Invariants and OK from the spec's assertions.
func (res *Result) evaluateInvariants(spec *Spec) {
	inv := spec.Invariants
	add := func(name string, ok bool, detail string) {
		res.Invariants = append(res.Invariants, InvariantCheck{Name: name, OK: ok, Detail: detail})
	}
	atLeast := func(name string, want, got int64) {
		if want > 0 {
			add(name, got >= want, fmt.Sprintf("want >= %d, got %d", want, got))
		}
	}
	if inv.ReconcileExact {
		add("reconcile_exact", res.ReconcileOK,
			fmt.Sprintf("%d batch rows, %d diffs", res.ReconcileBatchRows, res.ReconcileDiffs))
	}
	if inv.ExactlyOnce {
		add("exactly_once", res.ExactlyOnce,
			fmt.Sprintf("accepted %d (digest %s), warehouse %d (digest %s)",
				res.Events, res.AcceptedDigest, res.InWarehouse, res.WarehouseDigest))
	}
	if inv.RequireBackfill {
		ok := res.SendFailures > 0 && res.SpooledAtEnd == 0 && res.ExactlyOnce
		add("require_backfill", ok,
			fmt.Sprintf("%d send failures, %d spooled at end, exactly_once=%v",
				res.SendFailures, res.SpooledAtEnd, res.ExactlyOnce))
	}
	if inv.RequireSpill {
		add("require_spill", res.SpilledBytes > 0,
			fmt.Sprintf("%d spilled bytes, %d runs", res.SpilledBytes, res.SpillRuns))
	}
	atLeast("min_events", inv.MinEvents, res.Events)
	atLeast("min_crowd_events", inv.MinCrowdEvents, res.CrowdEvents)
	atLeast("min_send_failures", inv.MinSendFailures, res.SendFailures)
	atLeast("min_queue_full_waits", inv.MinQueueFullWaits, res.QueueFullWaits)
	if inv.RequireHandoff {
		ok := res.HandoffHinted > 0 && res.HandoffReplayed == res.HandoffHinted &&
			res.ClusterDrained && res.ClusterReconcileOK
		add("require_handoff", ok,
			fmt.Sprintf("%d hinted, %d replayed, drained=%v, cluster reconcile ok=%v (%d diffs)",
				res.HandoffHinted, res.HandoffReplayed, res.ClusterDrained,
				res.ClusterReconcileOK, res.ClusterReconcileDiffs))
	}
	atLeast("min_degraded_queries", inv.MinDegradedQueries, res.DegradedQueries)
	res.OK = true
	for _, c := range res.Invariants {
		if !c.OK {
			res.OK = false
		}
	}
}
