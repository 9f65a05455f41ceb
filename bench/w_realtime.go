package main

import (
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"unilog/internal/analytics"
	"unilog/internal/events"
	"unilog/internal/realtime"
	"unilog/internal/scribe"
)

// realtimeMixed drives one durable counter: writes as fast as it takes them
// (closed loop, one writer), then a paced open-loop writer beside one
// closed-loop dashboard reader on the same stripes, then snapshot, WAL tail,
// kill and recovery.
type realtimeMixed struct {
	rc      *runCtx
	a       *arena
	o       *oracle
	gs      genStats
	entries []scribe.Entry
	dash    *dashboard
}

const (
	realtimePacedRate = 100_000 // events/s offered in the mixed phase, ~15% of flat out
	ingestSegCycles   = 2       // day replays per timed ingest segment
	recoveries        = 3       // snapshot → tail → kill → reopen rounds
)

func (w *realtimeMixed) setup() error {
	a, o, gs, err := generateArena(dayConfig(w.rc.seed, w.rc.events(400_000)))
	if err != nil {
		return err
	}
	w.a, w.o, w.gs = a, o, gs
	w.entries = a.entries()
	w.dash = newDashboard(o, w.rc.seed)
	return nil
}

func (w *realtimeMixed) gen() genStats { return w.gs }

// counterTotals adds up activity over the incarnations of a counter: a
// reopened counter restarts its statistics from the last snapshot, so each
// incarnation contributes the difference between its first and last reading.
type counterTotals struct {
	walBytes, fsyncs, queueFull, decodeErrors, droppedOld int64
}

func (t *counterTotals) add(open, end realtime.Stats) {
	t.walBytes += end.WALBytes - open.WALBytes
	t.fsyncs += end.Fsyncs - open.Fsyncs
	t.queueFull += end.QueueFull - open.QueueFull
	t.decodeErrors += end.DecodeErrors - open.DecodeErrors
	t.droppedOld += end.DroppedOld - open.DroppedOld
}

func (w *realtimeMixed) measure(budget time.Duration, tr *tracer, rec *recorder) error {
	const who = "realtime-mixed"
	dir, err := os.MkdirTemp(w.rc.tmp, "rt-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	// Snapshots are taken explicitly below, never by the timer, so that
	// WAL and snapshot counts repeat from run to run.
	cfg := realtime.Config{SnapshotEvery: time.Hour}
	c, err := realtime.Open(dir, cfg)
	if err != nil {
		return err
	}
	defer func() {
		if c != nil {
			c.Close()
		}
	}()
	f := &feeder{entries: w.entries, tap: c.TapBatch}
	var totals counterTotals
	opened := c.Stats()
	start := time.Now()

	// Phase ingest-max: whole replays of the day, each segment through
	// Sync, for three tenths of the budget.
	var before, after runtime.MemStats
	runtime.GC()
	if tr != nil {
		runtime.ReadMemStats(&before)
	}
	root := tr.begin("phase.ingest", "ingest-max", -1)
	for seg := 0; seg < 3 || time.Since(start) < budget*3/10; seg++ {
		w.rc.cal.tick(tr, "ingest-max", root)
		t0 := now()
		var fed int64
		for k := 0; k < ingestSegCycles; k++ {
			fed += f.cycle(tr, "realtime.tap", "ingest-max", root)
		}
		id := tr.begin("realtime.sync", "ingest-max", root)
		c.Sync()
		tr.end(id, 0)
		wall, cpu := t0.since()
		rec.sample("ingest.events_per_s", float64(fed)/wall)
		rec.sample("ingest.events_per_cpu_s", float64(fed)/cpu)
	}
	tr.end(root, f.fed)
	if tr != nil {
		runtime.ReadMemStats(&after)
		rec.set("realtime.allocs_per_event", float64(after.Mallocs-before.Mallocs)/float64(f.fed))
	}
	w.dash.checkExact(who, "after ingest-max", counterAPI(c), f.cycles, rec)

	// Phase read: the dashboard alone, for the processor time of a refresh.
	w.dash.readAlone(who, counterAPI(c), budget*15/100, f.cycles, w.rc.cal, tr, rec)

	// Phase mixed: the paced writer and the reader run side by side.
	runtime.GC()
	mixedFor := budget * 40 / 100
	cyclesLo := f.cycles
	var stop atomic.Bool
	var log *readerLog
	var wg sync.WaitGroup
	mroot := tr.begin("phase.mixed", "mixed", -1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		log = w.dash.read(counterAPI(c), &stop, tr, "mixed", mroot)
	}()
	fromDue, late, written := f.paced(realtimePacedRate, mixedFor, tr, "realtime.tap_paced", "mixed", mroot)
	stop.Store(true)
	wg.Wait()
	tr.end(mroot, written)
	recordReader(rec, log)
	rec.sampleAll("writer.from_due_ms", fromDue)
	rec.set("writer.late_max_ms", late)
	if f.pos != 0 {
		f.cycle(nil, "", "", -1)
	}
	c.Sync()
	w.dash.checkBounds(who, "during the mixed phase", log, cyclesLo, f.cycles, rec)
	w.dash.checkExact(who, "after mixed", counterAPI(c), f.cycles, rec)
	st := c.Stats()
	rec.set("stored_bytes_per_event", ratio(float64(st.WALBytes-opened.WALBytes), float64(f.fed)))

	// Snapshot, a WAL tail on top of it, kill, reopen: the recovery promise
	// is that the reopened counter answers exactly as if nothing happened.
	rroot := tr.begin("phase.recover", "recover", -1)
	for r := 0; r < recoveries; r++ {
		t0 := time.Now()
		id := tr.begin("realtime.snapshot", "recover", rroot)
		err := c.Snapshot()
		tr.end(id, 0)
		if err != nil {
			return err
		}
		rec.sample("realtime.snapshot_ms", float64(time.Since(t0).Nanoseconds())/1e6)
		rec.set("realtime.snapshot_bytes", float64(newestSnapshotBytes(dir)))
		f.cycle(tr, "realtime.tap_tail", "recover", rroot)
		c.Sync()
		totals.add(opened, c.Stats())
		c.Crash()
		// Drop and collect the killed counter, so that peak memory is one
		// counter's and not two whenever the collector happens to run.
		c, f.tap = nil, nil
		runtime.GC()

		t0 = time.Now()
		id = tr.begin("realtime.recover", "recover", rroot)
		c, err = realtime.Open(dir, cfg)
		if err != nil {
			return err
		}
		observed := c.Stats().Observed
		day := c.PathSum(w.dash.paths[0], w.dash.dayLo, w.dash.dayHi)
		tr.end(id, observed)
		rec.sample("recover_s", time.Since(t0).Seconds())
		rec.check(observed == f.fed && day == f.cycles*w.dash.wantDay[0],
			"%s: recovery %d came back with %d of %d events, PathSum(%s) = %d, reference %d",
			who, r, observed, f.fed, w.dash.paths[0], day, f.cycles*w.dash.wantDay[0])
		opened = c.Stats()
		f.tap = c.TapBatch
	}
	tr.end(rroot, 0)
	w.dash.checkExact(who, "after recovery", counterAPI(c), f.cycles, rec)

	var table map[analytics.RollupKey]int64
	if err := tr.call("realtime.rollup_snapshot", "verify", -1, 0, func() error {
		table = c.RollupSnapshot(w.dash.dayLo, w.dash.dayHi)
		return nil
	}); err != nil {
		return err
	}
	diffs := rollupDiffs(table, w.o.rollups, f.cycles)
	rec.check(diffs == 0, "%s: final RollupSnapshot differs from the reference in %d rows", who, diffs)
	totals.add(opened, c.Stats())
	rec.attempt(f.fed)
	rec.fail(totals.decodeErrors+totals.droppedOld, "%s: %d decode errors, %d events dropped as too old, of %d tapped", who, totals.decodeErrors, totals.droppedOld, f.fed)
	rec.set("realtime.queue_full_waits", float64(totals.queueFull))
	rec.set("realtime.dropped_old", float64(totals.droppedOld))
	rec.set("realtime.decode_errors", float64(totals.decodeErrors))
	rec.set("realtime.wal_bytes_per_event", ratio(float64(totals.walBytes), float64(f.fed)))
	rec.set("realtime.fsyncs", float64(totals.fsyncs))
	rec.set("realtime.recovered_events", float64(f.fed))

	if tr != nil {
		return w.probes(tr, rec)
	}
	return nil
}

// probes take the counter apart for the traced run: Thrift decode alone,
// then the pre-decoded events through a Batcher into a memory-only counter,
// which is the counters with decode and the WAL removed.
func (w *realtimeMixed) probes(tr *tracer, rec *recorder) error {
	root := tr.begin("phase.probes", "probes", -1)
	defer func() { tr.end(root, 0) }()
	evs, err := decodeArena(w.a, tr, root)
	if err != nil {
		return err
	}
	c := realtime.New(realtime.Config{})
	defer c.Close()
	id := tr.begin("realtime.batcher", "probes", root)
	b := c.NewBatcher()
	for i := range evs {
		b.Add(&evs[i])
	}
	b.Flush()
	c.Sync()
	tr.end(id, int64(len(evs)))
	got := c.Stats().Observed
	rec.check(got == int64(len(evs)), "realtime-mixed: batcher probe counted %d of %d events", got, len(evs))
	return nil
}

// decodeArena unmarshals every message of the arena inside one span.
func decodeArena(a *arena, tr *tracer, parent int) ([]events.ClientEvent, error) {
	evs := make([]events.ClientEvent, a.len())
	err := tr.call("events.unmarshal", "probes", parent, int64(len(evs)), func() error {
		for i := range evs {
			if err := evs[i].Unmarshal(a.msg(i)); err != nil {
				return err
			}
		}
		return nil
	})
	return evs, err
}

// newestSnapshotBytes is the size of the latest snapshot file in a
// counter's directory. Snapshot names carry a zero-padded sequence number,
// so the largest name is the newest.
func newestSnapshotBytes(dir string) int64 {
	names, err := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if err != nil || len(names) == 0 {
		return 0
	}
	fi, err := os.Stat(slices.Max(names))
	if err != nil {
		return 0
	}
	return fi.Size()
}

func (w *realtimeMixed) endToEnd(rec *recorder) map[string]float64 { return streamEndToEnd(rec) }

func (w *realtimeMixed) opSamples(rec *recorder) int { return len(rec.get("query.op_cpu_ms")) }

func (w *realtimeMixed) layers(rec *recorder, tr *tracer) (map[string]float64, attribution) {
	tot := tr.totals()
	p50 := func(name string) float64 { return median(rec.get(name)) }
	out := streamLayers(rec)
	for k, v := range map[string]float64{
		"events.marshal_ns_per_event":   ratio(float64(w.gs.SinkNs), float64(w.gs.Events)),
		"events.unmarshal_ns_per_event": tr.nsPerEvent("events.unmarshal"),
		"realtime.tap_ns_per_event":     tr.nsPerEvent("realtime.tap"),
		"realtime.sync_wait_ms":         float64(tot["realtime.sync"].Ns) / 1e6,
		"realtime.batcher_ns_per_event": tr.nsPerEvent("realtime.batcher"),
		"realtime.snapshot_ms":          median(rec.get("realtime.snapshot_ms")),
		"realtime.recover_events_per_s": ratio(rec.value("realtime.recovered_events"), median(rec.get("recover_s"))),
		"realtime.pathsum_hour_p50_us":  p50("query.pathsum_hour_us"),
		"realtime.pathsum_day_p50_us":   p50("query.pathsum_day_us"),
		"realtime.topk_p50_us":          p50("query.topk_us"),
		"realtime.series_p50_us":        p50("query.series_us"),
		"realtime.query_p99_us":         tail(singleQueries(rec), 0.99),
		"realtime.rollup_snapshot_ms":   median(tr.durationsMs("realtime.rollup_snapshot")),
		"realtime.writer_late_max_ms":   rec.value("writer.late_max_ms"),
	} {
		out[k] = v
	}
	copyValues(out, rec, "realtime.allocs_per_event", "realtime.queue_full_waits", "realtime.dropped_old",
		"realtime.decode_errors", "realtime.wal_bytes_per_event", "realtime.fsyncs", "realtime.snapshot_bytes")
	return out, attribute(tr, "phase.ingest", "1e9 / ingest_events_per_s", "realtime.tap", "realtime.sync", "bench.kernel.ingest-max")
}
