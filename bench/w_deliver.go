package main

import (
	"fmt"
	"runtime"
	"time"

	"unilog/internal/columnar"
	"unilog/internal/events"
	"unilog/internal/hdfs"
	"unilog/internal/logmover"
	"unilog/internal/scribe"
	"unilog/internal/warehouse"
	"unilog/internal/zk"
)

// deliverDay is the paper's §2 write path: daemons → aggregators → staging
// → log mover → warehouse rows → columnar seal, two regions, the clock
// stepped by the events' own hour. Closed loop: one goroutine logs an
// hour, then publishes it, then logs the next.
type deliverDay struct {
	rc *runCtx
	a  *arena
	o  *oracle
	gs genStats
}

const (
	deliverRegions     = 2
	deliverAggregators = 2
	deliverDaemons     = 3
)

func (w *deliverDay) setup() error {
	a, o, gs, err := generateArena(dayConfig(w.rc.seed, w.rc.events(500_000)))
	if err != nil {
		return err
	}
	w.a, w.o, w.gs = a, o, gs
	return nil
}

func (w *deliverDay) gen() genStats { return w.gs }

func (w *deliverDay) measure(budget time.Duration, tr *tracer, rec *recorder) error {
	return repeatFor(budget, func() error { return w.pass(tr, rec) })
}

// pass delivers the whole day once through a fresh topology and checks
// that the warehouse holds every event exactly once.
func (w *deliverDay) pass(tr *tracer, rec *recorder) error {
	const phase = "deliver"
	clock := zk.NewManualClock(benchDay)
	var dcs []*scribe.Datacenter
	var sources []logmover.Source
	for r := 0; r < deliverRegions; r++ {
		name := fmt.Sprintf("dc%d", r+1)
		dc, err := scribe.NewDatacenter(name, hdfs.New(0), clock, deliverAggregators, deliverDaemons, w.rc.seed+int64(r))
		if err != nil {
			return err
		}
		dcs = append(dcs, dc)
		sources = append(sources, logmover.Source{Datacenter: name, FS: dc.Staging})
	}
	wh := hdfs.New(0)
	mover := logmover.New(wh, sources...)
	cats := []string{events.Category}
	n := int64(w.a.len())
	chunks := 0

	// publish seals the hour in every region, moves what is sealed and
	// re-encodes the hours that just landed: the steps between "the hour
	// ended" and "the hour is queryable in both layouts".
	publish := func(parent int, hour time.Time, evs int64) error {
		for _, dc := range dcs {
			if err := tr.call("scribe.seal_hour", phase, parent, evs, func() error {
				return dc.SealHour(cats, hour)
			}); err != nil {
				return err
			}
			evs = 0 // the hour's events are counted once, on the first region
		}
		var moved []logmover.AuditRecord
		if err := tr.call("logmover.move", phase, parent, 0, func() error {
			var err error
			moved, err = mover.MoveAllSealed()
			return err
		}); err != nil {
			return err
		}
		var hours []time.Time
		for _, m := range moved {
			if m.Category == events.Category {
				hours = append(hours, m.Hour)
			}
		}
		return tr.call("columnar.seal", phase, parent, 0, func() error {
			c, err := columnar.SealHoursParallel(wh, events.Category, hours, 0)
			chunks += c
			return err
		})
	}

	// Each pass starts from a collected heap: the previous pass's staging
	// and warehouse filesystems are garbage by now.
	runtime.GC()
	publishMs, publishCPUMs := make([]float64, 24), make([]float64, 24)
	root := tr.begin("phase.deliver", phase, -1)
	// The pass is timed in parts, an hour's logging and an hour's publish
	// each, with the reference kernel between them and outside them all.
	var passWall, passCPU float64
	part := func(t0 stamp) (wall, cpu float64) {
		wall, cpu = t0.since()
		passWall += wall
		passCPU += cpu
		return wall, cpu
	}
	for hr := 0; hr < 24; hr++ {
		hour := benchDay.Add(time.Duration(hr) * time.Hour)
		lo, hi := w.a.hourStart[hr], w.a.hourStart[hr+1]
		w.rc.cal.tick(tr, phase, root)
		t0 := now()
		id := tr.begin("scribe.log", phase, root)
		for i := lo; i < hi; i++ {
			dc := dcs[i%deliverRegions]
			dc.Daemons[(i/deliverRegions)%deliverDaemons].Log(events.Category, w.a.msg(i))
		}
		tr.end(id, int64(hi-lo))
		clock.Advance(time.Hour)
		part(t0)
		t0 = now()
		if err := publish(root, hour, int64(hi-lo)); err != nil {
			return err
		}
		wall, cpu := part(t0)
		publishMs[hr], publishCPUMs[hr] = wall*1e3, cpu*1e3
	}
	rec.rounds("deliver.publish_ms", publishMs)
	rec.rounds("deliver.publish_cpu_ms", publishCPUMs)
	// End of day: drain whatever is still spooled or buffered, then seal
	// and move once more so that nothing depends on the hourly cadence.
	t0 := now()
	for _, dc := range dcs {
		if err := tr.call("scribe.flush", phase, root, 0, dc.FlushAll); err != nil {
			return err
		}
	}
	if err := publish(root, benchDay.Add(23*time.Hour), 0); err != nil {
		return err
	}
	part(t0)
	tr.end(root, n)
	rec.sample("deliver.events_per_s", float64(n)/passWall)
	rec.sample("deliver.events_per_cpu_s", float64(n)/passCPU)

	// Exactly once: every logged event is in the warehouse, none twice.
	var got setDigest
	vid := tr.begin("verify.scan", "verify", -1)
	err := warehouse.ScanDay(wh, events.Category, benchDay, func(e *events.ClientEvent) error {
		got.add(eventIdentity(e))
		return nil
	})
	tr.end(vid, got.N)
	if err != nil {
		return err
	}
	rec.attempt(n)
	switch {
	case got.N != w.o.digest.N:
		diff := got.N - w.o.digest.N
		if diff < 0 {
			diff = -diff
		}
		rec.fail(diff, "deliver-day: warehouse holds %d events, %d were logged", got.N, w.o.digest.N)
	case got != w.o.digest:
		rec.fail(1, "deliver-day: warehouse digest %s differs from the generator's %s", got, w.o.digest)
	}
	for hr := 0; hr < 24; hr++ {
		if w.a.hourStart[hr+1] == w.a.hourStart[hr] {
			continue
		}
		dir := warehouse.HourDir(events.Category, benchDay.Add(time.Duration(hr)*time.Hour))
		rec.check(columnar.HasColumnar(wh, dir), "deliver-day: hour %02d was published but not sealed into chunks", hr)
	}

	// Layer counts, from the layers' own public statistics.
	var accepted, delivered, spooled, sendFailures, dropped int64
	var staging hdfs.Stats
	for _, dc := range dcs {
		for _, d := range dc.Daemons {
			s := d.Stats()
			accepted += s.Accepted
			delivered += s.Delivered
			spooled += s.Spooled
			sendFailures += s.SendFailures
		}
		for _, a := range dc.Aggregators {
			dropped += a.Stats().MessagesDropped
		}
		staging = addFSStats(staging, dc.Staging.Snapshot())
	}
	rec.check(accepted == n && delivered == n && spooled == 0 && dropped == 0,
		"deliver-day: daemons accepted %d, delivered %d, spooled %d, aggregators dropped %d of %d", accepted, delivered, spooled, dropped, n)
	var filesIn, filesOut int
	var bytesIn, bytesOut, records int64
	for _, a := range mover.Audits() {
		filesIn += a.FilesIn
		filesOut += a.FilesOut
		bytesIn += a.BytesIn
		bytesOut += a.BytesOut
		records += a.Records
	}
	rec.check(records == n, "deliver-day: mover audits account for %d of %d records", records, n)
	total, err := wh.TotalSize(warehouse.CategoryDir(events.Category))
	if err != nil {
		return err
	}
	rows, err := warehouse.DataSize(wh, warehouse.CategoryDir(events.Category))
	if err != nil {
		return err
	}
	all := addFSStats(staging, wh.Snapshot())
	fn := float64(n)
	rec.set("stored_bytes_per_event", float64(total)/fn)
	rec.set("scribe.staging_bytes_per_event", float64(bytesIn)/fn)
	rec.set("scribe.staging_files", float64(filesIn))
	rec.set("scribe.send_failures", float64(sendFailures))
	rec.set("scribe.spooled_at_end", float64(spooled))
	rec.set("logmover.files_in_per_file_out", ratio(float64(filesIn), float64(filesOut)))
	rec.set("logmover.bytes_out_per_event", float64(bytesOut)/fn)
	rec.set("hdfs.bytes_written_per_event", float64(all.BytesWritten)/fn)
	rec.set("hdfs.bytes_read_per_event", float64(all.BytesRead)/fn)
	rec.set("hdfs.files_created", float64(all.FilesCreated))
	rec.set("hdfs.renames", float64(all.Renames))
	rec.set("warehouse.row_bytes_per_event", float64(rows)/fn)
	rec.set("columnar.bytes_per_event", float64(total-rows)/fn)
	rec.set("columnar.chunks", float64(chunks))
	for _, dc := range dcs {
		for _, d := range dc.Daemons {
			d.Close()
		}
	}
	return nil
}

// addFSStats sums the filesystem counters the hdfs.* metrics report.
func addFSStats(a, b hdfs.Stats) hdfs.Stats {
	a.BytesRead += b.BytesRead
	a.BytesWritten += b.BytesWritten
	a.FilesCreated += b.FilesCreated
	a.Renames += b.Renames
	return a
}

// publishMs is, for each hour of the day that had traffic, the median over
// the passes of how long that hour took to publish, on the named clock
// ("deliver.publish_ms" or "deliver.publish_cpu_ms").
func (w *deliverDay) publishMs(rec *recorder, clock string) []float64 {
	var out []float64
	for hr, ms := range perItemMedians(rec.roundsOf(clock)) {
		if w.a.hourStart[hr+1] > w.a.hourStart[hr] {
			out = append(out, ms)
		}
	}
	return out
}

func (w *deliverDay) endToEnd(rec *recorder) map[string]float64 {
	return map[string]float64{
		"events_per_cpu_s":       median(rec.get("deliver.events_per_cpu_s")),
		"op_cpu_ms":              median(w.publishMs(rec, "deliver.publish_cpu_ms")),
		"stored_bytes_per_event": rec.value("stored_bytes_per_event"),
		"events_per_s":           median(rec.get("deliver.events_per_s")),
		"op_p50_ms":              median(w.publishMs(rec, "deliver.publish_ms")),
	}
}

func (w *deliverDay) opSamples(rec *recorder) int {
	return len(w.publishMs(rec, "deliver.publish_cpu_ms"))
}

func (w *deliverDay) layers(rec *recorder, tr *tracer) (map[string]float64, attribution) {
	tot := tr.totals()
	n := float64(tot["phase.deliver"].Events)
	perEvent := func(name string) float64 { return ratio(float64(tot[name].Ns), n) }
	out := map[string]float64{
		"deliver_events_per_s":        median(rec.get("deliver.events_per_s")),
		"events.marshal_ns_per_event": ratio(float64(w.gs.SinkNs), float64(w.gs.Events)),
		"scribe.log_ns_per_event":     perEvent("scribe.log"),
		"scribe.flush_ms":             ratio(float64(tot["scribe.flush"].Ns)/1e6, float64(tot["phase.deliver"].Count)),
		"scribe.seal_hour_p50_ms":     median(tr.durationsMs("scribe.seal_hour")),
		"logmover.move_ns_per_event":  perEvent("logmover.move"),
		"logmover.move_hour_p50_ms":   median(tr.durationsMs("logmover.move")),
		"columnar.seal_ns_per_event":  perEvent("columnar.seal"),
		"warehouse.scan_ns_per_event": tr.nsPerEvent("verify.scan"),
	}
	copyValues(out, rec, "scribe.staging_bytes_per_event", "scribe.staging_files", "scribe.send_failures",
		"scribe.spooled_at_end", "logmover.files_in_per_file_out", "logmover.bytes_out_per_event",
		"hdfs.bytes_written_per_event", "hdfs.bytes_read_per_event", "hdfs.files_created", "hdfs.renames",
		"warehouse.row_bytes_per_event", "columnar.bytes_per_event", "columnar.chunks")
	return out, attribute(tr, "phase.deliver", "1e9 / deliver_events_per_s",
		"scribe.log", "scribe.seal_hour", "scribe.flush", "logmover.move", "columnar.seal", "bench.kernel.deliver")
}
