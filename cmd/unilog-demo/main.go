// Command unilog-demo runs Figure 1 end to end: Scribe daemons on
// production hosts in two datacenters deliver a day of client events
// through ZooKeeper-discovered aggregators onto per-datacenter staging
// clusters; the log mover slides sealed hours into the main warehouse; the
// daily jobs build the dictionary, session sequences, catalog, and the
// BirdBrain dashboard. Faults are injected mid-run to demonstrate §2's
// robustness story.
//
// The pipeline's own telemetry (internal/telemetry) is live for the whole
// run: -http serves the /debug/unilog endpoint (expvar-style text, or
// JSON with ?format=json) while the day replays, -telemetry-every logs a
// one-line summary of changed series on that cadence, and -hold keeps the
// process (and the endpoint) up after the run finishes so a scraper can
// read the final counters — which is exactly what the CI metrics-smoke
// step does.
//
// Usage:
//
//	unilog-demo [-users N] [-seed S] [-faults=false] [-http addr] [-hold d]
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"unilog/internal/analytics"
	"unilog/internal/birdbrain"
	"unilog/internal/catalog"
	"unilog/internal/chunk"
	"unilog/internal/dataflow"
	"unilog/internal/events"
	"unilog/internal/hdfs"
	"unilog/internal/logmover"
	"unilog/internal/realtime"
	"unilog/internal/scribe"
	"unilog/internal/session"
	"unilog/internal/telemetry"
	"unilog/internal/warehouse"
	"unilog/internal/workload"
	"unilog/internal/zk"
)

var day = time.Date(2012, 8, 21, 0, 0, 0, 0, time.UTC)

func main() {
	users := flag.Int("users", 300, "logged-in user population")
	seed := flag.Int64("seed", 2012, "workload seed")
	faults := flag.Bool("faults", true, "inject an aggregator restart and a staging outage")
	live := flag.Bool("live", true, "print realtime counters mid-run")
	crash := flag.Bool("crash", true, "kill and recover the realtime counters mid-run (WAL + snapshot durability)")
	httpAddr := flag.String("http", "", "serve the /debug/unilog telemetry endpoint on this address (e.g. 127.0.0.1:8080)")
	hold := flag.Duration("hold", 0, "keep the process (and telemetry endpoint) up this long after the run")
	sumEvery := flag.Duration("telemetry-every", 0, "log a one-line telemetry summary on this cadence (0 disables)")
	flag.Parse()

	if *httpAddr != "" {
		ln, err := net.Listen("tcp", *httpAddr)
		check(err)
		mux := http.NewServeMux()
		mux.Handle("/debug/unilog", telemetry.Handler())
		go func() { _ = http.Serve(ln, mux) }()
		fmt.Printf("telemetry: serving http://%s/debug/unilog\n", ln.Addr())
	}
	var sumLog *telemetry.SummaryLogger
	if *sumEvery > 0 {
		sumLog = telemetry.Default.StartSummaryLogger(os.Stdout, *sumEvery)
	}

	cfg := workload.DefaultConfig(day)
	cfg.Users = *users
	cfg.Seed = *seed
	evs, truth := workload.New(cfg).Generate()
	fmt.Printf("generated %d events across %d sessions (%d logged-in users)\n\n",
		truth.Events, truth.Sessions, truth.UniqueUsers)

	// --- Figure 1 topology: two datacenters, shared virtual clock. ---
	clock := zk.NewManualClock(day)
	dc1 := mustDC("dc1", clock, 2, 4, *seed+1)
	dc2 := mustDC("dc2", clock, 2, 4, *seed+2)
	dcs := []*scribe.Datacenter{dc1, dc2}
	wh := hdfs.New(0)
	mover := logmover.New(wh,
		logmover.Source{Datacenter: "dc1", FS: dc1.Staging},
		logmover.Source{Datacenter: "dc2", FS: dc2.Staging})

	// The realtime subsystem taps every aggregator: accepted client events
	// fan into sharded counters and are queryable seconds later, a day
	// before the warehouse path publishes the same numbers. The counters
	// are durable: every drained batch hits a per-shard write-ahead log,
	// and periodic snapshots bound recovery time, so a crashed shard
	// remembers "today so far".
	walDir, err := os.MkdirTemp("", "unilog-rt-wal-")
	check(err)
	defer os.RemoveAll(walDir)
	rtCfg := realtime.Config{Shards: 4}
	rt, err := realtime.Open(walDir, rtCfg)
	check(err)
	rt.Publish(nil)
	defer func() { rt.Close() }()
	retap := func() {
		for _, dc := range dcs {
			for _, a := range dc.Aggregators {
				a.Tap = rt.TapBatch
			}
		}
	}
	retap()
	lambda := birdbrain.NewLambda(wh, rt, clock.Now)

	fmt.Println("replaying the day hour by hour through the delivery pipeline:")
	i := 0
	for hr := 0; hr < 24; hr++ {
		hour := day.Add(time.Duration(hr) * time.Hour)
		if *faults && hr == 6 {
			fmt.Println("  hour 06: administrator restarts dc1-agg00 (ephemeral znode drops, daemons re-discover)")
			check(dc1.Aggregators[0].Stop())
		}
		if *faults && hr == 10 {
			fmt.Println("  hour 10: dc2 staging HDFS outage begins (aggregators buffer locally)")
			dc2.Staging.SetAvailable(false)
		}
		if *faults && hr == 12 {
			fmt.Println("  hour 12: dc2 staging HDFS recovers (buffered files flush)")
			dc2.Staging.SetAvailable(true)
		}
		if *crash && hr == 10 {
			rt.Sync()
			check(rt.Snapshot())
			fmt.Println("  hour 10: realtime snapshot cut (shard rings serialized, WAL truncated)")
		}
		if *crash && hr == 14 {
			rt.Sync()
			before := rt.Stats().Observed
			rt.Crash()
			fmt.Printf("  hour 14: realtime counters killed without graceful close (%d events in memory)\n", before)
			rt, err = realtime.Open(walDir, rtCfg)
			check(err)
			rt.Publish(nil) // repoint the stats gauges at the recovered instance
			retap()
			lambda = birdbrain.NewLambda(wh, rt, clock.Now)
			fmt.Printf("  hour 14: recovered from snapshot + WAL tail: %d of %d events survive (exact: %v)\n",
				rt.Stats().Observed, before, rt.Stats().Observed == before)
		}
		n := 0
		for ; i < len(evs) && evs[i].Timestamp < hour.Add(time.Hour).UnixMilli(); i++ {
			e := &evs[i]
			dc := dcs[int(e.UserID+int64(len(e.SessionID)))%2]
			dc.Daemons[int(e.Timestamp)%len(dc.Daemons)].Log(events.Category, e.Marshal())
			n++
		}
		clock.Advance(time.Hour)
		for _, dc := range dcs {
			// Sealing fails while a staging cluster is down; resealed later.
			_ = dc.SealHour([]string{events.Category}, hour)
		}
		moved, err := mover.MoveAllSealed()
		check(err)
		if n > 0 || len(moved) > 0 {
			fmt.Printf("  hour %02d: %5d events logged, %d category-hours moved to warehouse\n", hr, n, len(moved))
		}
		if *live && (hr == 8 || hr == 16) {
			rt.Sync()
			fmt.Printf("  realtime: %d events in the counters; top clients:", rt.Stats().Observed)
			for _, pc := range rt.TopK("", 3, day, hour.Add(time.Hour)) {
				fmt.Printf(" %s=%d", pc.Path, pc.Count)
			}
			n, src, err := lambda.EventTotal(day, 4, "web:*:*:*:*:profile_click")
			check(err)
			fmt.Printf("; web profile_clicks today so far = %d (served from %s)\n", n, src)
		}
	}
	// Recovery pass for the outage hours.
	for hr := 0; hr < 24; hr++ {
		for _, dc := range dcs {
			check(dc.SealHour([]string{events.Category}, day.Add(time.Duration(hr)*time.Hour)))
		}
	}
	moved, err := mover.MoveAllSealed()
	check(err)
	if len(moved) > 0 {
		fmt.Printf("  recovery: %d deferred category-hours moved after staging recovered\n", len(moved))
	}

	// --- Delivery accounting. ---
	var accepted, delivered, redisc int64
	for _, dc := range dcs {
		for _, d := range dc.Daemons {
			s := d.Stats()
			accepted += s.Accepted
			delivered += s.Delivered
			redisc += s.Rediscoveries
		}
	}
	// A sealed hour counts from its chunks' zone maps, an unsealed one from
	// its row files.
	var inWarehouse int64
	for _, dir := range warehouse.HourDirs(wh, events.Category, day) {
		files, err := chunk.HourFiles(wh, dir)
		check(err)
		for _, fi := range files {
			if chunk.IsChunk(fi.Path) {
				m, err := chunk.ReadMeta(wh, fi.Path)
				check(err)
				inWarehouse += int64(m.Rows)
				continue
			}
			check(chunk.ScanFileRecords(wh, fi.Path, func([]byte) error {
				inWarehouse++
				return nil
			}))
		}
	}
	fmt.Printf("\ndelivery: accepted %d, delivered %d, in warehouse %d (exactly once: %v), zk rediscoveries %d\n",
		accepted, delivered, inWarehouse, inWarehouse == truth.Events, redisc)
	var filesIn, filesOut, sealedHours int
	for _, a := range mover.Audits() {
		filesIn += a.FilesIn
		filesOut += a.FilesOut
		if chunk.Sealed(wh, warehouse.HourDir(a.Category, a.Hour)) {
			sealedHours++
		}
	}
	fmt.Printf("log mover audit: %d moves, %d small staging files in, %d warehouse files out; %d hours published as column chunks alone\n\n",
		len(mover.Audits()), filesIn, filesOut, sealedHours)

	// --- Daily jobs: dictionary + session sequences + catalog + dashboard. ---
	dict, _, stats, err := session.BuildDay(wh, day, 3)
	check(err)
	fmt.Printf("session sequences: %d sessions from %d events, alphabet %d, %.1fx smaller than raw logs\n",
		stats.Sessions, stats.Events, stats.Alphabet, stats.Ratio())
	_ = dict

	cat, err := catalog.Rebuild(wh, day, 3)
	check(err)
	fmt.Printf("client event catalog: %d event types; top of the hierarchy:\n", cat.Len())
	clients, err := cat.Children(nil)
	check(err)
	for _, cc := range clients {
		fmt.Printf("  %-12s %8d events\n", cc.Value, cc.Count)
	}
	fmt.Println()

	summary, err := birdbrain.Build(wh, day, 5)
	check(err)
	summary.Render(os.Stdout)

	// Re-run the dashboard rollup under a deliberately tight memory
	// budget: the group-by spills sorted runs and the merge-reduce streams
	// them back, exercising the external dataflow path end to end so the
	// dataflow.spill.* telemetry series reflect a real out-of-core job.
	spillJob := dataflow.NewJob("demo-rollups-budgeted", wh)
	spillJob.MemoryBudget = 32 << 10
	budgeted, err := analytics.Rollups(spillJob, day)
	check(err)
	js := spillJob.Stats()
	fmt.Printf("\nbudgeted rollup (32 KiB): %d rows via %d spill runs, %d spilled bytes, merge fan-in %d\n",
		len(budgeted), js.SpillRuns, js.SpilledBytes, js.PeakRunFanIn)

	// --- Lambda reconciliation: the streaming and batch paths must agree. ---
	rt.Sync()
	rts := rt.Stats()
	fmt.Printf("\nrealtime tap: %d entries tapped, %d events counted, in warehouse %d (streams agree: %v)\n",
		rts.TapEntries, rts.Observed, inWarehouse, rts.Observed == inWarehouse)
	// The counter that tapped the day (killed and recovered at hour 14
	// under -crash) against the batch rollups over the sealed day.
	rep, err := realtime.Reconcile(wh, day, rt)
	check(err)
	fmt.Println(rep)

	// The clock is past midnight, so BirdBrain hands the day over to the
	// warehouse path; the number must not jump.
	const metric = "web:*:*:*:*:profile_click"
	wasLive := rt.RollupTotal(4, metric, day, day.Add(24*time.Hour))
	sealed, src, err := lambda.EventTotal(day, 4, metric)
	check(err)
	fmt.Printf("lambda handover: %s = %d from %s after midnight (realtime served %d — jump-free: %v)\n",
		metric, sealed, src, wasLive, sealed == wasLive)

	if sumLog != nil {
		sumLog.Stop()
	}
	fmt.Println("\n" + telemetry.Default.Summary())
	if *hold > 0 {
		fmt.Printf("holding %s: telemetry endpoint stays up for scraping\n", *hold)
		time.Sleep(*hold)
	}
}

func mustDC(name string, clock zk.Clock, aggs, daemons int, seed int64) *scribe.Datacenter {
	dc, err := scribe.NewDatacenter(name, hdfs.New(0), clock, aggs, daemons, seed)
	check(err)
	return dc
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "unilog-demo:", err)
		os.Exit(1)
	}
}
