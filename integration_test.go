package unilog_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"unilog/internal/analytics"
	"unilog/internal/birdbrain"
	"unilog/internal/catalog"
	"unilog/internal/dataflow"
	"unilog/internal/events"
	"unilog/internal/hdfs"
	"unilog/internal/logmover"
	"unilog/internal/scribe"
	"unilog/internal/session"
	"unilog/internal/warehouse"
	"unilog/internal/workload"
	"unilog/internal/zk"
)

var day = time.Date(2012, 8, 21, 0, 0, 0, 0, time.UTC)

// TestPipelineFaultTolerance is §2's delivery guarantee and Figure 1 end to
// end: two datacenters deliver a day of traffic through daemons and
// aggregators while one aggregator is gracefully restarted mid-run and the
// staging cluster of the other datacenter suffers a transient outage. The
// invariant: every message accepted by a daemon appears in the warehouse
// exactly once after the hours slide.
func TestPipelineFaultTolerance(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline run")
	}
	cfg := workload.DefaultConfig(day)
	cfg.Users = 200
	evs, truth := workload.New(cfg).Generate()

	clock := zk.NewManualClock(day)
	dc1, err := scribe.NewDatacenter("dc1", hdfs.New(0), clock, 2, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	dc2, err := scribe.NewDatacenter("dc2", hdfs.New(0), clock, 2, 3, 22)
	if err != nil {
		t.Fatal(err)
	}
	dcs := []*scribe.Datacenter{dc1, dc2}

	wh := hdfs.New(0)
	mover := logmover.New(wh,
		logmover.Source{Datacenter: "dc1", FS: dc1.Staging},
		logmover.Source{Datacenter: "dc2", FS: dc2.Staging},
	)

	// Replay the day hour by hour, interleaving fault injection.
	categories := []string{events.Category}
	i := 0
	var accepted int64
	for hr := 0; hr < 24; hr++ {
		hour := day.Add(time.Duration(hr) * time.Hour)
		// Fault injection at fixed hours.
		if hr == 6 {
			// Graceful restart of one dc1 aggregator: its buffers flush,
			// its ephemeral znode disappears, daemons rediscover.
			if err := dc1.Aggregators[0].Stop(); err != nil {
				t.Fatalf("stop aggregator: %v", err)
			}
		}
		if hr == 10 {
			dc2.Staging.SetAvailable(false) // staging outage begins
		}
		if hr == 12 {
			dc2.Staging.SetAvailable(true) // staging recovers
		}
		for ; i < len(evs) && evs[i].Timestamp < hour.Add(time.Hour).UnixMilli(); i++ {
			e := &evs[i]
			dc := dcs[int(e.UserID)%2]
			if e.UserID == 0 {
				dc = dcs[len(e.SessionID)%2]
			}
			d := dc.Daemons[int(e.Timestamp)%len(dc.Daemons)]
			d.Log(events.Category, e.Marshal())
			accepted++
		}
		clock.Advance(time.Hour)
		// Seal the hour on both datacenters. During the dc2 outage sealing
		// fails; those hours seal after recovery.
		for _, dc := range dcs {
			if err := dc.SealHour(categories, hour); err != nil &&
				!errors.Is(err, scribe.ErrSpilled) && !errors.Is(err, hdfs.ErrUnavailable) {
				t.Fatalf("seal %v: %v", hour, err)
			}
		}
		if _, err := mover.MoveAllSealed(); err != nil {
			t.Fatalf("mover: %v", err)
		}
	}
	// Recovery pass: reseal everything (dc2's outage hours) and move.
	for hr := 0; hr < 24; hr++ {
		hour := day.Add(time.Duration(hr) * time.Hour)
		for _, dc := range dcs {
			if err := dc.SealHour(categories, hour); err != nil {
				t.Fatalf("final seal: %v", err)
			}
		}
	}
	if _, err := mover.MoveAllSealed(); err != nil {
		t.Fatal(err)
	}

	if accepted != truth.Events {
		t.Fatalf("routed %d of %d events", accepted, truth.Events)
	}
	// Zero loss, zero duplication: every accepted message is in the
	// warehouse exactly once.
	seen := make(map[string]int)
	var total int64
	err = warehouse.ScanDay(wh, events.Category, day, func(e *events.ClientEvent) error {
		total++
		key := fmt.Sprintf("%d|%s|%d|%s", e.UserID, e.SessionID, e.Timestamp, e.Name.String())
		seen[key]++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != truth.Events {
		t.Fatalf("warehouse has %d events, accepted %d (loss or duplication)", total, truth.Events)
	}
	// No daemon kept anything spooled; no aggregator dropped anything.
	for _, dc := range dcs {
		for _, d := range dc.Daemons {
			if s := d.Stats(); s.Spooled != 0 || s.Delivered != s.Accepted {
				t.Fatalf("daemon %s stats = %+v", d.Host, s)
			}
		}
		for _, a := range dc.Aggregators {
			if s := a.Stats(); s.MessagesDropped != 0 {
				t.Fatalf("aggregator %s dropped %d", a.ID, s.MessagesDropped)
			}
		}
	}
	// The fault actually exercised the paths under test.
	rediscoveries := int64(0)
	for _, d := range dc1.Daemons {
		rediscoveries += d.Stats().Rediscoveries
	}
	if rediscoveries < 4 {
		t.Fatalf("dc1 rediscoveries = %d; aggregator restart not exercised", rediscoveries)
	}
	flushFailures := int64(0)
	for _, a := range dc2.Aggregators {
		flushFailures += a.Stats().FlushFailures
	}
	if flushFailures == 0 {
		t.Fatal("dc2 staging outage not exercised")
	}

	// Downstream still works on the moved data: sessions and analytics
	// agree with ground truth.
	dict, _, stats, err := session.BuildDay(wh, day, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sessions != truth.Sessions {
		t.Fatalf("sessions = %d, truth %d", stats.Sessions, truth.Sessions)
	}
	stages := make([]analytics.Matcher, 5)
	for i, full := range workload.FunnelStages("web") {
		want := events.MustParseName(full)
		want.Client = ""
		w := want
		stages[i] = func(name string) bool {
			n, err := events.ParseName(name)
			if err != nil {
				return false
			}
			n.Client = ""
			return n == w
		}
	}
	f := analytics.NewFunnel(dict, stages...)
	j := dataflow.NewJob("funnel", wh)
	rep, err := analytics.FunnelSequencesDay(j, day, f)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rep.Completed {
		if rep.Completed[i] != truth.FunnelStage[i] {
			t.Fatalf("funnel stage %d = %d, truth %d", i, rep.Completed[i], truth.FunnelStage[i])
		}
	}
}

// TestDailyPipelineInOrder runs the paper's production workflow (§3) the
// way cmd/unilog-demo and scenario.Run do, with no scheduler between the
// steps: every hour is sealed and moved behind the mover's all-datacenters
// barrier, then the daily session-sequence build and the dashboard are
// called in order. The mover's audit trail is the execution trace: one
// record per moved category-hour, accounting for every event — each
// client-events hour, and beside it the empty scribe.InvalidCategory hour
// SealHour seals with it (the generated traffic has no refused event).
func TestDailyPipelineInOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline run")
	}
	cfg := workload.DefaultConfig(day)
	cfg.Users = 100
	evs, truth := workload.New(cfg).Generate()

	clock := zk.NewManualClock(day)
	dc, err := scribe.NewDatacenter("dc1", hdfs.New(0), clock, 1, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	wh := hdfs.New(0)
	mover := logmover.New(wh, logmover.Source{Datacenter: "dc1", FS: dc.Staging})

	i := 0
	for hr := 0; hr < 25; hr++ {
		hour := day.Add(time.Duration(hr) * time.Hour)
		for ; i < len(evs) && evs[i].Timestamp < hour.Add(time.Hour).UnixMilli(); i++ {
			dc.Daemons[i%2].Log(events.Category, evs[i].Marshal())
		}
		clock.Advance(time.Hour)
		if err := dc.SealHour([]string{events.Category}, hour); err != nil {
			t.Fatal(err)
		}
		moved, err := mover.MoveAllSealed()
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range moved {
			if !rec.Hour.Equal(hour) {
				t.Fatalf("sealing %v moved %v", hour, rec.Hour)
			}
		}
	}

	_, _, stats, err := session.BuildDay(wh, day, 3)
	if err != nil {
		t.Fatalf("session sequences never built: %v", err)
	}
	if stats.Sessions != truth.Sessions {
		t.Fatalf("sessions = %d, truth %d", stats.Sessions, truth.Sessions)
	}
	summary, err := birdbrain.Build(wh, day, 5)
	if err != nil {
		t.Fatal(err)
	}
	if summary.Sessions != truth.Sessions {
		t.Fatalf("dashboard = %+v, want %d sessions", summary, truth.Sessions)
	}

	type catHour struct {
		category string
		hour     time.Time
	}
	moved := make(map[catHour]bool)
	var records int64
	hours := 0
	for _, rec := range mover.Audits() {
		ch := catHour{rec.Category, rec.Hour}
		known := rec.Category == events.Category || rec.Category == scribe.InvalidCategory && rec.Records == 0
		if !known || moved[ch] {
			t.Fatalf("audit trail: unexpected or repeated record %+v", rec)
		}
		moved[ch] = true
		records += rec.Records
		if rec.Category == events.Category {
			hours++
		}
	}
	if hours < 24 {
		t.Fatalf("only %d client-events hours in the audit trail", hours)
	}
	if records != truth.Events {
		t.Fatalf("audit trail accounts for %d events, truth %d", records, truth.Events)
	}
}

// TestThreeDayProduction replays three days of growing traffic through the
// daily jobs called in order: session sequences, the catalog (with developer
// descriptions carrying forward across rebuilds), and the BirdBrain trend
// that §5.1 uses to "monitor the growth of the service over time".
func TestThreeDayProduction(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-day run")
	}
	wh := hdfs.New(0)
	var lastCatalog *catalog.Catalog

	perDay := make([]*workload.Truth, 3)
	for i := 0; i < 3; i++ {
		d := day.AddDate(0, 0, i)
		cfg := workload.DefaultConfig(d)
		cfg.Users = 60 * (i + 1) // growth
		cfg.Seed = int64(500 + i)
		evs, truth := workload.New(cfg).Generate()
		perDay[i] = truth
		if err := workload.WriteWarehouse(wh, evs); err != nil {
			t.Fatal(err)
		}
		// Day 1: a data scientist documents the top event.
		if i == 1 && lastCatalog != nil {
			name := lastCatalog.All()[0].Name
			if err := lastCatalog.Describe(name, "documented on day 0"); err != nil {
				t.Fatal(err)
			}
			if err := lastCatalog.Save(wh); err != nil {
				t.Fatal(err)
			}
		}
		_, _, stats, err := session.BuildDay(wh, d, 3)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Sessions != truth.Sessions {
			t.Fatalf("day %d built %d sessions, truth %d", i, stats.Sessions, truth.Sessions)
		}
		if lastCatalog, err = catalog.Rebuild(wh, d, 2); err != nil {
			t.Fatal(err)
		}
	}

	// The description survived the day-2 rebuild.
	found := false
	for _, e := range lastCatalog.All() {
		if e.Description == "documented on day 0" {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("developer description lost across daily rebuilds")
	}
	// The trend shows growth and matches per-day ground truth.
	tr, err := birdbrain.BuildTrend(wh, day, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Days) != 3 {
		t.Fatalf("trend days = %d", len(tr.Days))
	}
	for i, s := range tr.Days {
		if s.Sessions != perDay[i].Sessions {
			t.Fatalf("day %d sessions = %d, truth %d", i, s.Sessions, perDay[i].Sessions)
		}
	}
	if !(tr.Days[0].Sessions < tr.Days[1].Sessions && tr.Days[1].Sessions < tr.Days[2].Sessions) {
		t.Fatalf("growth not visible: %d %d %d", tr.Days[0].Sessions, tr.Days[1].Sessions, tr.Days[2].Sessions)
	}
}
