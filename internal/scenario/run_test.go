package scenario

import (
	"strings"
	"testing"
	"time"

	"unilog/internal/chunk"
	"unilog/internal/columnar"
	"unilog/internal/events"
	"unilog/internal/hdfs"
	"unilog/internal/warehouse"
	"unilog/internal/workload"
)

// TestRunOutageBackfillCell is the end-to-end proof the CI matrix relies
// on: a region goes dark mid-day, its daemons spool, the spools replay
// after the window, and the cell ends exactly-once with the realtime
// counters agreeing exactly with the batch rollups — Reconcile(day)
// exact after backfill.
func TestRunOutageBackfillCell(t *testing.T) {
	spec, err := Parse([]byte(`{
		"name": "outage-test",
		"total_sessions": 60,
		"regions": ["east", "west"],
		"clients": [
			{"id": "web", "rate_fraction": 0.7, "arrival": {"process": "poisson"}},
			{"id": "mobile", "rate_fraction": 0.3, "arrival": {"process": "gamma", "cv": 2}}
		],
		"faults": [{"kind": "outage", "subject": "west", "start_minute": 300, "end_minute": 480}],
		"invariants": {
			"reconcile_exact": true,
			"exactly_once": true,
			"require_backfill": true,
			"min_send_failures": 1
		}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(spec, RunConfig{Name: "test", Shards: 2, MemoryBudgetBytes: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Events == 0 {
		t.Fatal("no events ran")
	}
	if res.SendFailures == 0 {
		t.Fatal("outage injected no send failures — the region never went dark")
	}
	if res.SpooledAtEnd != 0 {
		t.Fatalf("%d entries still spooled — backfill did not complete", res.SpooledAtEnd)
	}
	if !res.ExactlyOnce {
		t.Fatalf("accepted %d events but warehouse holds %d", res.Events, res.InWarehouse)
	}
	if !res.ReconcileOK {
		t.Fatalf("reconcile diverged after backfill: %d diffs over %d batch rows",
			res.ReconcileDiffs, res.ReconcileBatchRows)
	}
	if !res.OK {
		t.Fatalf("invariants failed: %+v", res.Invariants)
	}
	if res.Telemetry.Series["realtime.ingest.events"] != res.Events {
		t.Fatalf("telemetry ingest %d != accepted %d",
			res.Telemetry.Series["realtime.ingest.events"], res.Events)
	}
}

// TestRunFlashCrowdCell drives the other vertical: a subtree spike must
// amplify traffic, land exactly-once, and still reconcile exactly.
func TestRunFlashCrowdCell(t *testing.T) {
	spec, err := Parse([]byte(`{
		"name": "crowd-test",
		"total_sessions": 40,
		"regions": ["east"],
		"clients": [{"id": "web", "rate_fraction": 1.0}],
		"faults": [
			{"kind": "flash_crowd", "subject": "web:home", "start_minute": 600, "end_minute": 780, "magnitude": 20}
		],
		"invariants": {
			"reconcile_exact": true,
			"exactly_once": true,
			"min_crowd_events": 1
		}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(spec, RunConfig{Name: "test", Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.CrowdEvents == 0 {
		t.Fatal("flash crowd produced no synthetic events")
	}
	if !res.OK {
		t.Fatalf("invariants failed: %+v", res.Invariants)
	}
}

func TestInvariantFailureIsReported(t *testing.T) {
	spec, err := Parse([]byte(`{
		"name": "impossible",
		"total_sessions": 10,
		"regions": ["east"],
		"clients": [{"id": "web", "rate_fraction": 1.0}],
		"invariants": {"min_send_failures": 1}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(spec, RunConfig{Name: "test"})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK {
		t.Fatal("cell with no outage cannot satisfy min_send_failures, yet OK=true")
	}
	found := false
	for _, c := range res.Invariants {
		if c.Name == "min_send_failures" && !c.OK {
			found = true
		}
	}
	if !found {
		t.Fatalf("failed invariant not reported: %+v", res.Invariants)
	}
}

// TestStoredDigestReadsWhatWasWritten: a sealed day digests the same three
// ways — over the ClientEvents written, over its chunks through the day
// reader (storedDigest, the cell's warehouse_digest), and over its row files
// through chunk.ReadRowFile — and an hour published without its chunks is
// refused rather than digested from its rows.
func TestStoredDigestReadsWhatWasWritten(t *testing.T) {
	day := time.Date(2012, 8, 21, 0, 0, 0, 0, time.UTC)
	cfg := workload.DefaultConfig(day)
	cfg.Users = 40
	cfg.LoggedOutSessions = 30
	evs, _ := workload.New(cfg).Generate()
	wh := hdfs.New(0)
	w := warehouse.NewWriter(wh, events.Category)
	w.RollRecords = 700
	var written events.Digest
	for i := range evs {
		e := &evs[i]
		if err := w.Append(e); err != nil {
			t.Fatal(err)
		}
		written.Add(e.UserID, e.SessionID, e.Timestamp, e.Name.String())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	var rows events.Digest
	dirs := warehouse.HourDirs(wh, events.Category, day)
	for _, dir := range dirs {
		infos, err := wh.Walk(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, fi := range infos {
			b, err := chunk.ReadRowFile(wh, fi.Path, chunk.UserID|chunk.SessionID|chunk.Timestamp|chunk.Name)
			if err != nil {
				t.Fatal(err)
			}
			for row := 0; row < b.Rows; row++ {
				rows.Add(b.UserID[row], b.SessionID.At(row), b.Timestamp[row], b.Name.At(row))
			}
			b.Release()
		}
	}
	if _, err := storedDigest(wh, day); err == nil || !strings.Contains(err.Error(), dirs[0]) {
		t.Fatalf("an unsealed day digested with err = %v, want one naming %s", err, dirs[0])
	}
	sealed := 0
	for h := 0; h < 24; h++ {
		n, err := columnar.SealHourChunks(wh, events.Category, day.Add(time.Duration(h)*time.Hour), 300)
		if err != nil {
			t.Fatal(err)
		}
		sealed += n
	}
	if sealed <= len(dirs) {
		t.Fatalf("%d chunks over %d hours: want hours of more than one chunk", sealed, len(dirs))
	}
	chunks, err := storedDigest(wh, day)
	if err != nil {
		t.Fatal(err)
	}
	if written.N != int64(len(evs)) || rows != written || chunks != written {
		t.Errorf("digests: written %+v, row files %+v, chunks %+v", written, rows, chunks)
	}
}
