package realtime

import (
	"strings"
	"testing"
	"time"

	"unilog/internal/analytics"
	"unilog/internal/events"
	"unilog/internal/hdfs"
	"unilog/internal/warehouse"
	"unilog/internal/workload"
)

var day = time.Date(2012, 8, 21, 0, 0, 0, 0, time.UTC)

// TestReconcileSealedDay feeds a day's events to a counter through
// Batcher.Add and writes the same events to the warehouse, then requires
// Reconcile to find exact agreement with the batch rollup job — same keys,
// same counts.
func TestReconcileSealedDay(t *testing.T) {
	cfg := workload.DefaultConfig(day)
	cfg.Users = 80
	cfg.LoggedOutSessions = 60
	evs, truth := workload.New(cfg).Generate()
	fs := hdfs.New(0)
	w := warehouse.NewWriter(fs, events.Category)
	w.RollRecords = 2000
	c := New(Config{Shards: 4})
	defer c.Close()
	b := c.NewBatcher()
	for i := range evs {
		if err := w.Append(&evs[i]); err != nil {
			t.Fatal(err)
		}
		b.Add(&evs[i])
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	b.Flush()

	rep, err := Reconcile(fs, day, c)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("paths diverged: %s\nmissing: %v\nextra: %v\nmismatched: %v",
			rep, rep.Missing, rep.Extra, rep.Mismatched)
	}
	if rep.Events != truth.Events {
		t.Errorf("counted %d events, truth %d", rep.Events, truth.Events)
	}
	if rep.BatchRows == 0 || rep.BatchRows != rep.StreamRows {
		t.Errorf("row counts: batch %d, stream %d", rep.BatchRows, rep.StreamRows)
	}
	if !strings.Contains(rep.String(), "OK") {
		t.Errorf("String() = %q", rep.String())
	}
}

// TestReconcileDiff exercises the divergence classification on crafted
// tables: a row the stream missed, a row it invented, and a count drift.
func TestReconcileDiff(t *testing.T) {
	k := func(name string) analytics.RollupKey {
		return analytics.RollupKey{Level: 0, Name: name, Country: "us", LoggedIn: true}
	}
	batch := map[analytics.RollupKey]int64{
		k("web:home:a:b:c:click"): 10,
		k("web:home:a:b:c:open"):  5,
		k("web:home:a:b:c:view"):  7,
	}
	stream := map[analytics.RollupKey]int64{
		k("web:home:a:b:c:click"): 10, // agrees
		k("web:home:a:b:c:open"):  4,  // drifted
		k("web:home:a:b:c:spur"):  1,  // invented
	}
	r := &Report{Day: day}
	r.diff(batch, stream)
	if r.OK() {
		t.Fatal("diff reported OK on diverged tables")
	}
	if r.MissingN != 1 || r.ExtraN != 1 || r.MismatchN != 1 {
		t.Fatalf("diff counts = %d/%d/%d, want 1/1/1", r.MissingN, r.ExtraN, r.MismatchN)
	}
	if r.Missing[0].Key.Name != "web:home:a:b:c:view" || r.Missing[0].Batch != 7 {
		t.Errorf("Missing[0] = %+v", r.Missing[0])
	}
	if r.Extra[0].Key.Name != "web:home:a:b:c:spur" || r.Extra[0].Stream != 1 {
		t.Errorf("Extra[0] = %+v", r.Extra[0])
	}
	if r.Mismatched[0].Batch != 5 || r.Mismatched[0].Stream != 4 {
		t.Errorf("Mismatched[0] = %+v", r.Mismatched[0])
	}
	if !strings.Contains(r.String(), "DIVERGED") {
		t.Errorf("String() = %q", r.String())
	}
}
