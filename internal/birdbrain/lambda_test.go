package birdbrain

import (
	"testing"
	"time"

	"unilog/internal/events"
	"unilog/internal/geo"
	"unilog/internal/hdfs"
	"unilog/internal/realtime"
	"unilog/internal/warehouse"
)

var (
	sealedDay = time.Date(2012, 8, 20, 0, 0, 0, 0, time.UTC)
	liveDay   = time.Date(2012, 8, 21, 0, 0, 0, 0, time.UTC)
)

func lambdaEvent(name string, day time.Time, hour int) *events.ClientEvent {
	return &events.ClientEvent{
		Initiator: events.InitiatorClientUser,
		Name:      events.MustParseName(name),
		UserID:    42,
		SessionID: "sess",
		IP:        geo.IPFor("us", 42),
		Timestamp: day.Add(time.Duration(hour) * time.Hour).UnixMilli(),
	}
}

func TestLambdaServingSplit(t *testing.T) {
	const imp = "web:home:timeline:stream:tweet:impression"
	const open = "iphone:home:timeline:stream:page:open"

	// Sealed day in the warehouse: 4 web impressions, 2 iphone opens.
	fs := hdfs.New(0)
	w := warehouse.NewWriter(fs, events.Category)
	for i := 0; i < 4; i++ {
		if err := w.Append(lambdaEvent(imp, sealedDay, i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if err := w.Append(lambdaEvent(open, sealedDay, 4+i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Live day in the realtime counters: 3 web impressions, 1 android open.
	rt := realtime.New(realtime.Config{Shards: 2})
	defer rt.Close()
	for i := 0; i < 3; i++ {
		rt.Ingest(lambdaEvent(imp, liveDay, i))
	}
	rt.Ingest(lambdaEvent("android:home:timeline:stream:page:open", liveDay, 3))

	now := liveDay.Add(5 * time.Hour)
	l := NewLambda(fs, rt, func() time.Time { return now })

	// "Today so far" is served from memory.
	n, src, err := l.EventTotal(liveDay, 0, imp)
	if err != nil || n != 3 || src != SourceRealtime {
		t.Fatalf("EventTotal(live) = %d/%s/%v, want 3/realtime", n, src, err)
	}
	// Sealed days are served from the warehouse rollups.
	n, src, err = l.EventTotal(sealedDay, 0, imp)
	if err != nil || n != 4 || src != SourceWarehouse {
		t.Fatalf("EventTotal(sealed) = %d/%s/%v, want 4/warehouse", n, src, err)
	}
	// Rolled-up names work on both paths.
	n, _, err = l.EventTotal(liveDay, 4, "web:*:*:*:*:impression")
	if err != nil || n != 3 {
		t.Fatalf("EventTotal(live, level 4) = %d/%v, want 3", n, err)
	}
	n, _, err = l.EventTotal(sealedDay, 4, "iphone:*:*:*:*:open")
	if err != nil || n != 2 {
		t.Fatalf("EventTotal(sealed, level 4) = %d/%v, want 2", n, err)
	}

	// Each client's events stay apart on both paths (web live and iphone
	// sealed are above).
	for _, c := range []struct {
		day  time.Time
		name string
		want int64
		src  Source
	}{
		{liveDay, "android:*:*:*:*:open", 1, SourceRealtime},
		{liveDay, "iphone:*:*:*:*:open", 0, SourceRealtime},
		{sealedDay, "web:*:*:*:*:impression", 4, SourceWarehouse},
		{sealedDay, "android:*:*:*:*:open", 0, SourceWarehouse},
	} {
		n, src, err := l.EventTotal(c.day, 4, c.name)
		if err != nil || n != c.want || src != c.src {
			t.Errorf("EventTotal(%s, level 4, %s) = %d/%s/%v, want %d/%s", c.day.Format("01-02"), c.name, n, src, err, c.want, c.src)
		}
	}

	// A day with no data at all answers zero from the warehouse path.
	n, src, err = l.EventTotal(sealedDay.AddDate(0, 0, -5), 0, imp)
	if err != nil || n != 0 || src != SourceWarehouse {
		t.Fatalf("EventTotal(empty day) = %d/%s/%v, want 0/warehouse", n, src, err)
	}

	// A sealed day is read as the warehouse holds it now: an hour the log
	// mover backfills after the first query counts in the next answer.
	if err := func() error {
		w2 := warehouse.NewWriter(fs, events.Category)
		if err := w2.Append(lambdaEvent(imp, sealedDay, 10)); err != nil {
			return err
		}
		return w2.Close()
	}(); err != nil {
		t.Fatal(err)
	}
	n, _, err = l.EventTotal(sealedDay, 0, imp)
	if err != nil || n != 5 {
		t.Fatalf("EventTotal(sealed, backfilled) = %d/%v, want 5", n, err)
	}
}

// TestLambdaMidnightHandover checks the property Reconcile guarantees:
// when the live day seals, the warehouse path reports the same totals the
// realtime path was serving, so dashboards do not jump at the handover.
func TestLambdaMidnightHandover(t *testing.T) {
	const imp = "web:home:timeline:stream:tweet:impression"
	fs := hdfs.New(0)
	rt := realtime.New(realtime.Config{Shards: 2})
	defer rt.Close()

	// The same five events flow to both the counters (via the tap, in
	// production) and the warehouse (via the log mover).
	w := warehouse.NewWriter(fs, events.Category)
	for i := 0; i < 5; i++ {
		e := lambdaEvent(imp, liveDay, i%3)
		rt.Ingest(e)
		if err := w.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	now := liveDay.Add(6 * time.Hour)
	l := NewLambda(fs, rt, func() time.Time { return now })
	before, src, err := l.EventTotal(liveDay, 0, imp)
	if err != nil || src != SourceRealtime {
		t.Fatalf("before handover: %s/%v", src, err)
	}
	now = liveDay.AddDate(0, 0, 1).Add(time.Hour) // midnight passes
	after, src, err := l.EventTotal(liveDay, 0, imp)
	if err != nil || src != SourceWarehouse {
		t.Fatalf("after handover: %s/%v", src, err)
	}
	if before != 5 || after != 5 {
		t.Errorf("handover jumped: realtime %d, warehouse %d, want 5 both", before, after)
	}
}

// TestLambdaServesRecoveredEngine proves the serving API is oblivious to
// durability: a Lambda built over a counter that crashed and was recovered
// by realtime.Open answers "today so far" exactly as one over the
// never-crashed counter would.
func TestLambdaServesRecoveredEngine(t *testing.T) {
	const imp = "web:home:timeline:stream:tweet:impression"
	dir := t.TempDir()
	cfg := realtime.Config{Shards: 2, FsyncEvery: 1, SnapshotEvery: time.Hour}
	rt, err := realtime.Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		rt.Ingest(lambdaEvent(imp, liveDay, i%5))
	}
	rt.Sync()
	if err := rt.Snapshot(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ { // WAL tail only
		rt.Ingest(lambdaEvent(imp, liveDay, 6))
	}
	rt.Sync()
	rt.Crash()

	recovered, err := realtime.Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	l := NewLambda(hdfs.New(0), recovered, func() time.Time { return liveDay.Add(8 * time.Hour) })
	n, src, err := l.EventTotal(liveDay, 0, imp)
	if err != nil || src != SourceRealtime || n != 11 {
		t.Fatalf("EventTotal from recovered engine = %d/%s/%v, want 11/realtime", n, src, err)
	}
	n, src, err = l.EventTotal(liveDay, 4, "web:*:*:*:*:impression")
	if err != nil || src != SourceRealtime || n != 11 {
		t.Fatalf("EventTotal(level 4) from recovered engine = %d/%s/%v, want 11/realtime", n, src, err)
	}
}
