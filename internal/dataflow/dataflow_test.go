package dataflow

import (
	"errors"
	"fmt"
	"io"
	"testing"
	"time"

	"unilog/internal/events"
	"unilog/internal/hdfs"
	"unilog/internal/session"
	"unilog/internal/warehouse"
)

var day = time.Date(2012, 8, 21, 0, 0, 0, 0, time.UTC)

// populate writes a small, fully-deterministic day of client events: users
// 1..8, each with one session of 10 events (8 impressions, 2 clicks).
func populate(t *testing.T, fs *hdfs.FS) int {
	t.Helper()
	w := warehouse.NewWriter(fs, events.Category)
	n := 0
	for u := int64(1); u <= 8; u++ {
		for i := 0; i < 10; i++ {
			name := "web:home:::tweet:impression"
			if i%5 == 4 {
				name = "web:home:::tweet:click"
			}
			e := &events.ClientEvent{
				Name:      events.MustParseName(name),
				UserID:    u,
				SessionID: fmt.Sprintf("s%d", u),
				IP:        "10.0.0.1",
				Timestamp: day.Add(time.Duration(u)*time.Hour + time.Duration(i)*time.Minute).UnixMilli(),
			}
			if err := w.Append(e); err != nil {
				t.Fatal(err)
			}
			n++
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestSchemaIndex(t *testing.T) {
	s := Schema{"a", "b", "c"}
	if i, err := s.Index("b"); err != nil || i != 1 {
		t.Fatalf("Index = %d, %v", i, err)
	}
	if _, err := s.Index("nope"); !errors.Is(err, ErrNoColumn) {
		t.Fatalf("err = %v", err)
	}
}

func TestLoadClientEvents(t *testing.T) {
	fs := hdfs.New(0)
	n := populate(t, fs)
	j := NewJob("scan", fs)
	d, err := j.LoadClientEventsDay(day)
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.Count()
	if err != nil {
		t.Fatal(err)
	}
	if got != int64(n) {
		t.Fatalf("loaded %d tuples, want %d", got, n)
	}
	st := j.Stats()
	if st.MapTasks == 0 || st.BytesRead == 0 || st.RecordsRead != int64(n) {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFilterProjectCount(t *testing.T) {
	fs := hdfs.New(0)
	populate(t, fs)
	j := NewJob("ctr", fs)
	d, err := j.LoadClientEventsDay(day)
	if err != nil {
		t.Fatal(err)
	}
	nameIdx := d.Schema().MustIndex("name")
	clicks := d.Filter(func(tp Tuple) bool { return tp[nameIdx] == "web:home:::tweet:click" })
	n, err := clicks.Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 16 { // 2 clicks x 8 users
		t.Fatalf("clicks = %d", n)
	}
	p, err := clicks.Project("user_id", "name")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Schema()) != 2 || p.Schema()[0] != "user_id" {
		t.Fatalf("projected schema = %v", p.Schema())
	}
}

// TestSessionReconstructionGroupBy is the §3.2 claim: with unified logs "a
// simple group-by suffices to accurately reconstruct user sessions".
func TestSessionReconstructionGroupBy(t *testing.T) {
	fs := hdfs.New(0)
	populate(t, fs)
	j := NewJob("sessions", fs)
	d, err := j.LoadClientEventsDay(day)
	if err != nil {
		t.Fatal(err)
	}
	g, err := d.GroupBy("user_id", "session_id")
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if n, err := g.NumGroups(); err != nil || n != 8 {
		t.Fatalf("groups = %d, %v, want 8", n, err)
	}
	sizes, err := g.Aggregate(Count("events"))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := sizes.Tuples()
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range rows {
		if tp[2].(int64) != 10 {
			t.Fatalf("session size = %v", tp)
		}
	}
	// Shuffle was charged: the whole relation moved.
	if j.Stats().ShuffleRecords != 80 || j.Stats().ShuffleBytes == 0 {
		t.Fatalf("shuffle stats = %+v", j.Stats())
	}
}

func TestAggregates(t *testing.T) {
	j := NewJob("agg", hdfs.New(0))
	d := NewDataset(j, Schema{"k", "v"}, []Tuple{
		{"a", int64(1)}, {"a", int64(5)}, {"a", int64(3)},
		{"b", int64(10)}, {"b", int64(10)},
	})
	g, err := d.GroupBy("k")
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.Aggregate(Count("n"), Sum("v", "sum"), Min("v", "min"), Max("v", "max"), Avg("v", "avg"), CountDistinct("v", "dv"))
	if err != nil {
		t.Fatal(err)
	}
	tuples, err := res.Tuples()
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 2 {
		t.Fatalf("rows = %d", len(tuples))
	}
	rows := map[string]Tuple{}
	for _, tp := range tuples {
		rows[tp[0].(string)] = tp
	}
	a := rows["a"]
	if a[1].(int64) != 3 || a[2].(int64) != 9 || a[3].(int64) != 1 || a[4].(int64) != 5 || a[5].(float64) != 3.0 || a[6].(int64) != 3 {
		t.Fatalf("a = %v", a)
	}
	b := rows["b"]
	if b[1].(int64) != 2 || b[6].(int64) != 1 {
		t.Fatalf("b = %v", b)
	}
}

func TestGroupAllSum(t *testing.T) {
	// The paper's counting idiom: group all, then SUM.
	j := NewJob("sum", hdfs.New(0))
	d := NewDataset(j, Schema{"c"}, []Tuple{{int64(2)}, {int64(3)}, {int64(5)}})
	g, err := d.GroupAll()
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	res, err := g.Aggregate(Sum("c", "total"))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := res.Tuples()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].(int64) != 10 {
		t.Fatalf("res = %v", rows)
	}
}

func TestJoin(t *testing.T) {
	j := NewJob("join", hdfs.New(0))
	left := NewDataset(j, Schema{"user_id", "event"}, []Tuple{
		{int64(1), "click"}, {int64(2), "click"}, {int64(1), "view"},
	})
	users := NewDataset(j, Schema{"user_id", "country"}, []Tuple{
		{int64(1), "us"}, {int64(2), "uk"}, {int64(3), "jp"},
	})
	joined, err := left.Join(users, "user_id", "user_id")
	if err != nil {
		t.Fatal(err)
	}
	defer joined.Close()
	rows, err := joined.Tuples()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("joined rows = %d", len(rows))
	}
	wantSchema := Schema{"user_id", "event", "user_id_r", "country"}
	for i, c := range wantSchema {
		if joined.Schema()[i] != c {
			t.Fatalf("schema = %v", joined.Schema())
		}
	}
	ci := joined.Schema().MustIndex("country")
	for _, tp := range rows {
		u := tp[0].(int64)
		want := map[int64]string{1: "us", 2: "uk"}[u]
		if tp[ci] != want {
			t.Fatalf("row %v country = %v", tp, tp[ci])
		}
	}
}

func TestOrderByLimitDistinct(t *testing.T) {
	j := NewJob("misc", hdfs.New(0))
	d := NewDataset(j, Schema{"v"}, []Tuple{{int64(3)}, {int64(1)}, {int64(2)}, {int64(1)}})
	sorted, err := d.OrderBy("v", true)
	if err != nil {
		t.Fatal(err)
	}
	asc, err := sorted.Tuples()
	if err != nil {
		t.Fatal(err)
	}
	if asc[0][0].(int64) != 1 || asc[3][0].(int64) != 3 {
		t.Fatalf("sorted = %v", asc)
	}
	descDS, err := d.OrderBy("v", false)
	if err != nil {
		t.Fatal(err)
	}
	desc, err := descDS.Tuples()
	if err != nil {
		t.Fatal(err)
	}
	if desc[0][0].(int64) != 3 {
		t.Fatalf("desc = %v", desc)
	}
	if n, err := d.Distinct().Count(); err != nil || n != 3 {
		t.Fatalf("distinct = %d, %v", n, err)
	}
	if n, err := d.Limit(2).Count(); err != nil || n != 2 {
		t.Fatalf("limit = %d, %v", n, err)
	}
	if n, err := d.Limit(100).Count(); err != nil || n != 4 {
		t.Fatalf("limit = %d, %v", n, err)
	}
}

func TestFlatMap(t *testing.T) {
	j := NewJob("fm", hdfs.New(0))
	d := NewDataset(j, Schema{"n"}, []Tuple{{int64(2)}, {int64(3)}})
	out := d.FlatMap(Schema{"i"}, func(tp Tuple) []Tuple {
		n := tp[0].(int64)
		res := make([]Tuple, n)
		for i := range res {
			res[i] = Tuple{int64(i)}
		}
		return res
	})
	if n, err := out.Count(); err != nil || n != 5 {
		t.Fatalf("flatmap = %d rows, %v", n, err)
	}
}

// TestMapTaskReduction measures the §4.1 effect (the root
// BenchmarkMapTaskReduction reports it at day scale): loading session
// sequences spawns far fewer map tasks and reads far fewer bytes than the
// raw logs.
func TestMapTaskReduction(t *testing.T) {
	fs := hdfs.New(0)
	populate(t, fs)
	if _, _, _, err := session.BuildDay(fs, day, 0); err != nil {
		t.Fatal(err)
	}

	rawJob := NewJob("raw", fs)
	raw8, err := rawJob.LoadClientEventsDay(day)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw8.Count(); err != nil {
		t.Fatal(err)
	}
	seqJob := NewJob("seq", fs)
	seqs, err := seqJob.LoadSessionSequencesDay(day)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := seqs.Count(); err != nil || n != 8 {
		t.Fatalf("sessions = %d, %v", n, err)
	}
	raw, seq := rawJob.Stats(), seqJob.Stats()
	if seq.MapTasks >= raw.MapTasks {
		t.Fatalf("map tasks: seq %d >= raw %d", seq.MapTasks, raw.MapTasks)
	}
	if seq.BytesRead >= raw.BytesRead {
		t.Fatalf("bytes: seq %d >= raw %d", seq.BytesRead, raw.BytesRead)
	}
	if raw.ClusterSeconds() <= seq.ClusterSeconds() {
		t.Fatalf("cluster seconds: raw %.1f <= seq %.1f", raw.ClusterSeconds(), seq.ClusterSeconds())
	}
}

func TestRawRecordFormat(t *testing.T) {
	fs := hdfs.New(0)
	populate(t, fs)
	j := NewJob("raw-records", fs)
	dirs := HourDirs(fs, events.Category, day)
	d, err := j.LoadDirs(dirs, RawRecordFormat{})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := d.Tuples()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 80 {
		t.Fatalf("records = %d", len(recs))
	}
	if _, ok := recs[0][0].([]byte); !ok {
		t.Fatalf("record type = %T", recs[0][0])
	}
}

func TestLoadMissingDir(t *testing.T) {
	j := NewJob("missing", hdfs.New(0))
	if _, err := j.Load("/nope", ClientEventFormat{}); err == nil {
		t.Fatal("load of missing dir succeeded")
	}
	// LoadDirs skips missing dirs silently.
	d, err := j.LoadDirs([]string{"/nope"}, ClientEventFormat{})
	if err != nil {
		t.Fatalf("LoadDirs err = %v", err)
	}
	if n, err := d.Count(); err != nil || n != 0 {
		t.Fatalf("LoadDirs count = %d, %v", n, err)
	}
}

// TestScanErrorIsSticky: a split that fails to decode poisons the
// iterator — pulling again repeats the error instead of resuming past the
// damaged split into a silently incomplete relation.
func TestScanErrorIsSticky(t *testing.T) {
	fs := hdfs.New(0)
	populate(t, fs)
	// Plant a garbage (non-gzip) part file inside the day.
	dir := warehouse.HourDir(events.Category, day.Add(3*time.Hour))
	if err := fs.WriteFile(dir+"/part-garbage.gz", []byte("not gzip at all")); err != nil {
		t.Fatal(err)
	}
	j := NewJob("sticky", fs)
	d, err := j.LoadClientEventsDay(day)
	if err != nil {
		t.Fatal(err)
	}
	it, err := d.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var firstErr error
	for {
		_, err := it.Next()
		if err != nil {
			firstErr = err
			break
		}
	}
	if errors.Is(firstErr, io.EOF) {
		t.Fatal("scan of damaged day reached a clean EOF")
	}
	if _, err := it.Next(); err == nil || err.Error() != firstErr.Error() {
		t.Fatalf("error not sticky: first %v, then %v", firstErr, err)
	}
	// The terminal helpers surface the same failure.
	if _, err := d.Count(); err == nil {
		t.Fatal("Count over damaged day succeeded")
	}
}
