package dataflow

import (
	"errors"
	"fmt"
	"io"
	"strings"
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
	groups := 0
	err = g.EachGroup(func(key Tuple, group []Tuple) error {
		groups++
		if len(group) != 10 {
			t.Fatalf("session %v size = %d, want 10", key, len(group))
		}
		return nil
	})
	if err != nil || groups != 8 {
		t.Fatalf("groups = %d, %v, want 8", groups, err)
	}
	// Shuffle was charged: the whole relation moved.
	if j.Stats().ShuffleRecords != 80 || j.Stats().ShuffleBytes == 0 {
		t.Fatalf("shuffle stats = %+v", j.Stats())
	}
}

// TestAggregates: SUM adds int64, int32 and int values exactly, and any
// other value fails the reduce with an error naming the column and the Go
// type. The parent's Aggregate(Sum("v", "sum")) returned [[k 0]] and a nil
// error for the float64 column {0.5, 0.5} — and the same for the string
// column — by truncating every value through toI.
func TestAggregates(t *testing.T) {
	sum := func(vals ...Value) ([]Tuple, error) {
		j := NewJob("agg", hdfs.New(0))
		tuples := make([]Tuple, len(vals))
		for i, v := range vals {
			tuples[i] = Tuple{"k", v}
		}
		g, err := NewDataset(j, Schema{"k", "v"}, tuples).GroupBy("k")
		if err != nil {
			t.Fatal(err)
		}
		defer g.Close()
		res, err := g.Sum("v", "sum")
		if err != nil {
			return nil, err
		}
		if want := (Schema{"k", "sum"}); fmt.Sprint(res.Schema()) != fmt.Sprint(want) {
			t.Fatalf("schema = %v, want %v", res.Schema(), want)
		}
		return res.Tuples()
	}
	rows, err := sum(int32(1<<30), int(1<<40), int64(-3), int32(-1), int(7))
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(1<<30 + 1<<40 - 3 - 1 + 7); len(rows) != 1 || rows[0][1] != want {
		t.Fatalf("mixed-int sum = %v, want %d", rows, want)
	}
	for _, bad := range []struct {
		vals []Value
		typ  string
	}{
		{[]Value{0.5, 0.5}, "float64"},
		{[]Value{int64(1), "x"}, "string"},
	} {
		_, err := sum(bad.vals...)
		if err == nil || !strings.Contains(err.Error(), "SUM(v)") || !strings.Contains(err.Error(), bad.typ) {
			t.Fatalf("sum of %v: err = %v, want one naming column v and type %s", bad.vals, err, bad.typ)
		}
	}
}

func TestGroupAllSum(t *testing.T) {
	// The paper's counting idiom: group all, then SUM — and GROUP ALL over
	// an empty input still has its one group, which sums to 0.
	for _, c := range []struct {
		in   []Tuple
		want int64
	}{
		{[]Tuple{{int64(2)}, {int64(3)}, {int64(5)}}, 10},
		{nil, 0},
	} {
		j := NewJob("sum", hdfs.New(0))
		g, err := NewDataset(j, Schema{"c"}, c.in).GroupAll()
		if err != nil {
			t.Fatal(err)
		}
		res, err := g.Sum("c", "total")
		if err != nil {
			t.Fatal(err)
		}
		rows, err := res.Tuples()
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 1 || rows[0][0] != c.want {
			t.Fatalf("sum of %v = %v, want one row holding %d", c.in, rows, c.want)
		}
		groups := 0
		err = g.EachGroup(func(key Tuple, group []Tuple) error {
			groups++
			if len(key) != 0 || len(group) != len(c.in) {
				t.Fatalf("group all: key %v, %d tuples, want no key and %d", key, len(group), len(c.in))
			}
			return nil
		})
		if err != nil || groups != 1 {
			t.Fatalf("group all visited %d groups, %v, want 1", groups, err)
		}
		g.Close()
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
}

// TestRawRecordFormat: every framed record reaches Decode as raw bytes,
// and a nil tuple drops the record.
func TestRawRecordFormat(t *testing.T) {
	fs := hdfs.New(0)
	populate(t, fs)
	j := NewJob("raw-records", fs)
	j.Parallelism = 1 // Decode counts on the test goroutine
	dirs := warehouse.HourDirs(fs, events.Category, day)
	var decoded int
	d, err := j.LoadDirsSelective(dirs, RawRecordFormat{
		Columns: Schema{"user_id"},
		Decode: func(rec []byte) Tuple {
			decoded++
			var e events.ClientEvent
			if err := e.Unmarshal(rec); err != nil {
				t.Errorf("raw record does not decode: %v", err)
				return nil
			}
			if e.UserID%2 == 0 {
				return nil
			}
			return Tuple{e.UserID}
		},
	}, Selection{})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := d.Tuples()
	if err != nil {
		t.Fatal(err)
	}
	if decoded != 80 || len(recs) != 40 || len(d.Schema()) != 1 {
		t.Fatalf("decoded %d records, kept %d with schema %v; want 80, 40, [user_id]", decoded, len(recs), d.Schema())
	}
}

func TestLoadMissingDir(t *testing.T) {
	j := NewJob("missing", hdfs.New(0))
	if _, err := j.Load("/nope", ClientEventFormat{}); err == nil {
		t.Fatal("load of missing dir succeeded")
	}
	// LoadDirsSelective skips missing dirs silently.
	d, err := j.LoadDirsSelective([]string{"/nope"}, ClientEventFormat{}, Selection{})
	if err != nil {
		t.Fatalf("LoadDirsSelective err = %v", err)
	}
	if n, err := d.Count(); err != nil || n != 0 {
		t.Fatalf("LoadDirsSelective count = %d, %v", n, err)
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
	it, err := d.open()
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
