package warehouse

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"unilog/internal/chunk"
	"unilog/internal/events"
	"unilog/internal/hdfs"
	"unilog/internal/recordio"
	"unilog/internal/telemetry"
)

var t14 = time.Date(2012, 8, 21, 14, 30, 0, 0, time.UTC)

func TestPathHelpers(t *testing.T) {
	if got := HourPath(t14); got != "2012/08/21/14" {
		t.Fatalf("HourPath = %q", got)
	}
	if got := DatePath(t14); got != "2012/08/21" {
		t.Fatalf("DatePath = %q", got)
	}
	if got := HourDir("client_events", t14); got != "/logs/client_events/2012/08/21/14" {
		t.Fatalf("HourDir = %q", got)
	}
	if got := StagingHourDir("ce", t14); got != "/staging/ce/2012/08/21/14" {
		t.Fatalf("StagingHourDir = %q", got)
	}
	if got := SessionDayDir(t14); got != "/session_sequences/2012/08/21" {
		t.Fatalf("SessionDayDir = %q", got)
	}
	if got := DictionaryDir(t14); got != "/event_dictionary/2012/08/21" {
		t.Fatalf("DictionaryDir = %q", got)
	}
}

// TestPathsMatchFmt: HourPath and DatePath write what fmt's zero-padded
// forms write, at the edges of every field: hours 0 and 23, one-digit
// months and days, years below 1000 and past 9999, and a negative year.
func TestPathsMatchFmt(t *testing.T) {
	for _, tm := range []time.Time{
		time.Date(2012, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2012, 12, 31, 23, 59, 59, 0, time.UTC),
		time.Date(2012, 9, 9, 9, 0, 0, 0, time.UTC),
		time.Date(2012, 10, 10, 10, 0, 0, 0, time.UTC),
		time.Date(999, 3, 4, 5, 0, 0, 0, time.UTC),
		time.Date(7, 3, 4, 5, 0, 0, 0, time.UTC),
		time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(-5, 6, 7, 8, 0, 0, 0, time.UTC),
		time.Date(10000, 2, 29, 12, 0, 0, 0, time.UTC),
	} {
		hour := fmt.Sprintf("%04d/%02d/%02d/%02d", tm.Year(), int(tm.Month()), tm.Day(), tm.Hour())
		date := fmt.Sprintf("%04d/%02d/%02d", tm.Year(), int(tm.Month()), tm.Day())
		if got := HourPath(tm); got != hour {
			t.Errorf("HourPath(%v) = %q, fmt %q", tm, got, hour)
		}
		if got := DatePath(tm); got != date {
			t.Errorf("DatePath(%v) = %q, fmt %q", tm, got, date)
		}
	}
}

func TestHourPathUsesUTC(t *testing.T) {
	est := time.FixedZone("EST", -5*3600)
	local := time.Date(2012, 8, 21, 22, 0, 0, 0, est) // 03:00 UTC next day
	if got := HourPath(local); got != "2012/08/22/03" {
		t.Fatalf("HourPath(EST 22:00) = %q", got)
	}
}

func TestIsAuxiliary(t *testing.T) {
	cases := map[string]bool{
		"/logs/ce/2012/08/21/14/part-00000.gz":     false,
		"/logs/ce/2012/08/21/14/part-00000.gz.idx": false,
		"/staging/ce/2012/08/21/14/_SEALED":        true,
		"/logs/ce/_tmp":                            true,
		"part-1.gz":                                false,
		"_marker":                                  true,
	}
	for p, want := range cases {
		if got := chunk.IsAuxiliary(p); got != want {
			t.Errorf("IsAuxiliary(%q) = %v, want %v", p, got, want)
		}
	}
}

func mkEvent(user int64, at time.Time) *events.ClientEvent {
	return &events.ClientEvent{
		Name:      events.MustParseName("web:home:::tweet:impression"),
		UserID:    user,
		SessionID: "s",
		IP:        "10.0.0.1",
		Timestamp: at.UnixMilli(),
	}
}

func TestWriterBucketsByHour(t *testing.T) {
	fs := hdfs.New(0)
	w := NewWriter(fs, "ce")
	day := time.Date(2012, 8, 21, 0, 0, 0, 0, time.UTC)
	for hr := 0; hr < 3; hr++ {
		for i := 0; i < 5; i++ {
			e := mkEvent(int64(i), day.Add(time.Duration(hr)*time.Hour+time.Duration(i)*time.Minute))
			if err := w.Append(e); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Written() != 15 {
		t.Fatalf("Written = %d", w.Written())
	}
	for hr := 0; hr < 3; hr++ {
		n := 0
		err := ScanHourRecords(fs, HourDir("ce", day.Add(time.Duration(hr)*time.Hour)), func(string, []byte) error {
			n++
			return nil
		})
		if err != nil || n != 5 {
			t.Fatalf("hour %d: %d events, %v", hr, n, err)
		}
	}
}

func TestWriterRollsAtRecordLimit(t *testing.T) {
	fs := hdfs.New(0)
	w := NewWriter(fs, "ce")
	w.RollRecords = 10
	day := time.Date(2012, 8, 21, 5, 0, 0, 0, time.UTC)
	for i := 0; i < 35; i++ {
		if err := w.Append(mkEvent(int64(i), day.Add(time.Duration(i)*time.Second))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	infos, err := fs.Walk(HourDir("ce", day))
	if err != nil || len(infos) != 4 {
		t.Fatalf("part files = %d, %v", len(infos), err)
	}
}

func TestScanDaySkipsMissingHours(t *testing.T) {
	fs := hdfs.New(0)
	w := NewWriter(fs, "ce")
	day := time.Date(2012, 8, 21, 0, 0, 0, 0, time.UTC)
	// Only hours 3 and 17 have data.
	for _, hr := range []int{3, 17} {
		if err := w.Append(mkEvent(1, day.Add(time.Duration(hr)*time.Hour))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := ScanDay(fs, "ce", day, func(*events.ClientEvent) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("scanned %d events", n)
	}
}

// TestStrayFileIsReadAsData: only a leading underscore hides a file from
// scanners. Anything else in an hour directory is data, so a file that is
// not a gzipped record stream fails the scan with the typed error and its
// path instead of being skipped.
func TestStrayFileIsReadAsData(t *testing.T) {
	fs := hdfs.New(0)
	day := time.Date(2012, 8, 21, 0, 0, 0, 0, time.UTC)
	w := NewWriter(fs, "ce")
	if err := w.Append(mkEvent(1, day.Add(time.Hour))); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	stray := HourDir("ce", day.Add(time.Hour)) + "/part-00000.gz.idx"
	if err := fs.WriteFile(stray, []byte("not a record file")); err != nil {
		t.Fatal(err)
	}
	err := ScanDay(fs, "ce", day, func(*events.ClientEvent) error { return nil })
	if !errors.Is(err, recordio.ErrCorrupt) || !strings.Contains(err.Error(), stray) {
		t.Fatalf("err = %v, want recordio.ErrCorrupt naming %s", err, stray)
	}
}

// TestScanHourRecords: the raw loop hands over every record of every row
// file with the path it came from, in path order, skips auxiliaries, books
// its three series once per file, and returns fn's error as it is.
func TestScanHourRecords(t *testing.T) {
	fs := hdfs.New(0)
	hour := t14.Truncate(time.Hour)
	w := NewWriter(fs, "ce")
	w.RollRecords = 4
	var want [][]byte
	for i := 0; i < 10; i++ {
		e := mkEvent(int64(i+1), hour.Add(time.Duration(i)*time.Minute))
		if err := w.Append(e); err != nil {
			t.Fatal(err)
		}
		want = append(want, e.Marshal())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	dir := HourDir("ce", hour)
	if err := fs.WriteFile(dir+"/_col-00000.col", []byte("not a record file")); err != nil {
		t.Fatal(err)
	}
	size, err := DataSize(fs, dir)
	if err != nil {
		t.Fatal(err)
	}

	before := telemetry.Snapshot().Series
	var got [][]byte
	var paths []string
	err = ScanHourRecords(fs, dir, func(path string, rec []byte) error {
		got = append(got, append([]byte(nil), rec...))
		if len(paths) == 0 || paths[len(paths)-1] != path {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	after := telemetry.Snapshot().Series
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scanned %d records, wrote %d, or they differ", len(got), len(want))
	}
	if wantPaths := []string{dir + "/part-00000.gz", dir + "/part-00001.gz", dir + "/part-00002.gz"}; !reflect.DeepEqual(paths, wantPaths) {
		t.Fatalf("paths = %v, want %v", paths, wantPaths)
	}
	for series, want := range map[string]int64{"warehouse.scan.files": 3, "warehouse.scan.records": 10, "warehouse.scan.bytes": size} {
		if got := after[series] - before[series]; got != want {
			t.Errorf("%s moved by %d, want %d", series, got, want)
		}
	}

	stop := errors.New("stop")
	n := 0
	err = ScanHourRecords(fs, dir, func(string, []byte) error {
		if n++; n == 6 {
			return stop
		}
		return nil
	})
	if err != stop || n != 6 {
		t.Fatalf("err = %v after %d records, want fn's own error after 6", err, n)
	}
}

func TestDataSizeExcludesAuxiliary(t *testing.T) {
	fs := hdfs.New(0)
	if err := fs.WriteFile("/logs/ce/part-0.gz", make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/logs/ce/_col-00000.col", make([]byte, 999)); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/logs/ce/_SEALED", make([]byte, 5)); err != nil {
		t.Fatal(err)
	}
	sz, err := DataSize(fs, "/logs/ce")
	if err != nil || sz != 100 {
		t.Fatalf("DataSize = %d, %v", sz, err)
	}
}

// TestWriterScannerRoundTripProperty: any batch of events written through
// the Writer is scanned back intact.
func TestWriterScannerRoundTripProperty(t *testing.T) {
	day := time.Date(2012, 8, 21, 0, 0, 0, 0, time.UTC)
	run := 0
	f := func(users []uint8, minuteOffsets []uint16) bool {
		run++
		if len(users) == 0 {
			return true
		}
		fs := hdfs.New(0)
		w := NewWriter(fs, fmt.Sprintf("cat%d", run))
		n := 0
		prev := day
		for i, u := range users {
			at := prev
			if i < len(minuteOffsets) {
				at = at.Add(time.Duration(minuteOffsets[i]%30) * time.Minute)
			}
			if at.After(day.Add(23 * time.Hour)) {
				break
			}
			prev = at
			if err := w.Append(mkEvent(int64(u), at)); err != nil {
				return false
			}
			n++
		}
		if err := w.Close(); err != nil {
			return false
		}
		got := 0
		if err := ScanDay(fs, fmt.Sprintf("cat%d", run), day, func(*events.ClientEvent) error {
			got++
			return nil
		}); err != nil {
			return false
		}
		return got == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestScanDayReadsEveryLayout: the same events stored three ways — an hour
// of column chunks only, as the log mover publishes a sealed hour; an hour
// of row files only; and a sealed hour whose row files were left beside
// its chunks — scan back as the same multiset, each hour once.
func TestScanDayReadsEveryLayout(t *testing.T) {
	day := time.Date(2012, 8, 21, 0, 0, 0, 0, time.UTC)
	base := []*events.ClientEvent{
		mkEvent(1, day),
		{Initiator: events.InitiatorClientUser, Name: events.MustParseName("iphone:profile:::follow_button:click"),
			UserID: 42, SessionID: "s42", IP: "192.168.0.9", Timestamp: day.Add(time.Minute).UnixMilli(),
			Details: map[string]string{"lang": "en", "tweet_id": "1234567"}},
		{Name: events.MustParseName("web:search:::results:impression"), SessionID: "anon", Timestamp: day.Add(2 * time.Minute).UnixMilli()},
	}
	for i := 0; i < 20; i++ {
		base = append(base, mkEvent(int64(i%4), day.Add(time.Duration(3+i)*time.Minute)))
	}
	// shifted returns the events moved into hour hr of the day.
	shifted := func(hr int) []*events.ClientEvent {
		out := make([]*events.ClientEvent, len(base))
		for i, e := range base {
			c := *e
			c.Timestamp += int64(hr) * time.Hour.Milliseconds()
			out[i] = &c
		}
		return out
	}
	fs := hdfs.New(0)
	// writeRows writes hour hr's events as row files.
	writeRows := func(hr int) {
		w := NewWriter(fs, "ce")
		w.RollRecords = 10
		for _, e := range shifted(hr) {
			if err := w.Append(e); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// writeChunks seals hour hr's events into chunks of 7 rows and marks it.
	writeChunks := func(hr int) {
		dir := HourDir("ce", day.Add(time.Duration(hr)*time.Hour))
		var b chunk.Builder
		var chunks []chunk.Meta
		for i, e := range shifted(hr) {
			if err := b.AddRecord(e.Marshal()); err != nil {
				t.Fatal(err)
			}
			if b.Rows() == 7 || i == len(base)-1 {
				img, m, err := b.AppendImage(nil)
				if err != nil {
					t.Fatal(err)
				}
				if err := fs.WriteFile(chunk.Path(dir, len(chunks)), img); err != nil {
					t.Fatal(err)
				}
				chunks = append(chunks, m)
			}
		}
		if err := chunk.WriteSealed(fs, dir, chunks); err != nil {
			t.Fatal(err)
		}
	}
	writeChunks(2) // chunks only
	writeRows(5)   // rows only
	writeRows(9)   // sealed, rows left beside the chunks
	writeChunks(9)

	got := map[int]map[string]int{}
	err := ScanDay(fs, "ce", day, func(e *events.ClientEvent) error {
		hr := int((e.Timestamp - day.UnixMilli()) / time.Hour.Milliseconds())
		c := *e
		c.Timestamp -= int64(hr) * time.Hour.Milliseconds()
		if got[hr] == nil {
			got[hr] = map[string]int{}
		}
		got[hr][fmt.Sprintf("%+v", c)]++ // fmt prints a map's keys sorted
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{}
	for _, e := range base {
		want[fmt.Sprintf("%+v", *e)]++
	}
	if len(got) != 3 {
		t.Fatalf("ScanDay read hours %v, want 2, 5 and 9", got)
	}
	for _, hr := range []int{2, 5, 9} {
		if !reflect.DeepEqual(got[hr], want) {
			t.Errorf("hour %d read %v, want the events written, each once: %v", hr, got[hr], want)
		}
	}
}
