package columnar

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"unilog/internal/chunk"
	"unilog/internal/dataflow"
	"unilog/internal/events"
	"unilog/internal/hdfs"
	"unilog/internal/recordio"
	"unilog/internal/telemetry"
	"unilog/internal/thrift"
	"unilog/internal/warehouse"
)

// selectNames put string prefixes that are not component prefixes beside
// each other: "web:home" is a string prefix of "web:homepage:…", which a
// pattern on web:home must not match.
var selectNames = []string{
	"web:home:timeline:stream:tweet:impression",
	"web:home:mentions:stream:avatar:profile_click",
	"web:homepage:banner:promo:link:click",
	"web:homepage:banner:promo:link:impression",
	"web:search:results:stream:tweet:click",
	"iphone:home:timeline:stream:tweet:click",
	"android:discover:trends:list:trend:click",
}

// selectRecord encodes one client event; name nil leaves the name field
// out, which reads as the zero name.
func selectRecord(name *string, user int64, ts int64) []byte {
	enc := thrift.NewCompactEncoder()
	enc.WriteStructBegin()
	enc.WriteFieldBegin(thrift.BYTE, 1)
	enc.WriteI8(int8(user % 4))
	if name != nil {
		enc.WriteFieldBegin(thrift.STRING, 2)
		enc.WriteString(*name)
	}
	enc.WriteFieldBegin(thrift.I64, 3)
	enc.WriteI64(user)
	enc.WriteFieldBegin(thrift.STRING, 4)
	enc.WriteString(fmt.Sprintf("s%d", user))
	enc.WriteFieldBegin(thrift.STRING, 5)
	enc.WriteString(fmt.Sprintf("10.0.0.%d", user))
	enc.WriteFieldBegin(thrift.I64, 6)
	enc.WriteI64(ts)
	enc.WriteFieldStop()
	enc.WriteStructEnd()
	return append([]byte(nil), enc.Bytes()...)
}

// selectDay writes three hours of client events: users one after another,
// each with a run of one or two names, one event in twenty without a name.
// Hours 0 and 1 are sealed in chunks of 16 rows, so chunks differ in the
// names they hold; hour 2 is left as its row file.
func selectDay(tb testing.TB) (*hdfs.FS, []string) {
	fs := hdfs.New(0)
	rng := rand.New(rand.NewSource(49))
	for h := 0; h < 3; h++ {
		hour := testDay.Add(time.Duration(h) * time.Hour)
		var buf bytes.Buffer
		w := recordio.NewGzipWriter(&buf)
		ts := hour.UnixMilli()
		for user := int64(1); user <= 12; user++ {
			name := &selectNames[rng.Intn(len(selectNames))]
			for i := 0; i < 10; i++ {
				if rng.Intn(5) == 0 {
					name = &selectNames[rng.Intn(len(selectNames))]
				}
				rec := name
				if rng.Intn(20) == 0 {
					rec = nil
				}
				ts += int64(rng.Intn(40000))
				if err := w.Append(selectRecord(rec, user, ts)); err != nil {
					tb.Fatal(err)
				}
			}
		}
		if err := w.Close(); err != nil {
			tb.Fatal(err)
		}
		if err := fs.WriteFile(warehouse.HourDir(events.Category, hour)+"/part-00000.gz", buf.Bytes()); err != nil {
			tb.Fatal(err)
		}
		if h < 2 {
			if _, err := SealHourChunks(fs, events.Category, hour, 16); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return fs, warehouse.HourDirs(fs, events.Category, testDay)
}

// scanTuples runs a selective scan of dirs to its tuples.
func scanTuples(fs *hdfs.FS, dirs []string, sel dataflow.Selection) ([]dataflow.Tuple, error) {
	d, err := dataflow.NewJob("select", fs).LoadDirsSelective(dirs, dataflow.ClientEventFormat{}, sel)
	if err != nil {
		return nil, err
	}
	return d.Tuples()
}

// FuzzSelectMatchesFilter: a selective scan of a day of sealed hours and
// an unsealed one — zone maps, the name-range match over each chunk's
// sorted dictionary, a row file's entry-by-entry match — returns what the
// full scan returns filtered by Pattern.MatchesString and the window, in
// the same order. A pattern ParsePattern rejects fails the scan.
func FuzzSelectMatchesFilter(f *testing.F) {
	f.Add("web:home", int16(0), int16(0))
	f.Add("web:home:*", int16(30), int16(150))
	f.Add("*:click", int16(0), int16(100))
	f.Add("web:homepage:banner:promo:link:click", int16(0), int16(0))
	f.Add("web:home:nothing", int16(0), int16(0))
	f.Add(":::::", int16(0), int16(0))
	f.Add("*", int16(-5), int16(0))
	f.Add("iphone:*:timeline", int16(61), int16(62))
	fs, dirs := selectDay(f)
	full, err := scanTuples(fs, dirs, dataflow.Selection{})
	if err != nil || len(full) != 3*120 {
		f.Fatalf("full scan: %d rows, %v", len(full), err)
	}
	name, _ := dataflow.ClientEventSchema.Index("name")
	stamp, _ := dataflow.ClientEventSchema.Index("timestamp")
	f.Fuzz(func(t *testing.T, pattern string, from, to int16) {
		sel := dataflow.Selection{NamePattern: pattern}
		if from != 0 {
			sel.TimeMin = testDay.UnixMilli() + int64(from)*time.Minute.Milliseconds()
		}
		if to != 0 {
			sel.TimeMax = testDay.UnixMilli() + int64(to)*time.Minute.Milliseconds()
		}
		got, err := scanTuples(fs, dirs, sel)
		pat, perr := events.ParsePattern(pattern)
		if perr != nil || pattern == "" {
			if pattern != "" && err == nil {
				t.Fatalf("pattern %q: ParsePattern fails (%v), the scan does not", pattern, perr)
			}
			return
		}
		if err != nil {
			t.Fatalf("%+v: %v", sel, err)
		}
		var want []dataflow.Tuple
		for _, tu := range full {
			ts := tu[stamp].(int64)
			if pat.MatchesString(tu[name].(string)) && (sel.TimeMin == 0 || ts >= sel.TimeMin) && (sel.TimeMax == 0 || ts < sel.TimeMax) {
				want = append(want, tu)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v: %d rows, the filtered full scan %d", sel, len(got), len(want))
		}
	})
}

// TestDictPrunedChunkReadsItsNameSection: a chunk the zone map cannot
// prune but whose dictionary holds no name the pattern matches reads its
// name section, which the manifest locates, and the image's last byte,
// which checks the image's length against the manifest, and nothing else.
func TestDictPrunedChunkReadsItsNameSection(t *testing.T) {
	fs := hdfs.New(0)
	w := warehouse.NewWriter(fs, events.Category)
	for i, n := range []string{selectNames[0], selectNames[4], selectNames[6]} {
		e := &events.ClientEvent{Name: events.MustParseName(n), UserID: int64(i + 1), Timestamp: testDay.UnixMilli() + int64(i)}
		if err := w.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if n, err := SealHour(fs, events.Category, testDay); n != 1 || err != nil {
		t.Fatalf("seal: %d chunks, %v", n, err)
	}
	dirs := warehouse.HourDirs(fs, events.Category, testDay)
	img, err := fs.ReadFile(chunk.Path(dirs[0], 0))
	if err != nil {
		t.Fatal(err)
	}
	secs := imageSections(t, img)
	want := int64(len(secs[1+1]) + 1) // the name section and the image's last byte

	// "web:home:nothing" sorts inside the chunk's name range
	// [android:…, web:search:…], so only the dictionary rules it out.
	counters := []string{"columnar.chunks.pruned", "columnar.chunks.scanned", "columnar.chunks.dict_pruned"}
	d, err := dataflow.NewJob("dict", fs).LoadDirsSelective(dirs, dataflow.ClientEventFormat{}, dataflow.Selection{NamePattern: "web:home:nothing", Columns: []string{"user_id", "timestamp"}})
	if err != nil {
		t.Fatal(err)
	}
	before, fs0 := telemetry.Snapshot().Series, fs.Snapshot()
	rows, err := d.Tuples()
	after, fs1 := telemetry.Snapshot().Series, fs.Snapshot()
	if err != nil || len(rows) != 0 {
		t.Fatalf("%d rows, %v", len(rows), err)
	}
	for i, want := range []int64{0, 1, 1} {
		if got := after[counters[i]] - before[counters[i]]; got != want {
			t.Errorf("%s moved by %d, want %d", counters[i], got, want)
		}
	}
	// The marker was read when the scan was planned.
	if got := fs1.BytesRead - fs0.BytesRead; got != want {
		t.Fatalf("the dictionary-pruned chunk read %d bytes, want %d of its %d: the name section and the last byte", got, want, len(img))
	}
	rows, err = scanTuples(fs, dirs, dataflow.Selection{NamePattern: "web:home", Columns: []string{"user_id", "timestamp"}})
	if err != nil || !reflect.DeepEqual(rows, []dataflow.Tuple{{int64(1), testDay.UnixMilli()}}) {
		t.Fatalf("web:home: %v, %v", rows, err)
	}
}

// TestPrunedDayScanReadsOneBlockPerMeta pins the filesystem operations of a
// day scan whose every chunk the zone maps prune: one marker read per
// sealed hour, the manifest that plans it, and no chunk image opened or
// read — every chunk is pruned at planning, in columnar.chunks.pruned.
func TestPrunedDayScanReadsOneBlockPerMeta(t *testing.T) {
	fs, _ := buildDay(t, 6)
	sealTestDay(t, fs, 32)
	chunks := 0
	var markerBytes int64
	dirs := warehouse.HourDirs(fs, events.Category, testDay)
	for _, dir := range dirs {
		chunks += mustSealedChunks(t, fs, dir)
		marker, err := fs.ReadFile(chunk.SealedPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		markerBytes += int64(len(marker))
	}
	before, fs0 := telemetry.Snapshot().Series, fs.Snapshot()
	d, err := LoadDay(dataflow.NewJob("pruned", fs), testDay, dataflow.Selection{NamePattern: "zzz:*"})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := d.Tuples()
	after, fs1 := telemetry.Snapshot().Series, fs.Snapshot()
	if err != nil || len(rows) != 0 {
		t.Fatalf("%d rows, %v", len(rows), err)
	}
	if pruned := after["columnar.chunks.pruned"] - before["columnar.chunks.pruned"]; pruned != int64(chunks) {
		t.Fatalf("%d of %d chunks pruned", pruned, chunks)
	}
	if scanned := after["columnar.chunks.scanned"] - before["columnar.chunks.scanned"]; scanned != 0 {
		t.Fatalf("%d chunks scanned", scanned)
	}
	if got, want := after["chunk.manifest.reads"]-before["chunk.manifest.reads"], int64(len(dirs)); got != want {
		t.Fatalf("%d manifests read for %d sealed hours", got, want)
	}
	if got, want := fs1.OpenOps-fs0.OpenOps, int64(len(dirs)); got != want {
		t.Fatalf("%d files opened, want %d: the markers and no image", got, want)
	}
	if got, want := fs1.BlocksRead-fs0.BlocksRead, int64(len(dirs)); got != want {
		t.Fatalf("%d blocks read, want %d: one per marker", got, want)
	}
	if got := fs1.BytesRead - fs0.BytesRead; got != markerBytes {
		t.Fatalf("%d bytes read, the markers hold %d", got, markerBytes)
	}
}

// TestPrunedChunksCountWhenTheScanRuns: columnar.chunks.pruned counts the
// chunks a selective scan's plan dropped each time the scan runs, beside
// columnar.chunks.scanned: planning counts none, two runs count them twice,
// and a plan never run counts none.
func TestPrunedChunksCountWhenTheScanRuns(t *testing.T) {
	fs, _ := buildDay(t, 6)
	sealTestDay(t, fs, 32)
	chunks := 0
	for _, dir := range warehouse.HourDirs(fs, events.Category, testDay) {
		chunks += mustSealedChunks(t, fs, dir)
	}
	pruned := func() int64 { return telemetry.Snapshot().Series["columnar.chunks.pruned"] }
	sel := dataflow.Selection{NamePattern: "zzz:*"}
	start := pruned()
	d, err := LoadDay(dataflow.NewJob("pruned twice", fs), testDay, sel)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDay(dataflow.NewJob("never run", fs), testDay, sel); err != nil {
		t.Fatal(err)
	}
	if got := pruned() - start; got != 0 {
		t.Fatalf("planning counted %d pruned chunks", got)
	}
	for run := 1; run <= 2; run++ {
		if rows, err := d.Tuples(); err != nil || len(rows) != 0 {
			t.Fatalf("run %d: %d rows, %v", run, len(rows), err)
		}
		if got, want := pruned()-start, int64(run*chunks); got != want {
			t.Fatalf("after run %d: %d pruned chunks counted, want %d", run, got, want)
		}
	}
}
