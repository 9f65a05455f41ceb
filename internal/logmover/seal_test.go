package logmover

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"unilog/internal/chunk"
	"unilog/internal/columnar"
	"unilog/internal/events"
	"unilog/internal/hdfs"
	"unilog/internal/recordio"
	"unilog/internal/scribe"
	"unilog/internal/session"
	"unilog/internal/telemetry"
	"unilog/internal/thrift"
	"unilog/internal/warehouse"
	"unilog/internal/workload"
	"unilog/internal/zk"
)

// stageDeliveredHour delivers a generated day, every timestamp folded into
// hour t0 with its order kept, through two datacenters of two aggregators
// and three daemons each, and seals the hour in both. It returns the
// mover's sources and the messages logged.
func stageDeliveredHour(t *testing.T, users int) ([]Source, [][]byte) {
	t.Helper()
	cfg := workload.DefaultConfig(t0)
	cfg.Users = users
	evs, _ := workload.New(cfg).Generate()
	clock := zk.NewManualClock(t0) // never advanced: every entry lands in hour t0
	var dcs []*scribe.Datacenter
	var sources []Source
	for r := 0; r < 2; r++ {
		name := fmt.Sprintf("dc%d", r+1)
		dc, err := scribe.NewDatacenter(name, hdfs.New(0), clock, 2, 3, int64(7+r))
		if err != nil {
			t.Fatal(err)
		}
		dcs = append(dcs, dc)
		sources = append(sources, Source{Datacenter: name, FS: dc.Staging})
	}
	day := cfg.Day.UnixMilli()
	msgs := make([][]byte, len(evs))
	for i := range evs {
		evs[i].Timestamp = t0.UnixMilli() + (evs[i].Timestamp-day)/24
		msgs[i] = evs[i].Marshal()
		dcs[i%2].Daemons[(i/2)%3].Log(events.Category, msgs[i])
	}
	for _, dc := range dcs {
		if err := dc.SealHour([]string{events.Category}, t0); err != nil {
			t.Fatal(err)
		}
	}
	return sources, msgs
}

// colFiles returns the _col- files under dir by name, with their bytes.
func colFiles(t *testing.T, fs *hdfs.FS, dir string) map[string][]byte {
	t.Helper()
	infos, err := fs.Walk(dir)
	if errors.Is(err, hdfs.ErrNotFound) {
		return nil
	}
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte)
	for _, fi := range infos {
		if !strings.Contains(fi.Path, "/_col-") {
			continue
		}
		data, err := fs.ReadFile(fi.Path)
		if err != nil {
			t.Fatal(err)
		}
		out[strings.TrimPrefix(fi.Path, dir)] = data
	}
	return out
}

// stagedRecords returns the records the mover will publish for hour, in
// the order it reads them: source by source, file by file in path order,
// row by row of each staged chunk image rendered as its record.
func stagedRecords(t *testing.T, sources []Source, hour time.Time) [][]byte {
	t.Helper()
	var recs [][]byte
	for _, src := range sources {
		for _, path := range readAllPaths(t, src.FS, warehouse.StagingHourDir(events.Category, hour)) {
			data, err := src.FS.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			b, err := chunk.ReadImage(path, data)
			if err != nil {
				t.Fatal(err)
			}
			for row := 0; row < b.Rows; row++ {
				e, err := b.Event(row)
				if err != nil {
					t.Fatal(err)
				}
				recs = append(recs, e.Marshal())
			}
			b.Release()
		}
	}
	return recs
}

// requireSealedLikeSealHour fails unless the published hour holds column
// files and no row file, and its chunk files are, name for name and byte
// for byte, what columnar.SealHour writes over a warehouse.Writer copy of
// recs, the records the mover read. It returns the number of chunks.
func requireSealedLikeSealHour(t *testing.T, wh *hdfs.FS, hour time.Time, recs [][]byte) int {
	t.Helper()
	dir := warehouse.HourDir(events.Category, hour)
	if !columnar.HasColumnar(wh, dir) {
		t.Fatalf("%s was published without its column chunks", dir)
	}
	infos, err := wh.Walk(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, fi := range infos {
		if !strings.Contains(fi.Path, "/_col-") {
			t.Fatalf("sealed hour %s publishes %s, want chunk files only", dir, fi.Path)
		}
	}
	ref := hdfs.New(0)
	w := warehouse.NewWriter(ref, events.Category)
	for _, r := range recs {
		var e events.ClientEvent
		if err := e.Unmarshal(r); err != nil {
			t.Fatal(err)
		}
		if err := w.Append(&e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	chunks, err := columnar.SealHour(ref, events.Category, hour)
	if err != nil {
		t.Fatal(err)
	}
	got, want := colFiles(t, wh, dir), colFiles(t, ref, dir)
	if len(got) != len(want) {
		t.Fatalf("the mover published %d chunk files, SealHour writes %d", len(got), len(want))
	}
	for name, data := range want {
		if !bytes.Equal(got[name], data) {
			t.Fatalf("chunk file %s differs from SealHour's (%d bytes, want %d)", name, len(got[name]), len(data))
		}
	}
	return chunks
}

// TestMoveSealsLikeSealHour: the hour the mover re-chunks from the staged
// chunk images is exactly the chunk files SealHour writes over the same
// records written as rows, and no row file, for an hour of several chunks
// delivered through the write path's full topology. The images hold the
// logged messages, byte for byte once rendered. The audit counts the files
// the hour publishes.
func TestMoveSealsLikeSealHour(t *testing.T) {
	t.Run("spliced", moveSealsLikeSealHour)
}

func moveSealsLikeSealHour(t *testing.T) {
	sources, msgs := stageDeliveredHour(t, 300)
	n := len(msgs)
	recs := stagedRecords(t, sources, t0)
	if !sameMessages(recs, msgs) {
		t.Fatalf("the staged images render %d records, not the %d messages logged", len(recs), n)
	}
	wh := hdfs.New(0)
	sealed0 := telemetry.Snapshot().Series["logmover.files.sealed"]
	rec, err := New(wh, sources...).MoveHour(events.Category, t0)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Records != int64(n) || rec.FilesIn < 4 {
		t.Fatalf("moved %d records from %d files, want %d from the topology's files", rec.Records, rec.FilesIn, n)
	}
	if got := telemetry.Snapshot().Series["logmover.files.sealed"] - sealed0; got != int64(rec.FilesIn) {
		t.Fatalf("logmover.files.sealed grew by %d, want the %d files in", got, rec.FilesIn)
	}
	if chunks := requireSealedLikeSealHour(t, wh, t0, recs); chunks < 2 {
		t.Fatalf("%d events sealed into %d chunks, want several", n, chunks)
	}
	infos, err := wh.Walk(warehouse.HourDir(events.Category, t0))
	if err != nil {
		t.Fatal(err)
	}
	size, err := wh.TotalSize(warehouse.HourDir(events.Category, t0))
	if err != nil || rec.FilesOut != len(infos) || rec.BytesOut != size {
		t.Fatalf("audit says %d files of %d bytes out, the hour holds %d of %d (%v)", rec.FilesOut, rec.BytesOut, len(infos), size, err)
	}
	if left := colFiles(t, wh, warehouse.TmpRoot); len(left) != 0 {
		t.Fatalf("%d chunk files left behind in %s", len(left), warehouse.TmpRoot)
	}
}

// sameMessages reports whether a and b hold the same messages, in any
// order.
func sameMessages(a, b [][]byte) bool {
	sorted := func(msgs [][]byte) []string {
		out := make([]string, len(msgs))
		for i, m := range msgs {
			out[i] = string(m)
		}
		slices.Sort(out)
		return out
	}
	return slices.Equal(sorted(a), sorted(b))
}

// TestInvalidRecordMovesAsRows: a record the chunk encoder refuses is
// staged as a row of scribe.InvalidCategory, after a chunk's worth of
// valid records, and moves as that category's spliced rows, while its hour
// seals as chunks of every other record, and the next hour moves and seals
// too. Sealing the client-events category seals InvalidCategory with it.
func TestInvalidRecordMovesAsRows(t *testing.T) {
	t.Run("spliced", moveInvalidRecord)
}

func moveInvalidRecord(t *testing.T) {
	clock := zk.NewManualClock(t0)
	dc, err := scribe.NewDatacenter("dc1", hdfs.New(0), clock, 1, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	counts := []int{columnar.DefaultChunkRows + 10, 30}
	for h, n := range counts {
		hour := t0.Add(time.Duration(h) * time.Hour)
		for i := 0; i < n; i++ {
			e := &events.ClientEvent{
				Name:      events.MustParseName("web:home:timeline:stream:tweet:impression"),
				UserID:    int64(100 + i%50),
				SessionID: fmt.Sprintf("s%02d", i%5),
				Timestamp: hour.UnixMilli() + int64(i),
			}
			dc.Daemons[0].Log(events.Category, e.Marshal())
		}
		if h == 0 {
			dc.Daemons[0].Log(events.Category, badNameRecord())
		}
		if err := dc.SealHour([]string{events.Category}, hour); err != nil {
			t.Fatal(err)
		}
		clock.Advance(time.Hour)
	}
	if st := dc.Aggregators[0].Stats(); st.Invalid != 1 {
		t.Fatalf("the aggregator counted %d invalid records, want 1", st.Invalid)
	}
	recs := [][][]byte{
		stagedRecords(t, []Source{{"dc1", dc.Staging}}, t0),
		stagedRecords(t, []Source{{"dc1", dc.Staging}}, t0.Add(time.Hour)),
	}

	wh := hdfs.New(0)
	m := New(wh, Source{"dc1", dc.Staging})
	rows0 := sealedRows()
	moved, err := m.MoveAllSealed()
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, rec := range moved {
		got = append(got, fmt.Sprintf("%s %d", rec.Category, rec.Records))
	}
	want := []string{
		fmt.Sprintf("%s %d", events.Category, counts[0]),
		fmt.Sprintf("%s %d", events.Category, counts[1]),
		scribe.InvalidCategory + " 1",
		scribe.InvalidCategory + " 0",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("moved %q, want %q", got, want)
	}
	if got := sealedRows() - rows0; got != int64(counts[0]+counts[1]) {
		t.Fatalf("columnar.seal.rows grew by %d, the sealed hours hold %d", got, counts[0]+counts[1])
	}
	for h := range counts {
		requireSealedLikeSealHour(t, wh, t0.Add(time.Duration(h)*time.Hour), recs[h])
	}
	invalid := warehouse.HourDir(scribe.InvalidCategory, t0)
	if columnar.HasColumnar(wh, invalid) {
		t.Fatalf("%s was sealed", invalid)
	}
	var rows [][]byte
	if err := warehouse.ScanHourRecords(wh, invalid, func(_ string, r []byte) error {
		rows = append(rows, bytes.Clone(r))
		return nil
	}); err != nil || len(rows) != 1 || !bytes.Equal(rows[0], badNameRecord()) {
		t.Fatalf("%s holds %d rows (%v), want the refused record", invalid, len(rows), err)
	}
}

// badNameRecord is a record the header walk reads but whose name fails
// events.ParseName, so the chunk encoder rejects it.
func badNameRecord() []byte {
	e := thrift.NewCompactEncoder()
	e.WriteStructBegin()
	e.WriteFieldBegin(thrift.STRING, 2)
	e.WriteString("NOT A NAME")
	e.WriteFieldStop()
	e.WriteStructEnd()
	return e.Bytes()
}

// sealedRows reads the columnar.seal.rows counter, which grows only by the
// rows of a seal that wrote its marker.
func sealedRows() int64 {
	return telemetry.Snapshot().Series["columnar.seal.rows"]
}

// readAllPaths lists the data files of a staging hour, the _SEALED marker
// aside.
func readAllPaths(t *testing.T, fs *hdfs.FS, dir string) []string {
	t.Helper()
	infos, err := fs.Walk(dir)
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, fi := range infos {
		if !strings.HasSuffix(fi.Path, "/"+warehouse.SealedMarker) {
			paths = append(paths, fi.Path)
		}
	}
	return paths
}

// TestCorruptFileRetrySealsClean: a staged image that fails its check is
// found only after the images ahead of it were re-chunked, two chunks'
// worth of rows by then. The move fails with ErrCorruptFile naming the file
// and the damaged column, publishes nothing and consumes nothing; once the
// file is repaired, the retry publishes a sealed hour whose first two
// chunks are, byte for byte, the ones the failed attempt had cut, and
// whose files are SealHour's. Only the retry's rows count in
// columnar.seal.rows.
func TestCorruptFileRetrySealsClean(t *testing.T) {
	sources, msgs := stageDeliveredHour(t, 100)
	// Two chunks of sound records, staged ahead of every other file.
	rec := (&events.ClientEvent{
		Name:      events.MustParseName("web:home:timeline:stream:tweet:impression"),
		Timestamp: t0.UnixMilli(),
	}).Marshal()
	var b chunk.Builder
	for i := 0; i < 2*columnar.DefaultChunkRows; i++ {
		if err := b.AddRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	ahead, _, err := b.AppendImage(nil)
	if err != nil {
		t.Fatal(err)
	}
	dir := warehouse.StagingHourDir(events.Category, t0)
	if err := sources[0].FS.WriteFile(dir+"/dc1-agg00-00000-ahead.col", ahead); err != nil {
		t.Fatal(err)
	}
	n := len(msgs) + 2*columnar.DefaultChunkRows

	last := sources[len(sources)-1]
	paths := readAllPaths(t, last.FS, dir)
	victim := paths[len(paths)-1]
	good, err := last.FS.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	damaged := append([]byte(nil), good...)
	damaged[len(damaged)-6] ^= 0x40 // in the last section, the details column
	replace := func(data []byte) {
		t.Helper()
		if err := last.FS.Delete(victim, false); err != nil {
			t.Fatal(err)
		}
		if err := last.FS.WriteFile(victim, data); err != nil {
			t.Fatal(err)
		}
	}
	replace(damaged)
	before, err := last.FS.Walk(dir)
	if err != nil {
		t.Fatal(err)
	}

	wh := hdfs.New(0)
	m := New(wh, sources...)
	rows0 := sealedRows()
	_, err = m.MoveHour(events.Category, t0)
	if !errors.Is(err, ErrCorruptFile) {
		t.Fatalf("err = %v, want ErrCorruptFile", err)
	}
	if msg := err.Error(); !strings.Contains(msg, victim+"#details") || !strings.Contains(msg, last.Datacenter) {
		t.Fatalf("error does not name the file, its column and the datacenter: %v", err)
	}
	if wh.Exists(warehouse.HourDir(events.Category, t0)) {
		t.Fatal("warehouse published despite corrupt input")
	}
	if after, err := last.FS.Walk(dir); err != nil || !reflect.DeepEqual(before, after) {
		t.Fatalf("staging changed by a failed move (%v)", err)
	}
	debris := colFiles(t, wh, warehouse.TmpRoot)
	if len(debris) != 2 {
		t.Fatalf("the failed attempt cut %d chunk images, want two", len(debris))
	}

	replace(good)
	recs := stagedRecords(t, sources, t0)
	rec2, err := m.MoveHour(events.Category, t0)
	if err != nil || rec2.Records != int64(n) {
		t.Fatalf("retry moved %d of %d records: %v", rec2.Records, n, err)
	}
	if got := sealedRows() - rows0; got != int64(n) {
		t.Fatalf("columnar.seal.rows grew by %d over a failed attempt and a retry of %d rows", got, n)
	}
	requireSealedLikeSealHour(t, wh, t0, recs)
	published := colFiles(t, wh, warehouse.HourDir(events.Category, t0))
	prefix := "/mover/" + events.Category + "/" + warehouse.HourPath(t0) // colFiles trims TmpRoot
	for name, data := range debris {
		if got, ok := published[strings.TrimPrefix(name, prefix)]; !ok || !bytes.Equal(got, data) {
			t.Fatalf("the failed attempt's %s is not what the retry published", name)
		}
	}
}

// TestCorruptChunkHasNoRowFallback: a sealed hour the mover published is
// its chunks alone, so a chunk image damaged after the move fails the day
// scan with recordio.ErrCorrupt naming that file; no row file is there to
// read instead.
func TestCorruptChunkHasNoRowFallback(t *testing.T) {
	sources, _ := stageDeliveredHour(t, 100)
	wh := hdfs.New(0)
	if _, err := New(wh, sources...).MoveHour(events.Category, t0); err != nil {
		t.Fatal(err)
	}
	dir := warehouse.HourDir(events.Category, t0)
	victim := chunk.Path(dir, 0)
	data, err := wh.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := wh.Delete(victim, false); err != nil {
		t.Fatal(err)
	}
	if err := wh.WriteFile(victim, data); err != nil {
		t.Fatal(err)
	}
	err = warehouse.ScanDay(wh, events.Category, t0, func(*events.ClientEvent) error { return nil })
	if !errors.Is(err, recordio.ErrCorrupt) || !strings.Contains(err.Error(), victim) {
		t.Fatalf("err = %v, want recordio.ErrCorrupt naming %s", err, victim)
	}
}

// TestCorruptImageFailsMove plants a damaged chunk image as the first and
// as the last staging file of a client-events hour. Whatever was already
// re-chunked ahead of it, the move fails with ErrCorruptFile naming file
// and datacenter, publishes nothing, consumes nothing and leaves no audit;
// once the bad file is gone the same hour moves whole.
func TestCorruptImageFailsMove(t *testing.T) {
	var b chunk.Builder
	for i := 0; i < 60; i++ {
		e := &events.ClientEvent{
			Name:      events.MustParseName("web:home:timeline:stream:tweet:impression"),
			SessionID: fmt.Sprintf("s%d", i%4),
			Timestamp: t0.UnixMilli() + int64(i),
			Details:   map[string]string{"rank": fmt.Sprint(i)},
		}
		if err := b.AddRecord(e.Marshal()); err != nil {
			t.Fatal(err)
		}
	}
	good, _, err := b.AppendImage(nil)
	if err != nil {
		t.Fatal(err)
	}
	damage := map[string][]byte{
		"flipped byte":     append([]byte(nil), good...),
		"truncated":        good[:len(good)-5],
		"trailing garbage": append(append([]byte(nil), good...), "garbage"...),
		"gzip rows":        readAll(t, stageFiles(t, 10, 10).Staging, warehouse.StagingHourDir("ce", t0))[0],
	}
	damage["flipped byte"][len(good)/2] ^= 0x40
	for place, name := range map[string]string{"first": "aaa.col", "last": "zzz.col"} {
		for kind, data := range damage {
			t.Run(place+"/"+kind, func(t *testing.T) {
				dc, err := scribe.NewDatacenter("dc1", hdfs.New(0), zk.NewManualClock(t0), 1, 1, 7)
				if err != nil {
					t.Fatal(err)
				}
				dc.Aggregators[0].RollRecords = 50
				for i := 0; i < 500; i++ {
					e := &events.ClientEvent{
						Name:      events.MustParseName("iphone:profile:header:bio:link:click"),
						UserID:    int64(i % 7),
						Timestamp: t0.UnixMilli() + int64(i),
					}
					dc.Daemons[0].Log(events.Category, e.Marshal())
				}
				if err := dc.SealHour([]string{events.Category}, t0); err != nil {
					t.Fatal(err)
				}
				dir := warehouse.StagingHourDir(events.Category, t0)
				bad := dir + "/" + name
				if err := dc.Staging.WriteFile(bad, data); err != nil {
					t.Fatal(err)
				}
				before, err := dc.Staging.Walk(dir)
				if err != nil {
					t.Fatal(err)
				}
				wh := hdfs.New(0)
				m := New(wh, Source{"dc1", dc.Staging})
				_, err = m.MoveHour(events.Category, t0)
				if !errors.Is(err, ErrCorruptFile) {
					t.Fatalf("err = %v, want ErrCorruptFile", err)
				}
				if msg := err.Error(); !strings.Contains(msg, bad) || !strings.Contains(msg, "dc1") {
					t.Fatalf("error does not name file and datacenter: %v", err)
				}
				if wh.Exists(warehouse.LogsRoot) {
					t.Fatal("warehouse touched despite corrupt input")
				}
				after, err := dc.Staging.Walk(dir)
				if err != nil || !reflect.DeepEqual(before, after) {
					t.Fatalf("staging changed by a failed move (%v)", err)
				}
				if len(m.Audits()) != 0 {
					t.Fatalf("failed move left an audit: %+v", m.Audits())
				}

				if err := dc.Staging.Delete(bad, false); err != nil {
					t.Fatal(err)
				}
				rec, err := m.MoveHour(events.Category, t0)
				if err != nil || rec.Records != 500 || rec.FilesIn != 10 {
					t.Fatalf("after removing the bad file: %+v, %v", rec, err)
				}
			})
		}
	}
}

// TestMoverSealedDayRawBytes: the raw size the sequence job reports for a
// day the mover published as chunks alone is the sum of the hour's chunk
// images, without its _col-SEALED manifest.
func TestMoverSealedDayRawBytes(t *testing.T) {
	sources, msgs := stageDeliveredHour(t, 60)
	wh := hdfs.New(0)
	if moved, err := New(wh, sources...).MoveAllSealed(); err != nil || len(moved) == 0 || moved[0].Records != int64(len(msgs)) {
		t.Fatalf("moved %+v: %v", moved, err)
	}
	dir := warehouse.HourDir(events.Category, t0)
	infos, err := wh.Walk(dir)
	if err != nil {
		t.Fatal(err)
	}
	var images int64
	for _, fi := range infos {
		switch {
		case fi.Path == chunk.SealedPath(dir):
			if fi.Size == 0 {
				t.Fatalf("%s is empty", fi.Path)
			}
		case chunk.IsAuxiliary(fi.Path):
			images += fi.Size
		default:
			t.Fatalf("%s: a row file in a mover-sealed hour", fi.Path)
		}
	}
	_, _, stats, err := session.BuildDay(wh, t0.Truncate(24*time.Hour), 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.RawBytes != images {
		t.Fatalf("RawBytes = %d, the hour's chunk images hold %d", stats.RawBytes, images)
	}
}
