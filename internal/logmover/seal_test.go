package logmover

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"unilog/internal/columnar"
	"unilog/internal/events"
	"unilog/internal/hdfs"
	"unilog/internal/recordio"
	"unilog/internal/scribe"
	"unilog/internal/telemetry"
	"unilog/internal/thrift"
	"unilog/internal/warehouse"
	"unilog/internal/workload"
	"unilog/internal/zk"
)

// stageDeliveredHour delivers a generated day, every timestamp folded into
// hour t0 with its order kept, through two datacenters of two aggregators
// and three daemons each, and seals the hour in both. It returns the
// mover's sources and the event count.
func stageDeliveredHour(t *testing.T, users int) ([]Source, int) {
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
	for i := range evs {
		evs[i].Timestamp = t0.UnixMilli() + (evs[i].Timestamp-day)/24
		dcs[i%2].Daemons[(i/2)%3].Log(events.Category, evs[i].Marshal())
	}
	for _, dc := range dcs {
		if err := dc.SealHour([]string{events.Category}, t0); err != nil {
			t.Fatal(err)
		}
	}
	return sources, len(evs)
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

// requireSealedLikeSealHour fails unless the published hour's column files
// are, name for name and byte for byte, what columnar.SealHour writes over
// the hour's published row files. It returns the number of chunks.
func requireSealedLikeSealHour(t *testing.T, wh *hdfs.FS, hour time.Time) int {
	t.Helper()
	dir := warehouse.HourDir(events.Category, hour)
	if !columnar.HasColumnar(wh, dir) {
		t.Fatalf("%s was published without its column chunks", dir)
	}
	ref := hdfs.New(0)
	infos, err := wh.Walk(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, fi := range infos {
		if warehouse.IsAuxiliary(fi.Path) {
			continue
		}
		data, err := wh.ReadFile(fi.Path)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.WriteFile(fi.Path, data); err != nil {
			t.Fatal(err)
		}
	}
	chunks, err := columnar.SealHour(ref, events.Category, hour)
	if err != nil {
		t.Fatal(err)
	}
	got, want := colFiles(t, wh, dir), colFiles(t, ref, dir)
	if len(got) != len(want) {
		t.Fatalf("the mover published %d column files, SealHour writes %d", len(got), len(want))
	}
	for name, data := range want {
		if !bytes.Equal(got[name], data) {
			t.Fatalf("column file %s differs from SealHour's (%d bytes, want %d)", name, len(got[name]), len(data))
		}
	}
	return chunks
}

// TestMoveSealsLikeSealHour: the seal the mover runs inside its verify pass
// writes exactly the column files SealHour writes over the published rows,
// spliced or through an anonymizing Transform, for an hour of several
// chunks delivered through the write path's full topology.
func TestMoveSealsLikeSealHour(t *testing.T) {
	anon := events.NewAnonymizer([]byte("mover-policy"))
	anonymize := func(_ string, rec []byte) ([]byte, error) {
		var e events.ClientEvent
		if err := e.Unmarshal(rec); err != nil {
			return nil, err
		}
		anon.Apply(&e)
		return e.Marshal(), nil
	}
	for name, transform := range map[string]func(string, []byte) ([]byte, error){
		"spliced":    nil,
		"anonymized": anonymize,
	} {
		t.Run(name, func(t *testing.T) {
			sources, n := stageDeliveredHour(t, 300)
			wh := hdfs.New(0)
			m := New(wh, sources...)
			m.Transform = transform
			rec, err := m.MoveHour(events.Category, t0)
			if err != nil {
				t.Fatal(err)
			}
			if rec.Records != int64(n) || rec.FilesIn < 4 {
				t.Fatalf("moved %d records from %d files, want %d from the topology's files", rec.Records, rec.FilesIn, n)
			}
			if chunks := requireSealedLikeSealHour(t, wh, t0); chunks < 2 {
				t.Fatalf("%d events sealed into %d chunks, want several", n, chunks)
			}
			if left := colFiles(t, wh, warehouse.TmpRoot); len(left) != 0 {
				t.Fatalf("%d column files left behind in %s", len(left), warehouse.TmpRoot)
			}
		})
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

// TestMoveSealRejectionPublishesRows: a staged record the chunk encoder
// rejects costs its hour the columns, not the rows. It comes after a chunk
// was cut, so the seal had files to take back. The hour is published and
// audited with every record and no _col- file; the next hour still moves
// and seals; and the error MoveAllSealed returns once both have moved names
// the staging file the record came from.
func TestMoveSealRejectionPublishesRows(t *testing.T) {
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
	staged := readAllPaths(t, dc.Staging, warehouse.StagingHourDir(events.Category, t0))
	last := staged[len(staged)-1] // the aggregator rolls its files in path order

	wh := hdfs.New(0)
	m := New(wh, Source{"dc1", dc.Staging})
	rows0 := sealedRows()
	recs, err := m.MoveAllSealed()
	if err == nil || !strings.Contains(err.Error(), last) {
		t.Fatalf("err = %v, want a seal error naming %s", err, last)
	}
	if errors.Is(err, ErrCorruptFile) {
		t.Fatalf("seal error %v reads as a corrupt staging file", err)
	}
	if len(recs) != 2 || len(m.Audits()) != 2 || recs[0].Records != int64(counts[0]+1) || recs[1].Records != int64(counts[1]) {
		t.Fatalf("moved %+v, audits %d; want both hours, %d and %d records", recs, len(m.Audits()), counts[0]+1, counts[1])
	}
	if got := sealedRows() - rows0; got != int64(counts[1]) {
		t.Fatalf("columnar.seal.rows grew by %d, the one sealed hour holds %d", got, counts[1])
	}
	rejected := warehouse.HourDir(events.Category, t0)
	if !wh.Exists(rejected) || columnar.HasColumnar(wh, rejected) {
		t.Fatalf("hour with the rejected record: published %v, sealed %v", wh.Exists(rejected), columnar.HasColumnar(wh, rejected))
	}
	requireSealedLikeSealHour(t, wh, t0.Add(time.Hour))
	next := warehouse.HourDir(events.Category, t0.Add(time.Hour))
	if all, sealed := colFiles(t, wh, "/"), colFiles(t, wh, next); len(all) != len(sealed) {
		t.Fatalf("the warehouse holds %d column files, the next hour %d of them", len(all), len(sealed))
	}
	var rows int
	if err := warehouse.ScanHourRecords(wh, warehouse.HourDir(events.Category, t0), func(string, []byte) error {
		rows++
		return nil
	}); err != nil || rows != counts[0]+1 {
		t.Fatalf("hour with the rejected record holds %d rows (%v), want %d", rows, err, counts[0]+1)
	}
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

// TestCorruptFileRetrySealsClean: a staging file whose second member fails
// its trailer check is found only after that member's records went to the
// seal, which had cut a chunk of them by then. The move fails with
// ErrCorruptFile and publishes nothing; once the file is repaired, the
// retry publishes a sealed hour holding none of the failed attempt's
// column files. Only the retry's rows count in columnar.seal.rows.
func TestCorruptFileRetrySealsClean(t *testing.T) {
	sources, n := stageDeliveredHour(t, 100)
	last := sources[len(sources)-1]
	paths := readAllPaths(t, last.FS, warehouse.StagingHourDir(events.Category, t0))
	victim := paths[len(paths)-1]
	good, err := last.FS.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	// One more member of two chunks' worth of sound records, its CRC
	// flipped: the failed attempt cuts more chunks than the hour holds.
	rec := (&events.ClientEvent{
		Name:      events.MustParseName("web:home:timeline:stream:tweet:impression"),
		Timestamp: t0.UnixMilli(),
	}).Marshal()
	var extra bytes.Buffer
	w := recordio.NewGzipWriter(&extra)
	for i := 0; i < 2*columnar.DefaultChunkRows; i++ {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	damaged := append(append([]byte(nil), good...), extra.Bytes()...)
	damaged[len(damaged)-6] ^= 0x40
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

	wh := hdfs.New(0)
	m := New(wh, sources...)
	rows0 := sealedRows()
	if _, err := m.MoveHour(events.Category, t0); !errors.Is(err, ErrCorruptFile) {
		t.Fatalf("err = %v, want ErrCorruptFile", err)
	}
	if wh.Exists(warehouse.HourDir(events.Category, t0)) {
		t.Fatal("warehouse published despite corrupt input")
	}
	debris := colFiles(t, wh, warehouse.TmpRoot)
	if len(debris) == 0 {
		t.Fatal("the failed attempt cut no chunk: the test exercises nothing")
	}

	replace(good)
	rec2, err := m.MoveHour(events.Category, t0)
	if err != nil || rec2.Records != int64(n) {
		t.Fatalf("retry moved %d of %d records: %v", rec2.Records, n, err)
	}
	if got := sealedRows() - rows0; got != int64(n) {
		t.Fatalf("columnar.seal.rows grew by %d over a failed attempt and a retry of %d rows", got, n)
	}
	requireSealedLikeSealHour(t, wh, t0)
	if published := colFiles(t, wh, warehouse.HourDir(events.Category, t0)); len(published) > len(debris) {
		t.Fatalf("the retry published %d column files, the failed attempt had cut only %d", len(published), len(debris))
	}
}
