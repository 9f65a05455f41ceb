package logmover

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"unilog/internal/columnar"
	"unilog/internal/dataflow"
	"unilog/internal/events"
	"unilog/internal/hdfs"
	"unilog/internal/recordio"
	"unilog/internal/scribe"
	"unilog/internal/warehouse"
	"unilog/internal/zk"
)

var t0 = time.Date(2012, 8, 21, 14, 0, 0, 0, time.UTC)

// stageHour writes n messages into a staging cluster through a real
// datacenter pipeline and seals the hour.
func stageHour(t *testing.T, dcName string, n int, seal bool) *scribe.Datacenter {
	t.Helper()
	clock := zk.NewManualClock(t0)
	dc, err := scribe.NewDatacenter(dcName, hdfs.New(0), clock, 1, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		dc.Daemons[0].Log("ce", []byte(fmt.Sprintf("%s-msg-%04d", dcName, i)))
	}
	if seal {
		if err := dc.SealHour([]string{"ce"}, t0); err != nil {
			t.Fatal(err)
		}
	} else if err := dc.FlushAll(); err != nil {
		t.Fatal(err)
	}
	return dc
}

// stageFiles stages n messages for hour t0 as staging files of perFile
// records each, through one aggregator, and seals the hour.
func stageFiles(t *testing.T, n, perFile int) *scribe.Datacenter {
	t.Helper()
	dc, err := scribe.NewDatacenter("dc1", hdfs.New(0), zk.NewManualClock(t0), 1, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	dc.Aggregators[0].RollRecords = int64(perFile)
	for i := 0; i < n; i++ {
		dc.Daemons[0].Log("ce", []byte(fmt.Sprintf("dc1-msg-%04d", i)))
	}
	if err := dc.SealHour([]string{"ce"}, t0); err != nil {
		t.Fatal(err)
	}
	return dc
}

// readAll returns the contents of every data file under dir, in path order.
func readAll(t *testing.T, fs *hdfs.FS, dir string) [][]byte {
	t.Helper()
	infos, err := fs.Walk(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for _, fi := range infos {
		if strings.HasSuffix(fi.Path, "/"+warehouse.SealedMarker) {
			continue
		}
		data, err := fs.ReadFile(fi.Path)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, data)
	}
	return out
}

func warehouseMessages(t *testing.T, wh *hdfs.FS, category string, hour time.Time) []string {
	t.Helper()
	infos, err := wh.Walk(warehouse.HourDir(category, hour))
	if errors.Is(err, hdfs.ErrNotFound) {
		return nil
	}
	if err != nil {
		t.Fatal(err)
	}
	var msgs []string
	for _, fi := range infos {
		data, err := wh.ReadFile(fi.Path)
		if err != nil {
			t.Fatal(err)
		}
		if err := recordio.ScanGzipFile(data, func(rec []byte) error {
			msgs = append(msgs, string(rec))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	return msgs
}

func TestMoveHourMergesAllDatacenters(t *testing.T) {
	dc1 := stageHour(t, "dc1", 100, true)
	dc2 := stageHour(t, "dc2", 50, true)
	wh := hdfs.New(0)
	m := New(wh, Source{"dc1", dc1.Staging}, Source{"dc2", dc2.Staging})

	rec, err := m.MoveHour("ce", t0)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Records != 150 || rec.FilesIn != 2 {
		t.Fatalf("audit = %+v", rec)
	}
	msgs := warehouseMessages(t, wh, "ce", t0)
	if len(msgs) != 150 {
		t.Fatalf("warehouse has %d messages, want 150", len(msgs))
	}
	seen := map[string]bool{}
	for _, msg := range msgs {
		if seen[msg] {
			t.Fatalf("duplicate %q", msg)
		}
		seen[msg] = true
	}
	// Staging is consumed after the move.
	for _, dc := range []*scribe.Datacenter{dc1, dc2} {
		infos, err := dc.Staging.Walk(warehouse.StagingHourDir("ce", t0))
		if err != nil && !errors.Is(err, hdfs.ErrNotFound) {
			t.Fatal(err)
		}
		if len(infos) != 0 {
			t.Fatalf("staging not consumed: %v", infos)
		}
	}
	if len(m.Audits()) != 1 {
		t.Fatalf("audits = %v", m.Audits())
	}
}

// TestAllDatacenterBarrier: the mover must wait until *every* datacenter
// has sealed the hour (§2).
func TestAllDatacenterBarrier(t *testing.T) {
	dc1 := stageHour(t, "dc1", 10, true)
	dc2 := stageHour(t, "dc2", 10, false) // not sealed
	wh := hdfs.New(0)
	m := New(wh, Source{"dc1", dc1.Staging}, Source{"dc2", dc2.Staging})

	if _, err := m.MoveHour("ce", t0); !errors.Is(err, ErrHourIncomplete) {
		t.Fatalf("err = %v, want ErrHourIncomplete", err)
	}
	if wh.Exists(warehouse.HourDir("ce", t0)) {
		t.Fatal("warehouse touched before barrier")
	}
	// dc2 seals; the move proceeds.
	if err := dc2.SealHour([]string{"ce"}, t0); err != nil {
		t.Fatal(err)
	}
	rec, err := m.MoveHour("ce", t0)
	if err != nil || rec.Records != 20 {
		t.Fatalf("after seal: %+v, %v", rec, err)
	}
}

func TestMoveHourIdempotence(t *testing.T) {
	dc := stageHour(t, "dc1", 5, true)
	wh := hdfs.New(0)
	m := New(wh, Source{"dc1", dc.Staging})
	if _, err := m.MoveHour("ce", t0); err != nil {
		t.Fatal(err)
	}
	if _, err := m.MoveHour("ce", t0); !errors.Is(err, ErrAlreadyMoved) {
		t.Fatalf("second move err = %v", err)
	}
}

func TestSmallFileMerging(t *testing.T) {
	// Many small staging files from several aggregators become few big
	// warehouse files.
	clock := zk.NewManualClock(t0)
	dc, err := scribe.NewDatacenter("dc1", hdfs.New(0), clock, 4, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range dc.Daemons {
		for j := 0; j < 200; j++ {
			d.Log("ce", []byte(fmt.Sprintf("host%d-%04d", i, j)))
		}
	}
	if err := dc.SealHour([]string{"ce"}, t0); err != nil {
		t.Fatal(err)
	}
	stagedFiles, err := dc.Staging.Walk(warehouse.StagingHourDir("ce", t0))
	if err != nil {
		t.Fatal(err)
	}

	wh := hdfs.New(0)
	m := New(wh, Source{"dc1", dc.Staging})
	m.TargetFileBytes = 1 << 30 // one big output file
	rec, err := m.MoveHour("ce", t0)
	if err != nil {
		t.Fatal(err)
	}
	if rec.FilesIn < 2 {
		t.Fatalf("expected multiple staging files, got %d (staged %d)", rec.FilesIn, len(stagedFiles))
	}
	if rec.FilesOut != 1 {
		t.Fatalf("FilesOut = %d, want 1 merged file", rec.FilesOut)
	}
	if rec.Records != 1600 {
		t.Fatalf("Records = %d", rec.Records)
	}
}

// TestTargetFileSizeSplitsOutput: with a small target the hour rolls into
// several parts, and every part is a run of whole staging files — the
// splice never cuts a gzip member — closed by the first file that carried
// it to the target.
func TestTargetFileSizeSplitsOutput(t *testing.T) {
	dc := stageFiles(t, 1000, 50) // 20 staging files of ~700 raw bytes
	staged := readAll(t, dc.Staging, warehouse.StagingHourDir("ce", t0))
	wh := hdfs.New(0)
	m := New(wh, Source{"dc1", dc.Staging})
	m.TargetFileBytes = 2048 // three staging files reach it
	rec, err := m.MoveHour("ce", t0)
	if err != nil {
		t.Fatal(err)
	}
	if rec.FilesIn != len(staged) || rec.FilesOut < 3 {
		t.Fatalf("FilesIn = %d of %d staged, FilesOut = %d, want several", rec.FilesIn, len(staged), rec.FilesOut)
	}
	parts := readAll(t, wh, warehouse.HourDir("ce", t0))
	if len(parts) != rec.FilesOut {
		t.Fatalf("%d parts published, audit says %d", len(parts), rec.FilesOut)
	}
	next := 0
	for i, part := range parts {
		var raw int64
		for rest := part; len(rest) > 0; next++ {
			if next == len(staged) || !bytes.HasPrefix(rest, staged[next]) {
				t.Fatalf("part %d does not continue with staging file %d at offset %d", i, next, len(part)-len(rest))
			}
			if raw >= m.TargetFileBytes {
				t.Fatalf("part %d took staging file %d with %d raw bytes already in it", i, next, raw)
			}
			_, n, err := recordio.VerifyGzipFile(staged[next])
			if err != nil {
				t.Fatal(err)
			}
			raw += n
			rest = rest[len(staged[next]):]
		}
		if raw < m.TargetFileBytes && i != len(parts)-1 {
			t.Fatalf("part %d rolled at %d raw bytes, target %d", i, raw, m.TargetFileBytes)
		}
	}
	if next != len(staged) {
		t.Fatalf("parts hold %d of %d staging files", next, len(staged))
	}
	if got := warehouseMessages(t, wh, "ce", t0); len(got) != 1000 {
		t.Fatalf("messages = %d", len(got))
	}
}

func TestCorruptStagingFileFailsMove(t *testing.T) {
	dc := stageHour(t, "dc1", 5, true)
	// Plant a corrupt file beside the good ones.
	bad := warehouse.StagingHourDir("ce", t0) + "/dc1-agg99-00000.gz"
	if err := dc.Staging.WriteFile(bad, []byte("this is not gzip")); err != nil {
		t.Fatal(err)
	}
	wh := hdfs.New(0)
	m := New(wh, Source{"dc1", dc.Staging})
	if _, err := m.MoveHour("ce", t0); !errors.Is(err, ErrCorruptFile) {
		t.Fatalf("err = %v, want ErrCorruptFile", err)
	}
	if wh.Exists(warehouse.HourDir("ce", t0)) {
		t.Fatal("warehouse published despite corrupt input")
	}
}

func TestMoveAllSealed(t *testing.T) {
	clock := zk.NewManualClock(t0)
	dc, err := scribe.NewDatacenter("dc1", hdfs.New(0), clock, 1, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Two categories over two hours.
	for h := 0; h < 2; h++ {
		for i := 0; i < 10; i++ {
			dc.Daemons[0].Log("cat_a", []byte(fmt.Sprintf("a-%d-%d", h, i)))
			dc.Daemons[0].Log("cat_b", []byte(fmt.Sprintf("b-%d-%d", h, i)))
		}
		hour := t0.Add(time.Duration(h) * time.Hour)
		if err := dc.SealHour([]string{"cat_a", "cat_b"}, hour); err != nil {
			t.Fatal(err)
		}
		clock.Advance(time.Hour)
	}
	wh := hdfs.New(0)
	m := New(wh, Source{"dc1", dc.Staging})
	recs, err := m.MoveAllSealed()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("moved %d category-hours, want 4: %+v", len(recs), recs)
	}
	// A second pass finds nothing new.
	recs, err = m.MoveAllSealed()
	if err != nil || len(recs) != 0 {
		t.Fatalf("second pass = %v, %v", recs, err)
	}
}

func TestEmptySealedHour(t *testing.T) {
	clock := zk.NewManualClock(t0)
	dc, err := scribe.NewDatacenter("dc1", hdfs.New(0), clock, 1, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := dc.SealHour([]string{"quiet"}, t0); err != nil {
		t.Fatal(err)
	}
	wh := hdfs.New(0)
	m := New(wh, Source{"dc1", dc.Staging})
	rec, err := m.MoveHour("quiet", t0)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Records != 0 || rec.FilesOut != 0 {
		t.Fatalf("rec = %+v", rec)
	}
	if !wh.Exists(warehouse.HourDir("quiet", t0)) {
		t.Fatal("empty hour directory not published")
	}
}

func TestParseStagingPath(t *testing.T) {
	cat, hour, ok := parseStagingPath("/staging/client_events/2012/08/21/14/agg0-00001.gz")
	if !ok || cat != "client_events" || !hour.Equal(t0) {
		t.Fatalf("parse = %q %v %v", cat, hour, ok)
	}
	for _, p := range []string{
		"/logs/x/2012/08/21/14/f",
		"/staging/short",
		"/staging/c/2012/08/f",
		"/staging/c/2012/08/01/5junk/f", // Sscanf read this as hour 05
		"/staging/c/2012/13/45/99/f",    // time.Date normalised this to 2013-02-18T03
		"/staging/c/2012/08/01/-3/f",
		"/staging/c/+2012/08/01/05/f",
		"/staging/c/-012/08/01/05/f",
		"/staging/c/2012/8/1/5/f", // not the fixed widths HourPath writes
		"/staging/c/2012/08/01/005/f",
		"/staging/c/2012/02/30/05/f",
		"/staging/c/2012/00/01/05/f",
		"/staging/c/2012/08/01/24/f",
		"/staging/c/2012/08/01//f",
		"/staging/c/2012/08/01/05",
		"/stagingx/c/2012/08/01/05/f",
	} {
		if cat, hour, ok := parseStagingPath(p); ok {
			t.Errorf("parseStagingPath(%q) = %q, %v", p, cat, hour)
		}
	}
}

// TestSealColumnarOnMove: with SealColumnar set, a published client-events
// hour immediately gains column chunks, and the columnar scan sees exactly
// the rows the row files hold.
func TestSealColumnarOnMove(t *testing.T) {
	clock := zk.NewManualClock(t0)
	dc, err := scribe.NewDatacenter("dc1", hdfs.New(0), clock, 1, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	for i := 0; i < n; i++ {
		e := &events.ClientEvent{
			Initiator: events.InitiatorClientUser,
			Name:      events.MustParseName("web:home:timeline:stream:tweet:impression"),
			UserID:    int64(100 + i),
			SessionID: fmt.Sprintf("s%02d", i%5),
			IP:        "10.0.0.1",
			Timestamp: t0.UnixMilli() + int64(i),
		}
		dc.Daemons[0].Log(events.Category, e.Marshal())
	}
	if err := dc.SealHour([]string{events.Category}, t0); err != nil {
		t.Fatal(err)
	}
	wh := hdfs.New(0)
	m := New(wh, Source{"dc1", dc.Staging})
	m.SealColumnar = true
	if _, err := m.MoveHour(events.Category, t0); err != nil {
		t.Fatal(err)
	}
	hourDir := warehouse.HourDir(events.Category, t0)
	if !columnar.HasColumnar(wh, hourDir) {
		t.Fatal("published hour has no column chunks")
	}
	j := dataflow.NewJob("verify", wh)
	d, err := j.LoadDirsSelective([]string{hourDir}, dataflow.ClientEventFormat{}, dataflow.Selection{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.Count()
	if err != nil {
		t.Fatal(err)
	}
	if got != n {
		t.Fatalf("columnar scan saw %d events, want %d", got, n)
	}
}
