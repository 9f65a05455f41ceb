package columnar

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"unilog/internal/chunk"
	"unilog/internal/dataflow"
	"unilog/internal/events"
	"unilog/internal/hdfs"
	"unilog/internal/recordio"
	"unilog/internal/telemetry"
	"unilog/internal/warehouse"
)

var testDay = time.Date(2012, 8, 21, 0, 0, 0, 0, time.UTC)

// testNames is a small catalog spanning several head prefixes so both the
// name zone maps and the pattern matcher have real work to do.
var testNames = []string{
	"web:home:timeline:stream:tweet:impression",
	"web:home:timeline:stream:tweet:expand",
	"web:home:mentions:stream:avatar:profile_click",
	"web:search:results:stream:tweet:click",
	"iphone:home:timeline:stream:tweet:impression",
	"iphone:profile:header:bio:link:click",
	"android:discover:trends:list:trend:click",
}

// buildDay writes a deterministic three-hour day of row files (small part
// files so every hour has several) and returns the fs and event count.
func buildDay(t *testing.T, seed int64) (*hdfs.FS, int) {
	t.Helper()
	fs := hdfs.New(0)
	w := warehouse.NewWriter(fs, events.Category)
	w.RollRecords = 23
	rng := rand.New(rand.NewSource(seed))
	n := 0
	for h := 0; h < 3; h++ {
		hour := testDay.Add(time.Duration(h) * time.Hour)
		for i := 0; i < 150; i++ {
			e := &events.ClientEvent{
				Initiator: events.Initiator(rng.Intn(4)),
				Name:      events.MustParseName(testNames[rng.Intn(len(testNames))]),
				SessionID: fmt.Sprintf("s%03d", rng.Intn(40)),
				IP:        fmt.Sprintf("10.0.%d.%d", rng.Intn(4), rng.Intn(200)),
				Timestamp: hour.UnixMilli() + int64(i)*23456,
			}
			if rng.Intn(3) > 0 { // a third of traffic is logged out
				e.UserID = int64(1000 + rng.Intn(50))
			}
			if rng.Intn(2) == 0 {
				e.Details = map[string]string{
					"request_id": fmt.Sprintf("r%06x", rng.Int31()),
					"lang":       "en",
				}
			}
			if err := w.Append(e); err != nil {
				t.Fatalf("append: %v", err)
			}
			n++
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close writer: %v", err)
	}
	return fs, n
}

func sealTestDay(t *testing.T, fs *hdfs.FS, chunkRows int) int {
	t.Helper()
	total := 0
	for h := 0; h < 3; h++ {
		n, err := SealHourChunks(fs, events.Category, testDay.Add(time.Duration(h)*time.Hour), chunkRows)
		if err != nil {
			t.Fatalf("seal hour %d: %v", h, err)
		}
		total += n
	}
	return total
}

func TestSealIdempotent(t *testing.T) {
	fs, _ := buildDay(t, 1)
	if n := sealTestDay(t, fs, 64); n == 0 {
		t.Fatal("first seal wrote no chunks")
	}
	if n := sealTestDay(t, fs, 64); n != 0 {
		t.Fatalf("second seal rewrote %d chunks, want 0", n)
	}
}

// TestColumnarMatchesRowScan is the property test: for a sweep of
// predicate/projection selections, a scan of the sealed day must produce
// exactly the relation the scan of its row files produced before the seal —
// same schema, same tuples, same order.
func TestColumnarMatchesRowScan(t *testing.T) {
	fs, _ := buildDay(t, 2)
	dirs := dataflow.HourDirs(fs, events.Category, testDay)

	h1 := testDay.Add(1 * time.Hour).UnixMilli()
	h2 := testDay.Add(2 * time.Hour).UnixMilli()
	sels := []dataflow.Selection{
		{}, // full scan
		{Columns: []string{"name", "timestamp"}},
		{Columns: []string{"user_id", "session_id", "name", "timestamp"}},
		{NamePattern: "web:home:*"},
		{NamePattern: "*:click"}, // tail-anchored: no name pruning possible
		{NamePattern: "web:*:*:stream"},
		{NamePattern: "iphone:profile:header:bio:link:click"},
		{TimeMin: h1, TimeMax: h2},
		{TimeMin: h2},
		{TimeMax: h1},
		{NamePattern: "web:home:*", TimeMin: h1, Columns: []string{"name", "ip", "logged_in"}},
		{NamePattern: "android:*", TimeMin: h1, TimeMax: h2, Columns: []string{"details", "timestamp"}},
	}
	scan := func(i int, layout string) (dataflow.Schema, []dataflow.Tuple) {
		d, err := dataflow.NewJob(fmt.Sprintf("%s-%d", layout, i), fs).LoadDirsSelective(dirs, dataflow.ClientEventFormat{}, sels[i])
		if err != nil {
			t.Fatalf("sel %d: %s load: %v", i, layout, err)
		}
		rows, err := d.Tuples()
		if err != nil {
			t.Fatalf("sel %d: %s scan: %v", i, layout, err)
		}
		return d.Schema(), rows
	}
	wantSchemas := make([]dataflow.Schema, len(sels))
	want := make([][]dataflow.Tuple, len(sels))
	for i := range sels {
		wantSchemas[i], want[i] = scan(i, "row")
		if len(want[i]) == 0 && i < 8 {
			t.Fatalf("sel %d: row baseline matched nothing — selection too narrow to test anything", i)
		}
	}
	sealTestDay(t, fs, 32)
	for i, sel := range sels {
		schema, got := scan(i, "col")
		if !reflect.DeepEqual(schema, wantSchemas[i]) {
			t.Fatalf("sel %d: schema mismatch: row %v, columnar %v", i, wantSchemas[i], schema)
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("sel %d (%+v): columnar relation differs from row scan (%d vs %d tuples)", i, sel, len(got), len(want[i]))
		}
	}
}

// TestWorkerCountChangesNoByte: sealing a day on four workers writes the
// files the serial loop writes, and a selective scan of it delivers the
// same rows in the same order from the serial and the pooled scan.
func TestWorkerCountChangesNoByte(t *testing.T) {
	colFiles := func(fs *hdfs.FS) map[string]string {
		infos, err := fs.Walk(warehouse.CategoryDir(events.Category))
		if err != nil {
			t.Fatal(err)
		}
		files := map[string]string{}
		for _, fi := range infos {
			if strings.Contains(fi.Path, "/_col-") {
				data, err := fs.ReadFile(fi.Path)
				if err != nil {
					t.Fatal(err)
				}
				files[fi.Path] = string(data)
			}
		}
		return files
	}
	serialFS, _ := buildDay(t, 5)
	pooledFS, _ := buildDay(t, 5)
	sn, err := SealDayParallel(serialFS, events.Category, testDay, 1)
	if err != nil {
		t.Fatal(err)
	}
	pn, err := SealDayParallel(pooledFS, events.Category, testDay, 4)
	if err != nil {
		t.Fatal(err)
	}
	if same := reflect.DeepEqual(colFiles(pooledFS), colFiles(serialFS)); sn == 0 || pn != sn || !same {
		t.Fatalf("sealing on 4 workers wrote %d chunks, serially %d; files equal: %v", pn, sn, same)
	}

	sel := dataflow.Selection{
		Columns:     []string{"name", "user_id", "timestamp"},
		NamePattern: "web:home:*",
		TimeMin:     testDay.Add(30 * time.Minute).UnixMilli(),
		TimeMax:     testDay.Add(150 * time.Minute).UnixMilli(),
	}
	scan := func(workers int) ([]dataflow.Tuple, dataflow.Stats) {
		j := dataflow.NewJob(fmt.Sprintf("scan-p%d", workers), pooledFS)
		j.Parallelism = workers
		d, err := LoadDay(j, testDay, sel)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := d.Tuples()
		if err != nil {
			t.Fatal(err)
		}
		return rows, j.Stats()
	}
	want, wantStats := scan(1)
	got, gotStats := scan(4)
	if len(want) == 0 || wantStats.MapTasks < 2 {
		t.Fatalf("serial scan: %d rows from %d splits — nothing for a pool to reorder", len(want), wantStats.MapTasks)
	}
	if !reflect.DeepEqual(got, want) || gotStats != wantStats {
		t.Fatalf("pooled scan diverged: %d rows %+v, serial %d rows %+v", len(got), gotStats, len(want), wantStats)
	}
}

// TestZoneMapPruning asserts a selective scan of the sealed day actually
// prunes chunks and reads fewer bytes than the same scan of its row files
// before the seal — the point of the layout.
func TestZoneMapPruning(t *testing.T) {
	fs, _ := buildDay(t, 3)
	dirs := dataflow.HourDirs(fs, events.Category, testDay)
	sel := dataflow.Selection{
		NamePattern: "web:home:*",
		TimeMin:     testDay.Add(2 * time.Hour).UnixMilli(),
		Columns:     []string{"name", "timestamp", "logged_in"},
	}
	scan := func(name string) int64 {
		j := dataflow.NewJob(name, fs)
		d, err := j.LoadDirsSelective(dirs, dataflow.ClientEventFormat{}, sel)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Tuples(); err != nil {
			t.Fatal(err)
		}
		return j.Stats().BytesRead
	}

	rowBytes := scan("row")
	sealTestDay(t, fs, 32)
	before := telemetry.Snapshot().Series
	colBytes := scan("col")
	after := telemetry.Snapshot().Series

	pruned := after["columnar.chunks.pruned"] - before["columnar.chunks.pruned"]
	scanned := after["columnar.chunks.scanned"] - before["columnar.chunks.scanned"]
	if pruned == 0 {
		t.Fatalf("selective scan pruned no chunks (scanned %d)", scanned)
	}
	if scanned == 0 {
		t.Fatal("selective scan scanned no chunks — nothing matched")
	}
	if colBytes >= rowBytes {
		t.Fatalf("columnar selective scan read %d bytes, row scan %d — no IO win", colBytes, rowBytes)
	}
}

// TestCorruptionMatrix drives the three storage-failure modes through a
// full scan: a torn chunk tail, a bit-flipped record body, and a missing
// column file must each surface as their recordio/hdfs error kind, never
// as silent data loss.
func TestCorruptionMatrix(t *testing.T) {
	hourDir := warehouse.HourDir(events.Category, testDay)

	corrupt := func(t *testing.T, fs *hdfs.FS, path string, mutate func([]byte) []byte) {
		t.Helper()
		data, err := fs.ReadFile(path)
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		if err := fs.Delete(path, false); err != nil {
			t.Fatalf("delete %s: %v", path, err)
		}
		if data = mutate(data); data != nil {
			if err := fs.WriteFile(path, data); err != nil {
				t.Fatalf("rewrite %s: %v", path, err)
			}
		}
	}
	scan := func(fs *hdfs.FS) error {
		j := dataflow.NewJob("scan", fs)
		d, err := j.LoadDirsSelective([]string{hourDir}, EventsFormat{}, dataflow.Selection{})
		if err != nil {
			return err
		}
		_, err = d.Tuples()
		return err
	}

	cases := []struct {
		name   string
		file   string
		mutate func([]byte) []byte
		want   error
	}{
		{
			name: "torn tail truncated",
			file: hourDir + "/_col-00000.name",
			mutate: func(b []byte) []byte {
				return b[:len(b)-3] // cut mid-record: framing sees a torn final write
			},
			want: recordio.ErrTruncated,
		},
		{
			name: "bit flip corrupt",
			file: hourDir + "/_col-00000.user_id",
			mutate: func(b []byte) []byte {
				b[len(b)-1] ^= 0x40 // flip a payload bit: checksum must catch it
				return b
			},
			want: recordio.ErrCorrupt,
		},
		{
			name: "meta bit flip corrupt",
			file: hourDir + "/_col-00000.meta",
			mutate: func(b []byte) []byte {
				b[len(b)-1] ^= 0x01
				return b
			},
			want: recordio.ErrCorrupt,
		},
		{
			name:   "missing column file",
			file:   hourDir + "/_col-00000.session_id",
			mutate: func([]byte) []byte { return nil }, // delete, no rewrite
			want:   hdfs.ErrNotFound,
		},
		{
			name: "over-long column corrupt",
			file: hourDir + "/_col-00000.user_id",
			mutate: func(b []byte) []byte {
				// Re-frame the record with one extra trailing varint: the
				// CRC is valid but the column now holds more rows than its
				// meta claims.
				r := recordio.NewCRCReader(bytes.NewReader(b))
				rec, err := r.Next()
				if err != nil {
					t.Fatalf("reframe: %v", err)
				}
				var out bytes.Buffer
				w := recordio.NewCRCWriter(&out)
				if err := w.Append(append(append([]byte(nil), rec...), 0)); err != nil {
					t.Fatalf("reframe: %v", err)
				}
				return out.Bytes()
			},
			want: recordio.ErrCorrupt,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs, _ := buildDay(t, 4)
			sealTestDay(t, fs, 32)
			corrupt(t, fs, tc.file, tc.mutate)
			err := scan(fs)
			if err == nil {
				t.Fatal("scan of damaged chunk succeeded")
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("scan error = %v, want %v", err, tc.want)
			}
			if !strings.Contains(err.Error(), tc.file) {
				t.Fatalf("scan error %q does not name the damaged file %s", err, tc.file)
			}
		})
	}
}

// TestTornSealRecovers proves a seal that dies mid-hour loses nothing:
// without the _col-SEALED marker the half-written chunks are invisible
// (scans fall back to the row files), and re-sealing is not a no-op — it
// removes the orphaned chunks and completes with its own boundaries.
func TestTornSealRecovers(t *testing.T) {
	fs, total := buildDay(t, 6)
	hourDir := warehouse.HourDir(events.Category, testDay)
	if _, err := SealHourChunks(fs, events.Category, testDay, 32); err != nil {
		t.Fatal(err)
	}
	// Rewind the seal to "died before chunk 4": drop the completion
	// marker and the last chunk's files.
	if err := fs.Delete(chunk.SealedPath(hourDir), false); err != nil {
		t.Fatal(err)
	}
	for _, col := range chunk.ColumnNames {
		if err := fs.Delete(chunk.Base(hourDir, 4)+"."+col, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Delete(chunk.MetaPath(hourDir, 4), false); err != nil {
		t.Fatal(err)
	}
	if HasColumnar(fs, hourDir) {
		t.Fatal("torn seal still claims the hour is columnar")
	}
	count := func(name string) int64 {
		t.Helper()
		j := dataflow.NewJob(name, fs)
		d, err := LoadDay(j, testDay, dataflow.Selection{})
		if err != nil {
			t.Fatal(err)
		}
		n, err := d.Count()
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	if n := count("torn"); n != int64(total) {
		t.Fatalf("scan of torn-seal day saw %d events, want %d — rows silently dropped", n, total)
	}
	// Re-seal with a different chunk size (150 rows / 64 = 3 chunks): the
	// surviving 32-row chunks from the torn attempt must be cleaned up,
	// not mixed in.
	n, err := SealHourChunks(fs, events.Category, testDay, 64)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("re-seal of a torn hour was a no-op")
	}
	if fs.Exists(chunk.MetaPath(hourDir, 3)) {
		t.Fatal("re-seal left stale chunks from the torn attempt")
	}
	if !HasColumnar(fs, hourDir) {
		t.Fatal("re-seal did not write the completion marker")
	}
	if got, want := mustSealedChunks(t, fs, hourDir), n; got != want {
		t.Fatalf("completion marker records %d chunks, seal wrote %d", got, want)
	}
	if n := count("resealed"); n != int64(total) {
		t.Fatalf("columnar scan after re-seal saw %d events, want %d", n, total)
	}
}

func mustSealedChunks(t *testing.T, fs *hdfs.FS, dir string) int {
	t.Helper()
	n, err := chunk.SealedChunks(fs, dir)
	if err != nil {
		t.Fatalf("read seal marker: %v", err)
	}
	return n
}

// TestHybridDirFallsBackToRows proves the format reads an unsealed hour
// through its row files: seal only hour 0 and the day still scans whole.
func TestHybridDirFallsBackToRows(t *testing.T) {
	fs, total := buildDay(t, 5)
	if _, err := SealHourChunks(fs, events.Category, testDay, 32); err != nil {
		t.Fatal(err)
	}
	j := dataflow.NewJob("hybrid", fs)
	d, err := LoadDay(j, testDay, dataflow.Selection{})
	if err != nil {
		t.Fatal(err)
	}
	n, err := d.Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(total) {
		t.Fatalf("hybrid day scan saw %d events, want %d", n, total)
	}
}

// TestSealedBytesPinned seals one fixed-seed hour and compares a digest of
// every _col-* file with the value recorded when the details column became
// typed per key (chunk format 2): an encoder change that moves one byte of
// the sealed layout — dictionary order, a details key's encoding, the zone
// map — fails here.
func TestSealedBytesPinned(t *testing.T) {
	fs := hdfs.New(0)
	w := warehouse.NewWriter(fs, events.Category)
	rng := rand.New(rand.NewSource(14))
	detailKeys := []string{"request_id", "lang", "position", "client_version"}
	for i := 0; i < 500; i++ {
		e := &events.ClientEvent{
			Initiator: events.Initiator(rng.Intn(4)),
			Name:      events.MustParseName(testNames[rng.Intn(len(testNames))]),
			UserID:    int64(rng.Intn(3)) * int64(1000+rng.Intn(50)),
			SessionID: fmt.Sprintf("s%03d", rng.Intn(40)),
			IP:        fmt.Sprintf("10.0.%d.%d", rng.Intn(4), rng.Intn(200)),
			Timestamp: testDay.UnixMilli() + 5000 + int64(i)*6789 - int64(rng.Intn(5000)),
		}
		// Zero to four details keys, inserted in shuffled order.
		for _, k := range rng.Perm(len(detailKeys))[:rng.Intn(len(detailKeys)+1)] {
			if e.Details == nil {
				e.Details = map[string]string{}
			}
			e.Details[detailKeys[k]] = fmt.Sprintf("v%04x", rng.Int31n(1<<16))
		}
		if err := w.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := SealHourChunks(fs, events.Category, testDay, 64); err != nil {
		t.Fatal(err)
	}
	infos, err := fs.Walk(warehouse.HourDir(events.Category, testDay))
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	files := 0
	for _, fi := range infos { // Walk returns paths sorted
		if !strings.Contains(fi.Path, "/_col-") {
			continue
		}
		data, err := fs.ReadFile(fi.Path)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %d\n", fi.Path, len(data))
		h.Write(data)
		files++
	}
	const want = "24c83eb51e13a27cc60dcfc8a3548bc6a6958089c7c046196a2e583a21c5ab98"
	if got := hex.EncodeToString(h.Sum(nil)); got != want || files != 8*9+1 {
		t.Fatalf("digest of %d column files = %s, want %d files, %s", files, got, 8*9+1, want)
	}
}
