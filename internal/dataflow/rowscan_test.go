package dataflow_test

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"unilog/internal/chunk"
	"unilog/internal/columnar"
	"unilog/internal/dataflow"
	"unilog/internal/events"
	"unilog/internal/hdfs"
	"unilog/internal/recordio"
	"unilog/internal/telemetry"
	"unilog/internal/thrift"
	"unilog/internal/warehouse"
	"unilog/internal/workload"
)

// referenceTuple is a row as ClientEventFormat built it before it read the
// header walk: a full ClientEvent.Unmarshal, then all eight columns. The
// row reader is held to it.
func referenceTuple(rec []byte) (dataflow.Tuple, error) {
	var e events.ClientEvent
	if err := e.Unmarshal(rec); err != nil {
		return nil, err
	}
	// A details field with no pairs reads as nil, not as an empty map: a
	// sealed chunk keeps a row's pairs and nothing else, so nil is the one
	// answer both layouts can give.
	details := e.Details
	if len(details) == 0 {
		details = nil
	}
	return dataflow.Tuple{e.Initiator.String(), e.Name.String(), e.UserID, e.SessionID, e.IP, e.Timestamp, e.LoggedIn(), details}, nil
}

// referenceScan is the relation a scan of dirs under sel must deliver:
// every record through referenceTuple, in file order, then the selection
// applied the way the planner's row operators apply it. A record that does
// not decode fails the scan with its file's path. The files must be sound
// gzip streams.
func referenceScan(tb testing.TB, fs *hdfs.FS, dirs []string, sel dataflow.Selection) ([]dataflow.Tuple, error) {
	tb.Helper()
	var pat events.Pattern
	if sel.NamePattern != "" {
		pat = events.MustParsePattern(sel.NamePattern)
	}
	cols := sel.Columns
	if cols == nil {
		cols = dataflow.ClientEventSchema
	}
	var out []dataflow.Tuple
	for _, dir := range dirs {
		infos, err := fs.Walk(dir)
		if err != nil {
			tb.Fatal(err)
		}
		for _, fi := range infos {
			if chunk.IsAuxiliary(fi.Path) {
				continue
			}
			data, err := fs.ReadFile(fi.Path)
			if err != nil {
				tb.Fatal(err)
			}
			err = recordio.ScanGzipFile(data, func(rec []byte) error {
				t, err := referenceTuple(rec)
				if err != nil {
					return fmt.Errorf("warehouse: %s: %w", fi.Path, err)
				}
				if sel.NamePattern != "" && !pat.MatchesString(t[1].(string)) {
					return nil
				}
				if ts := t[5].(int64); (sel.TimeMin != 0 && ts < sel.TimeMin) || (sel.TimeMax != 0 && ts >= sel.TimeMax) {
					return nil
				}
				p := make(dataflow.Tuple, len(cols))
				for i, c := range cols {
					p[i] = t[dataflow.ClientEventSchema.MustIndex(c)]
				}
				out = append(out, p)
				return nil
			})
			if err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// layout is one way a day lies in the warehouse.
type layout struct {
	name string
	fs   *hdfs.FS
}

// dayLayouts writes the generated day twice, as written and sealed into
// small chunks, and returns both with its hour directories.
func dayLayouts(tb testing.TB) ([]layout, []string) {
	tb.Helper()
	rows, dirs := generatedDay(tb)
	sealed, _ := generatedDay(tb)
	for h := 0; h < 24; h++ {
		hour := benchDay.Add(time.Duration(h) * time.Hour)
		if !sealed.Exists(warehouse.HourDir(events.Category, hour)) {
			continue
		}
		if _, err := columnar.SealHourChunks(sealed, events.Category, hour, 16); err != nil {
			tb.Fatal(err)
		}
	}
	return []layout{{"rows", rows}, {"sealed", sealed}}, dirs
}

// scanSelective runs LoadDirsSelective(dirs, f, sel) to the end.
func scanSelective(tb testing.TB, fs *hdfs.FS, dirs []string, f dataflow.InputFormat, sel dataflow.Selection) ([]dataflow.Tuple, dataflow.Schema, error) {
	tb.Helper()
	d, err := dataflow.NewJob("rowscan", fs).LoadDirsSelective(dirs, f, sel)
	if err != nil {
		tb.Fatal(err)
	}
	rows, err := d.Tuples()
	return rows, d.Schema(), err
}

// generatedDay writes a small generated day of row files, rolled often so
// that every hour has several, and returns its hour directories.
func generatedDay(tb testing.TB) (*hdfs.FS, []string) {
	tb.Helper()
	cfg := workload.DefaultConfig(benchDay)
	cfg.Users, cfg.LoggedOutSessions = 12, 4
	evs, _ := workload.New(cfg).Generate()
	fs := hdfs.New(0)
	w := warehouse.NewWriter(fs, events.Category)
	w.RollRecords = 61
	for i := range evs {
		if err := w.Append(&evs[i]); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	return fs, warehouse.HourDirs(fs, events.Category, benchDay)
}

// filterOf is a name pattern and a window that keep some of a generated
// day and drop some: the head of its first event's name, the middle twelve
// hours.
func filterOf(tb testing.TB, fs *hdfs.FS, dirs []string) dataflow.Selection {
	tb.Helper()
	all, err := referenceScan(tb, fs, dirs, dataflow.Selection{})
	if err != nil || len(all) == 0 {
		tb.Fatalf("generated day: %d rows, %v", len(all), err)
	}
	c := strings.Split(all[0][1].(string), ":")
	return dataflow.Selection{
		NamePattern: c[0] + ":" + c[1] + ":*",
		TimeMin:     benchDay.Add(6 * time.Hour).UnixMilli(),
		TimeMax:     benchDay.Add(18 * time.Hour).UnixMilli(),
	}
}

// columnSubsets is every projection of one and of three columns, the full
// schema in order and reversed, and no projection at all.
func columnSubsets() [][]string {
	s := dataflow.ClientEventSchema
	out := [][]string{nil}
	for _, c := range s {
		out = append(out, []string{c})
	}
	for i := range s {
		for j := i + 1; j < len(s); j++ {
			for k := j + 1; k < len(s); k++ {
				out = append(out, []string{s[k], s[i], s[j]})
			}
		}
	}
	rev := make([]string, len(s))
	for i, c := range s {
		rev[len(s)-1-i] = c
	}
	return append(out, append([]string(nil), s...), rev)
}

// TestRowScanMatchesUnmarshal: through every projection of one, three and
// all eight columns, with and without a name pattern and a window, both
// layouts of a day deliver the reference relation tuple for tuple — details
// maps included.
func TestRowScanMatchesUnmarshal(t *testing.T) {
	layouts, dirs := dayLayouts(t)
	fs := layouts[0].fs
	filter := filterOf(t, fs, dirs)
	for _, cols := range columnSubsets() {
		for _, filtered := range []bool{false, true} {
			sel := dataflow.Selection{Columns: cols}
			if filtered {
				sel.NamePattern, sel.TimeMin, sel.TimeMax = filter.NamePattern, filter.TimeMin, filter.TimeMax
			}
			want, err := referenceScan(t, fs, dirs, sel)
			if err != nil || len(want) == 0 {
				t.Fatalf("%+v: reference %d rows, %v", sel, len(want), err)
			}
			for _, l := range layouts {
				got, schema, err := scanSelective(t, l.fs, dirs, dataflow.ClientEventFormat{}, sel)
				if err != nil {
					t.Fatalf("%s %+v: %v", l.name, sel, err)
				}
				if cols != nil && !reflect.DeepEqual([]string(schema), cols) {
					t.Fatalf("%s %+v: schema %v", l.name, sel, schema)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %+v: %d rows differ from the reference's %d", l.name, sel, len(got), len(want))
				}
			}
		}
	}
}

// encodeRecord encodes a client event the way no generator writes one:
// name is the name field (nil leaves it out), details the entries of the
// details field in wire order (nil leaves it out), and unknown adds a field
// of an id the format does not know.
func encodeRecord(initiator int8, name *string, details [][2]string, unknown bool) []byte {
	enc := thrift.NewCompactEncoder()
	enc.WriteStructBegin()
	enc.WriteFieldBegin(thrift.BYTE, 1)
	enc.WriteI8(initiator)
	if name != nil {
		enc.WriteFieldBegin(thrift.STRING, 2)
		enc.WriteString(*name)
	}
	enc.WriteFieldBegin(thrift.I64, 3)
	enc.WriteI64(42)
	enc.WriteFieldBegin(thrift.STRING, 4)
	enc.WriteString("sess-1")
	enc.WriteFieldBegin(thrift.STRING, 5)
	enc.WriteString("10.1.2.3")
	enc.WriteFieldBegin(thrift.I64, 6)
	enc.WriteI64(benchDay.Add(9 * time.Hour).UnixMilli())
	if details != nil {
		enc.WriteFieldBegin(thrift.MAP, 7)
		enc.WriteMapBegin(thrift.STRING, thrift.STRING, len(details))
		for _, kv := range details {
			enc.WriteString(kv[0])
			enc.WriteString(kv[1])
		}
	}
	if unknown {
		enc.WriteFieldBegin(thrift.LIST, 9)
		enc.WriteListBegin(thrift.STRING, 1)
		enc.WriteString("from a newer producer")
	}
	enc.WriteFieldStop()
	enc.WriteStructEnd()
	return append([]byte(nil), enc.Bytes()...)
}

// edgeRecords are the shapes of a message the generator never writes,
// each beside the well-formed record it is a variant of.
func edgeRecords() (good []byte, edges []struct {
	name string
	rec  []byte
}) {
	valid, empty, invalid := "web:home:::tweet:click", "", "Web:Home:::tweet:click"
	pairs := [][2]string{{"k", "v"}}
	good = encodeRecord(0, &valid, pairs, false)
	add := func(name string, rec []byte) {
		edges = append(edges, struct {
			name string
			rec  []byte
		}{name, rec})
	}
	add("name absent", encodeRecord(1, nil, pairs, false))
	add("name empty", encodeRecord(1, &empty, pairs, false))
	add("name invalid", encodeRecord(1, &invalid, pairs, false))
	add("details absent", encodeRecord(2, &valid, nil, false))
	add("details empty", encodeRecord(2, &valid, [][2]string{}, false))
	add("details key repeated", encodeRecord(3, &valid, [][2]string{{"k", "first"}, {"j", "x"}, {"k", "last"}}, false))
	add("unknown field", encodeRecord(3, &valid, pairs, true))
	add("initiator out of range", encodeRecord(9, &valid, pairs, false))
	add("truncated", good[:len(good)-3])
	return good, edges
}

// writeRowFile writes recs as one gzipped row file at path.
func writeRowFile(tb testing.TB, fs *hdfs.FS, path string, recs ...[]byte) {
	tb.Helper()
	var buf bytes.Buffer
	w := recordio.NewGzipWriter(&buf)
	for _, rec := range recs {
		if err := w.Append(rec); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	if err := fs.WriteFile(path, buf.Bytes()); err != nil {
		tb.Fatal(err)
	}
}

// TestRowScanEdgeRecords: on each hand-built record, between two good ones,
// the hour as written and the hour sealed give the reference's tuples — the
// unnamed message as ":::::", absent and empty details both nil, the last
// of a repeated key. Where the reference fails the seal fails too, and the
// row file fails the scan with the reference's error and the file's path,
// and stays failed.
func TestRowScanEdgeRecords(t *testing.T) {
	good, edges := edgeRecords()
	hour := benchDay.Add(9 * time.Hour)
	dir := warehouse.HourDir(events.Category, hour)
	for _, c := range edges {
		t.Run(c.name, func(t *testing.T) {
			rows, sealed := hdfs.New(0), hdfs.New(0)
			writeRowFile(t, rows, dir+"/part-00000.gz", good, c.rec, good)
			writeRowFile(t, sealed, dir+"/part-00000.gz", good, c.rec, good)
			_, sealErr := columnar.SealHour(sealed, events.Category, hour)
			_, refErr := referenceScan(t, rows, []string{dir}, dataflow.Selection{})
			if (sealErr == nil) != (refErr == nil) {
				t.Fatalf("SealHour: %v; the reference: %v", sealErr, refErr)
			}
			layouts := []layout{{"rows", rows}}
			if sealErr == nil {
				layouts = append(layouts, layout{"sealed", sealed})
			}
			for _, sel := range []dataflow.Selection{{}, {NamePattern: "web:*"}, {Columns: []string{"timestamp", "initiator"}}, {Columns: []string{"timestamp", "details"}}} {
				want, wantErr := referenceScan(t, rows, []string{dir}, sel)
				for _, l := range layouts {
					got, _, err := scanSelective(t, l.fs, []string{dir}, dataflow.ClientEventFormat{}, sel)
					if wantErr != nil {
						if err == nil || err.Error() != wantErr.Error() {
							t.Fatalf("%s %+v: err = %v, the reference fails with %v", l.name, sel, err, wantErr)
						}
						if errors.Is(wantErr, thrift.ErrTruncated) != errors.Is(err, thrift.ErrTruncated) {
							t.Fatalf("%s %+v: err = %v is not the reference's kind", l.name, sel, err)
						}
						continue
					}
					if err != nil || !reflect.DeepEqual(got, want) {
						t.Fatalf("%s %+v: %v, %v; the reference %v", l.name, sel, got, err, want)
					}
				}
			}
			if refErr == nil {
				return
			}
			it, err := dataflow.NewJob("sticky", rows).LoadDirsSelective([]string{dir}, dataflow.ClientEventFormat{}, dataflow.Selection{})
			if err != nil {
				t.Fatal(err)
			}
			cur, err := it.Open()
			if err != nil {
				t.Fatal(err)
			}
			defer cur.Close()
			first, err := cur.Next()
			if err == nil {
				t.Fatalf("the failing split delivered %v", first)
			}
			if _, again := cur.Next(); again == nil || again.Error() != err.Error() {
				t.Fatalf("error not sticky: first %v, then %v", err, again)
			}
		})
	}
}

// TestProjectFoldsIntoPushdownScan: a Project on a pushed-down scan keeps
// the scan's pattern and window and resolves its columns against the
// scan's projection, on both layouts of a day; a Project over a format that
// cannot push down streams as it always has.
func TestProjectFoldsIntoPushdownScan(t *testing.T) {
	layouts, dirs := dayLayouts(t)
	fs := layouts[0].fs
	sel := filterOf(t, fs, dirs)
	sel.Columns = []string{"session_id", "name", "timestamp", "user_id"}
	for _, c := range layouts {
		d, err := dataflow.NewJob("fold", c.fs).LoadDirsSelective(dirs, dataflow.ClientEventFormat{}, sel)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Project("name", "ip"); !errors.Is(err, dataflow.ErrNoColumn) {
			t.Fatalf("%s: Project of a column the scan dropped: err = %v", c.name, err)
		}
		p, err := d.Project("timestamp", "name")
		if err != nil {
			t.Fatal(err)
		}
		q, err := p.Project("name")
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []struct {
			d    *dataflow.Dataset
			cols []string
		}{{p, []string{"timestamp", "name"}}, {q, []string{"name"}}} {
			want := sel
			want.Columns = r.cols
			wantRows, err := referenceScan(t, fs, dirs, want)
			if err != nil {
				t.Fatal(err)
			}
			got, err := r.d.Tuples()
			if err != nil || !reflect.DeepEqual(got, wantRows) || !reflect.DeepEqual([]string(r.d.Schema()), r.cols) {
				t.Fatalf("%s: Project(%v) gave %d rows %v, %v; the reference %d rows", c.name, r.cols, len(got), r.d.Schema(), err, len(wantRows))
			}
		}
	}

	raw := dataflow.RawRecordFormat{
		Columns: dataflow.Schema{"user_id", "session_id"},
		Decode: func(rec []byte) dataflow.Tuple {
			var e events.ClientEvent
			if err := e.Unmarshal(rec); err != nil {
				return nil
			}
			return dataflow.Tuple{e.UserID, e.SessionID}
		},
	}
	d, err := dataflow.NewJob("raw", fs).LoadDirsSelective(dirs, raw, dataflow.Selection{Columns: []string{"session_id", "user_id"}})
	if err != nil {
		t.Fatal(err)
	}
	p, err := d.Project("user_id")
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Tuples()
	if err != nil {
		t.Fatal(err)
	}
	all, err := referenceScan(t, fs, dirs, dataflow.Selection{Columns: []string{"user_id"}})
	if err != nil || !reflect.DeepEqual(got, all) {
		t.Fatalf("RawRecordFormat Project: %d rows, %v; the reference %d", len(got), err, len(all))
	}
}

// TestProjectFoldKeepsStats: the OrderBy leg's pipeline — a day's load,
// a projection, an external sort under a small budget — delivers the same
// rows and charges the same map tasks, records, bytes, shuffle and spill
// whether the projection folds into the scan or streams behind a Filter,
// serially and on a pool.
func TestProjectFoldKeepsStats(t *testing.T) {
	fs, _ := generatedDay(t)
	run := func(fold bool, workers int) ([]dataflow.Tuple, dataflow.Stats) {
		j := dataflow.NewJob("orderby", fs)
		j.Parallelism = workers
		j.MemoryBudget = 4 << 10
		j.SpillDir = t.TempDir()
		d, err := j.LoadClientEventsDay(benchDay)
		if err != nil {
			t.Fatal(err)
		}
		if !fold {
			d = d.Filter(func(dataflow.Tuple) bool { return true })
		}
		p, err := d.Project("timestamp", "session_id", "name")
		if err != nil {
			t.Fatal(err)
		}
		sorted, err := p.OrderBy("timestamp", true)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := sorted.Tuples()
		if err != nil {
			t.Fatal(err)
		}
		if err := sorted.Close(); err != nil {
			t.Fatal(err)
		}
		return rows, j.Stats()
	}
	for _, workers := range []int{1, 3} {
		want, wantStats := run(false, workers)
		got, gotStats := run(true, workers)
		if len(want) == 0 || wantStats.SpilledBytes == 0 {
			t.Fatalf("workers %d: %d rows, %+v — nothing sorted out of core", workers, len(want), wantStats)
		}
		if !reflect.DeepEqual(got, want) || gotStats != wantStats {
			t.Fatalf("workers %d: folded %d rows %+v, streamed %d rows %+v", workers, len(got), gotStats, len(want), wantStats)
		}
	}
}

// TestRowScanErrorNamesTheFile: a dataflow row scan books its files in the
// warehouse.scan series, and a part file whose gzip checksum is damaged
// fails the scan with recordio.ErrCorrupt and the file's path, whether the
// splits are read serially or on a pool.
func TestRowScanErrorNamesTheFile(t *testing.T) {
	fs, dirs := generatedDay(t)
	j := dataflow.NewJob("clean", fs)
	before := telemetry.Snapshot().Series
	d, err := j.LoadClientEventsDay(benchDay)
	if err != nil {
		t.Fatal(err)
	}
	n, err := d.Count()
	if err != nil {
		t.Fatal(err)
	}
	after := telemetry.Snapshot().Series
	st := j.Stats()
	for series, want := range map[string]int64{"warehouse.scan.files": int64(st.MapTasks), "warehouse.scan.records": n, "warehouse.scan.bytes": st.BytesRead} {
		if got := after[series] - before[series]; got != want || want == 0 {
			t.Errorf("%s moved by %d, want %d", series, got, want)
		}
	}

	infos, err := fs.Walk(dirs[len(dirs)/2])
	if err != nil {
		t.Fatal(err)
	}
	path := infos[0].Path
	data, err := fs.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	damaged := append([]byte(nil), data...)
	damaged[len(damaged)-6] ^= 0xff // inside the trailer's CRC-32
	if err := fs.Delete(path, false); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile(path, damaged); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		j := dataflow.NewJob("damaged", fs)
		j.Parallelism = workers
		d, err := j.LoadClientEventsDay(benchDay)
		if err != nil {
			t.Fatal(err)
		}
		_, err = d.Count()
		if !errors.Is(err, recordio.ErrCorrupt) || !strings.Contains(err.Error(), "warehouse: "+path+": ") {
			t.Fatalf("workers %d: err = %v, want recordio.ErrCorrupt naming %s", workers, err, path)
		}
	}
}

// FuzzRowTupleMatchesDecode: the fuzz bytes are the one record of a
// one-file row split, read with the full schema. Either the row reader and
// the reference both decode it, to equal tuples, or both fail, the reader
// with the reference's error and the file's path. Nothing panics.
func FuzzRowTupleMatchesDecode(f *testing.F) {
	cfg := workload.DefaultConfig(benchDay)
	cfg.Users, cfg.LoggedOutSessions = 3, 1
	evs, _ := workload.New(cfg).Generate()
	for _, e := range evs[:4] {
		msg := e.Marshal()
		f.Add(msg)
		for i := 0; i < len(msg); i += 7 {
			f.Add(msg[:i])
			flipped := append([]byte(nil), msg...)
			flipped[i] ^= 1 << (i % 8)
			f.Add(flipped)
		}
	}
	good, edges := edgeRecords()
	f.Add(good)
	for _, c := range edges {
		f.Add(c.rec)
	}
	const path = "/logs/fuzz/part-00000.gz"
	f.Fuzz(func(t *testing.T, rec []byte) {
		fs := hdfs.New(0)
		writeRowFile(t, fs, path, rec)
		var got []dataflow.Tuple
		err := dataflow.ClientEventFormat{}.ReadSplit(fs, dataflow.Split{Path: path}, func(tp dataflow.Tuple) error {
			got = append(got, tp)
			return nil
		})
		want, refErr := referenceTuple(rec)
		if refErr != nil {
			if err == nil || err.Error() != "warehouse: "+path+": "+refErr.Error() {
				t.Fatalf("read(%x) = %v, %v; the reference fails with %v", rec, got, err, refErr)
			}
			return
		}
		// want's details are nil for an empty map too (referenceTuple), as
		// the row reader's must be.
		if err != nil || len(got) != 1 || !reflect.DeepEqual(got[0], want) {
			t.Fatalf("read(%x) = %v, %v; the reference %v", rec, got, err, want)
		}
	})
}
