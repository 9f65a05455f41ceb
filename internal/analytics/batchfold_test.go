package analytics

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sort"
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

// The planted names: no generated event carries them, so a query on one
// sees exactly the planted case.
const (
	tieA    = "web:plant:tie:stream:a:click"
	tieB    = "web:plant:tie:stream:b:click"
	tieC    = "web:plant:tie:stream:c:click"
	tieX    = "web:plant:tie:stream:x:impression"
	crossA  = "web:plant:cross:stream:tweet:impression"
	crossB  = "web:plant:cross:stream:tweet:expand"
	gapName = "web:plant:gap:stream:tweet:impression"
	gapOver = "web:plant:gap:stream:tweet:expand"
)

// unnamedEvents is how many messages without a name field the planted day
// holds, all in one row file of hour 07.
const unnamedEvents = 3

// plantedEvents is a generated day plus the cases the batch folds must get
// as the tuple references do:
//   - one session of 31 events at a single instant, tieA, tieB and tieC ten
//     tieX apart in scan order, which a 256-byte combiner splits across
//     flushes: only scan order among equal timestamps takes the funnel
//     (tieA, tieB, tieC) to its end;
//   - one session continuing across the 06:00 boundary, 20 minutes apart,
//     which small chunks also split across chunks;
//   - one (user, session id) whose events lie exactly 30 minutes apart (one
//     session) and then 30 minutes and a millisecond (a second one).
func plantedEvents() []events.ClientEvent {
	cfg := workload.DefaultConfig(day)
	cfg.Users = 40
	cfg.LoggedOutSessions = 20
	cfg.Seed = 32
	evs, _ := workload.New(cfg).Generate()
	plant := func(user int64, sess, name string, at time.Duration) {
		evs = append(evs, events.ClientEvent{
			Initiator: events.InitiatorClientUser,
			Name:      events.MustParseName(name),
			UserID:    user,
			SessionID: sess,
			IP:        "10.9.9.9",
			Timestamp: day.Add(at).UnixMilli(),
		})
	}
	tie := 9*time.Hour + 30*time.Minute
	for _, name := range []string{tieA, tieB, tieC} {
		for i := 0; i < 10; i++ {
			plant(910001, "tie", tieX, tie)
		}
		plant(910001, "tie", name, tie)
	}
	plant(910001, "tie", tieX, tie)
	plant(910002, "cross", crossA, 5*time.Hour+50*time.Minute)
	plant(910002, "cross", crossB, 6*time.Hour+10*time.Minute)
	plant(910003, "gap", gapName, 11*time.Hour)
	plant(910003, "gap", gapName, 11*time.Hour+30*time.Minute)
	plant(910003, "gap", gapOver, 12*time.Hour+time.Millisecond)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Timestamp < evs[j].Timestamp })
	return evs
}

// unnamedRecord encodes a client event without the name field, which
// Marshal never writes.
func unnamedRecord(ts int64) []byte {
	enc := thrift.NewCompactEncoder()
	enc.WriteStructBegin()
	enc.WriteFieldBegin(thrift.I64, 3)
	enc.WriteI64(910004)
	enc.WriteFieldBegin(thrift.STRING, 4)
	enc.WriteString("unnamed")
	enc.WriteFieldBegin(thrift.STRING, 5)
	enc.WriteString("10.9.9.9")
	enc.WriteFieldBegin(thrift.I64, 6)
	enc.WriteI64(ts)
	enc.WriteFieldStop()
	enc.WriteStructEnd()
	return append([]byte(nil), enc.Bytes()...)
}

// plantedWarehouse writes the planted day as row files of at most 400
// records, the unnamed messages as one more file, and seals the hours seal
// picks into chunks of 64 rows.
func plantedWarehouse(t testing.TB, evs []events.ClientEvent, seal func(hour int) bool) *hdfs.FS {
	t.Helper()
	fs := hdfs.New(0)
	w := warehouse.NewWriter(fs, events.Category)
	w.RollRecords = 400
	for i := range evs {
		if err := w.Append(&evs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	gz := recordio.NewGzipWriter(&buf)
	for i := 0; i < unnamedEvents; i++ {
		if err := gz.Append(unnamedRecord(day.Add(7*time.Hour + time.Duration(i)*time.Minute).UnixMilli())); err != nil {
			t.Fatal(err)
		}
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile(warehouse.HourDir(events.Category, day.Add(7*time.Hour))+"/part-unnamed.gz", buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	for h := 0; h < 24; h++ {
		if seal(h) {
			if _, err := columnar.SealHourChunks(fs, events.Category, day.Add(time.Duration(h)*time.Hour), 64); err != nil {
				t.Fatal(err)
			}
		}
	}
	return fs
}

var layouts = []struct {
	name string
	seal func(hour int) bool
}{
	{"rows", func(int) bool { return false }},
	{"sealed", func(int) bool { return true }},
	{"half-sealed", func(h int) bool { return h%2 == 0 }},
}

// TestBatchFoldsMatchTupleReferences is the equivalence battery: over row
// files, a sealed day and a half-sealed day, at budgets that flush the raw
// combiner every few events, every few hundred and not at all, Rollups,
// CountRawDay (wildcard patterns and a regular expression that takes the
// unnamed message's ":::::") and FunnelRawDay (the generated signup funnel
// and the planted tie) answer what the tuple-based references answer.
func TestBatchFoldsMatchTupleReferences(t *testing.T) {
	evs := plantedEvents()
	var matchers []Matcher
	for _, p := range []string{"*:profile_click", "web:*", "web:home:*", "*:impression", tieX, "web:plant:*"} {
		m, err := MatcherFromPattern(p)
		if err != nil {
			t.Fatal(err)
		}
		matchers = append(matchers, m)
	}
	re, err := MatcherFromRegexp(`^(:::::|iphone:.*:click)$`)
	if err != nil {
		t.Fatal(err)
	}
	matchers = append(matchers, re)
	exact := func(names ...string) []Matcher {
		ms := make([]Matcher, len(names))
		for i, n := range names {
			ms[i] = func(s string) bool { return s == n }
		}
		return ms
	}
	funnels := [][]Matcher{exact(workload.FunnelStages("web")...), exact(tieA, tieB, tieC)}

	for _, layout := range layouts {
		fs := plantedWarehouse(t, evs, layout.seal)
		for _, budget := range []int64{0, 256, 4 << 10, 32 << 10} {
			cell := fmt.Sprintf("%s/budget=%d", layout.name, budget)
			job := func(name string) *dataflow.Job {
				j := dataflow.NewJob(name, fs)
				j.MemoryBudget = budget
				j.SpillDir = t.TempDir()
				return j
			}
			got, err := Rollups(job("rollups"), day)
			if err != nil {
				t.Fatalf("%s: Rollups: %v", cell, err)
			}
			want, err := refRollups(job("ref-rollups"), day)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) == 0 || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: rollups (%d rows) differ from the reference's (%d)", cell, len(got), len(want))
			}
			for i, m := range matchers {
				got, err := CountRawDay(job("rawcount"), day, m)
				if err != nil {
					t.Fatalf("%s: CountRawDay: %v", cell, err)
				}
				want, err := refCountRawDay(job("ref-rawcount"), day, m)
				if err != nil {
					t.Fatal(err)
				}
				if got != want || want.TotalSessions == 0 {
					t.Fatalf("%s: matcher %d counts %+v, reference %+v", cell, i, got, want)
				}
			}
			for i, f := range funnels {
				got, err := FunnelRawDay(job("funnel"), day, f)
				if err != nil {
					t.Fatalf("%s: FunnelRawDay: %v", cell, err)
				}
				want, err := refFunnelRawDay(job("ref-funnel"), day, f)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: funnel %d = %+v, reference %+v", cell, i, got, want)
				}
			}
		}
	}
}

// TestPlantedRawSessions pins what the planted cases mean, so the battery
// cannot hold vacuously: the tie's funnel runs to the end through a
// combiner that flushes mid-tie, the hour-crossing pair is one session,
// exactly 30 minutes apart is one session and a millisecond more is two,
// and the unnamed messages count under ":::::" but roll up nowhere.
func TestPlantedRawSessions(t *testing.T) {
	evs := plantedEvents()
	exact := func(name string) Matcher { return func(s string) bool { return s == name } }
	for _, layout := range layouts {
		fs := plantedWarehouse(t, evs, layout.seal)
		j := dataflow.NewJob("funnel", fs)
		j.MemoryBudget = 256
		j.SpillDir = t.TempDir()
		rep, err := FunnelRawDay(j, day, []Matcher{exact(tieA), exact(tieB), exact(tieC)})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Completed[2] != 1 {
			t.Fatalf("%s: tie funnel %v, want the planted session through all three stages", layout.name, rep.Completed)
		}
		for _, c := range []struct {
			name string
			want CountReport
		}{
			{crossB, CountReport{Events: 1, Sessions: 1}},
			{gapName, CountReport{Events: 2, Sessions: 1}},
			{":::::", CountReport{Events: unnamedEvents, Sessions: 1}},
		} {
			rep, err := CountRawDay(dataflow.NewJob("count", fs), day, exact(c.name))
			if err != nil {
				t.Fatal(err)
			}
			if rep.Events != c.want.Events || rep.Sessions != c.want.Sessions {
				t.Fatalf("%s: %s counts %+v, want %d events in %d session", layout.name, c.name, rep, c.want.Events, c.want.Sessions)
			}
		}
		gap, err := CountRawDay(dataflow.NewJob("gap", fs), day, func(s string) bool { return s == gapName || s == gapOver })
		if err != nil {
			t.Fatal(err)
		}
		if gap.Sessions != 2 {
			t.Fatalf("%s: the gap pair spans %d sessions, want 2 (30 min joins, 30 min + 1 ms splits)", layout.name, gap.Sessions)
		}
		cross, err := CountRawDay(dataflow.NewJob("cross", fs), day, func(s string) bool { return s == crossA || s == crossB })
		if err != nil {
			t.Fatal(err)
		}
		if cross.Events != 2 || cross.Sessions != 1 {
			t.Fatalf("%s: the hour-crossing pair counts %+v, want one session", layout.name, cross)
		}
		roll, err := Rollups(dataflow.NewJob("rollups", fs), day)
		if err != nil {
			t.Fatal(err)
		}
		var total int64
		for k, n := range roll {
			if k.Level == 0 {
				total += n
			}
		}
		if total != int64(len(evs)) {
			t.Fatalf("%s: rollups count %d events, want %d named ones", layout.name, total, len(evs))
		}
	}
}

// What the tuple-based Rollups and CountRawDay charged over
// TestBatchFoldsMeterLikeTheTupleScan's day, at any Parallelism, when every
// section of a chunk was a file of its own, less each chunk's meta section:
// since a sealed hour's manifest holds every chunk's zone map and section
// table, a chunk's load reads neither its meta nor its table, and reads the
// last byte of its image instead, to check the image's length.
const (
	goldenRowFiles    = 22
	goldenChunks      = 22
	goldenEvents      = 5361
	goldenMetaBytes   = 3391                                   // the 22 chunks' meta sections
	goldenRollupBytes = 56195 - goldenMetaBytes + goldenChunks // name, ip and logged_in sections, a last byte each
	goldenRawBytes    = 74708 - goldenMetaBytes + goldenChunks // name, user_id, session_id and timestamp sections, a last byte each
)

// TestBatchFoldsMeterLikeTheTupleScan: on a sealed day and on a row-file
// day, Rollups and CountRawDay charge the map tasks, records and bytes read
// and the chunks scanned the tuple-based jobs charged — the figures above
// were read off those jobs before they were retired (a row file's bytes
// vary with the details map's marshal order, so there the in-run reference
// stands in for the figure).
func TestBatchFoldsMeterLikeTheTupleScan(t *testing.T) {
	cfg := workload.DefaultConfig(day)
	cfg.Users = 60
	cfg.LoggedOutSessions = 40
	cfg.Seed = 18
	evs, _ := workload.New(cfg).Generate()
	fs := hdfs.New(0)
	if err := workload.WriteWarehouse(fs, evs); err != nil {
		t.Fatal(err)
	}
	m, err := MatcherFromPattern("*:profile_click")
	if err != nil {
		t.Fatal(err)
	}
	type cost struct {
		dataflow.Stats
		chunks int64
	}
	scanned := telemetry.GetCounter("columnar.chunks.scanned")
	run := func(name string, job func(*dataflow.Job) error) cost {
		t.Helper()
		j := dataflow.NewJob(name, fs)
		before := scanned.Value()
		if err := job(j); err != nil {
			t.Fatal(err)
		}
		return cost{j.Stats(), scanned.Value() - before}
	}
	jobs := []struct {
		name     string
		new, ref func(*dataflow.Job) error
	}{
		{"rollups",
			func(j *dataflow.Job) error { _, err := Rollups(j, day); return err },
			func(j *dataflow.Job) error { _, err := refRollups(j, day); return err }},
		{"rawcount",
			func(j *dataflow.Job) error { _, err := CountRawDay(j, day, m); return err },
			func(j *dataflow.Job) error { _, err := refCountRawDay(j, day, m); return err }},
	}
	golden := map[string]cost{
		"rows/rollups":    {Stats: dataflow.Stats{MapTasks: goldenRowFiles, RecordsRead: goldenEvents}},
		"rows/rawcount":   {Stats: dataflow.Stats{MapTasks: goldenRowFiles, RecordsRead: goldenEvents}},
		"sealed/rollups":  {Stats: dataflow.Stats{MapTasks: goldenChunks, RecordsRead: goldenEvents, BytesRead: goldenRollupBytes}, chunks: goldenChunks},
		"sealed/rawcount": {Stats: dataflow.Stats{MapTasks: goldenChunks, RecordsRead: goldenEvents, BytesRead: goldenRawBytes}, chunks: goldenChunks},
	}
	for _, layout := range []string{"rows", "sealed"} {
		if layout == "sealed" {
			if _, err := columnar.SealDay(fs, events.Category, day); err != nil {
				t.Fatal(err)
			}
		}
		for _, jb := range jobs {
			cell := layout + "/" + jb.name
			got, ref := run(jb.name, jb.new), run("ref-"+jb.name, jb.ref)
			want := golden[cell]
			if layout == "rows" {
				want.BytesRead = ref.BytesRead
			}
			if got.MapTasks != want.MapTasks || got.RecordsRead != want.RecordsRead || got.BytesRead != want.BytesRead || got.chunks != want.chunks {
				t.Errorf("%s: %d map tasks, %d records, %d bytes, %d chunks scanned; the tuple-based job %d, %d, %d, %d",
					cell, got.MapTasks, got.RecordsRead, got.BytesRead, got.chunks, want.MapTasks, want.RecordsRead, want.BytesRead, want.chunks)
			}
			if ref.MapTasks != want.MapTasks || ref.RecordsRead != want.RecordsRead || ref.chunks != want.chunks {
				t.Errorf("%s: the reference charged %+v, not the tuple-based jobs' figures", cell, ref)
			}
		}
	}
}

// sessionIDEnd returns where the session_id section of a chunk image ends:
// the image opens with a CRC record of the magic, the version, the section
// count and each section's length, the meta's first.
func sessionIDEnd(t *testing.T, img []byte) int {
	table, rest, err := recordio.NextCRCRecord(img)
	if err != nil {
		t.Fatal(err)
	}
	c := recordio.NewCursor(table)
	c.Uvarint("magic")
	c.Uvarint("version")
	c.Uvarint("sections")
	end := len(img) - len(rest)
	for _, section := range append([]string{"meta"}, chunk.ColumnNames[:]...) {
		end += int(c.Uvarint("section length"))
		if section == "session_id" {
			break
		}
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	return end
}

// TestBatchPathErrorsNameTheFile: a damaged row file and a damaged chunk
// column fail both batch folds with recordio.ErrCorrupt and the file's path.
func TestBatchPathErrorsNameTheFile(t *testing.T) {
	evs := plantedEvents()
	m, err := MatcherFromPattern("*:impression")
	if err != nil {
		t.Fatal(err)
	}
	hour := warehouse.HourDir(events.Category, day.Add(10*time.Hour))
	for _, c := range []struct {
		layout string
		seal   func(int) bool
		file   string
		end    func([]byte) int // where the last record of the damaged part ends
	}{
		{"rows", func(int) bool { return false }, hour + "/part-", func(b []byte) int { return len(b) }},
		{"sealed", func(int) bool { return true }, hour + "/_col-00001.col", func(b []byte) int { return sessionIDEnd(t, b) }},
	} {
		fs := plantedWarehouse(t, evs, c.seal)
		infos, err := fs.Walk(hour)
		if err != nil {
			t.Fatal(err)
		}
		path := ""
		for _, fi := range infos {
			if strings.HasPrefix(fi.Path, c.file) {
				path = fi.Path
				break
			}
		}
		data, err := fs.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %q: %v", c.layout, path, err)
		}
		data[c.end(data)-6] ^= 0xff // a gzip trailer's CRC-32, or a CRC frame's payload
		if err := fs.Delete(path, false); err != nil {
			t.Fatal(err)
		}
		if err := fs.WriteFile(path, data); err != nil {
			t.Fatal(err)
		}
		_, rerr := Rollups(dataflow.NewJob("rollups", fs), day)
		_, cerr := CountRawDay(dataflow.NewJob("rawcount", fs), day, m)
		if c.layout == "sealed" {
			rerr = nil // the rollup reads no session_id
		}
		for _, err := range []error{rerr, cerr} {
			if err != nil && (!errors.Is(err, recordio.ErrCorrupt) || !strings.Contains(err.Error(), path)) {
				t.Fatalf("%s: err = %v, want recordio.ErrCorrupt naming %s", c.layout, err, path)
			}
		}
		if cerr == nil || (c.layout == "rows" && rerr == nil) {
			t.Fatalf("%s: the damaged %s went unnoticed: %v, %v", c.layout, path, rerr, cerr)
		}
	}
}
