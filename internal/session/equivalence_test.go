package session

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"unilog/internal/chunk"
	"unilog/internal/events"
	"unilog/internal/hdfs"
	"unilog/internal/warehouse"
	"unilog/internal/workload"
)

// equivalenceEvents is a generated day plus the planted cases the ID core
// must get exactly as the string-keyed reference does: equal-timestamp
// ties broken by name, an equal (timestamp, name) tie whose first row in
// scan order supplies the session's IP, one session that continues across
// an hour boundary and one that the 30-minute gap splits across it.
func equivalenceEvents() []events.ClientEvent {
	cfg := workload.DefaultConfig(day)
	cfg.Users = 40
	cfg.LoggedOutSessions = 15
	evs, _ := workload.New(cfg).Generate()
	plant := func(user int64, sess, name, ip string, at time.Duration) {
		evs = append(evs, events.ClientEvent{
			Initiator: events.InitiatorClientUser,
			Name:      events.MustParseName(name),
			UserID:    user,
			SessionID: sess,
			IP:        ip,
			Timestamp: day.Add(at).UnixMilli(),
			Details:   map[string]string{"planted": sess},
		})
	}
	// Ties: three names at one instant, arriving in non-lexical order, and
	// the same name twice at one instant from two IPs.
	tie := 5*time.Hour + 10*time.Minute
	plant(900001, "tie", "web:home:timeline:stream:tweet:impression", "10.1.1.1", tie)
	plant(900001, "tie", "web:home:mentions:stream:avatar:profile_click", "11.1.1.1", tie)
	plant(900001, "tie", "iphone:home:timeline:stream:tweet:impression", "12.1.1.1", tie)
	plant(900001, "tie", "iphone:home:timeline:stream:tweet:impression", "13.1.1.1", tie)
	plant(900001, "tie", "web:search:results:stream:tweet:click", "10.1.1.1", tie+time.Second)
	// Across the 06:00 boundary, 20 minutes apart: one session.
	plant(900002, "joined", "web:home:timeline:stream:tweet:impression", "10.2.2.2", 5*time.Hour+50*time.Minute)
	plant(900002, "joined", "web:home:timeline:stream:tweet:expand", "10.2.2.2", 6*time.Hour+10*time.Minute)
	// Across it, 31 minutes apart: two sessions under one (user, id).
	plant(900003, "split", "web:home:timeline:stream:tweet:impression", "10.3.3.3", 5*time.Hour+45*time.Minute)
	plant(900003, "split", "web:home:timeline:stream:tweet:expand", "14.3.3.3", 6*time.Hour+16*time.Minute)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Timestamp < evs[j].Timestamp })
	return evs
}

// sealHours seals the listed hours of day into chunks of chunkRows, the way
// columnar.SealHourChunks does (which this package cannot import: columnar
// reaches session through dataflow). marker == false leaves the torn seal
// of a sealer that died before its completion marker.
func sealHours(t testing.TB, fs *hdfs.FS, chunkRows int, marker bool, hours ...int) {
	t.Helper()
	for _, h := range hours {
		hour := day.Add(time.Duration(h) * time.Hour)
		dir := warehouse.HourDir(events.Category, hour)
		if !fs.Exists(dir) {
			continue
		}
		var (
			b      chunk.Builder
			chunks int
		)
		flush := func() {
			if b.Rows() == 0 {
				return
			}
			if _, err := b.Flush(fs, dir, chunks); err != nil {
				t.Fatal(err)
			}
			chunks++
		}
		err := warehouse.ScanHourRecords(fs, events.Category, hour, func(_ string, rec []byte) error {
			if err := b.AddRecord(rec); err != nil {
				return err
			}
			if b.Rows() >= chunkRows {
				flush()
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		flush()
		if marker {
			if err := chunk.WriteSealed(fs, dir, chunks); err != nil {
				t.Fatal(err)
			}
		}
	}
}

var allHours = func() []int {
	hs := make([]int, 24)
	for h := range hs {
		hs[h] = h
	}
	return hs
}()

// equivalenceWarehouse writes the day as row files (small parts, so hours
// hold several) and applies one sealing layout.
func equivalenceWarehouse(t *testing.T, evs []events.ClientEvent, seal func(*testing.T, *hdfs.FS)) *hdfs.FS {
	t.Helper()
	fs := hdfs.New(0)
	w := warehouse.NewWriter(fs, events.Category)
	w.RollRecords = 97
	for i := range evs {
		if err := w.Append(&evs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	seal(t, fs)
	return fs
}

// dayOutput is everything a daily build leaves behind and returns.
type dayOutput struct {
	dict  *Dictionary
	hist  *Histogram
	stats DayStats
	recs  []Record
	files map[string][]byte // dictionary.gz and every sequence file, by path
}

func collectOutput(t *testing.T, fs *hdfs.FS, dict *Dictionary, hist *Histogram, stats DayStats) dayOutput {
	t.Helper()
	out := dayOutput{dict: dict, hist: hist, stats: stats, files: make(map[string][]byte)}
	if err := ScanDay(fs, day, func(r *Record) error { out.recs = append(out.recs, *r); return nil }); err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{warehouse.SessionDayDir(day), warehouse.DictionaryDir(day)} {
		infos, err := fs.Walk(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, fi := range infos {
			data, err := fs.ReadFile(fi.Path)
			if err != nil {
				t.Fatal(err)
			}
			out.files[fi.Path] = data
		}
	}
	return out
}

// removeOutput deletes what a daily build wrote, leaving the warehouse.
func removeOutput(t *testing.T, fs *hdfs.FS) {
	t.Helper()
	for _, dir := range []string{warehouse.SessionDayDir(day), warehouse.DictionaryDir(day)} {
		if err := fs.Delete(dir, true); err != nil {
			t.Fatal(err)
		}
	}
}

// decodeSamples turns serialized samples into events: Marshal walks the
// details map in random order, so bytes are not comparable, events are.
func decodeSamples(t *testing.T, h *Histogram) map[string][]events.ClientEvent {
	t.Helper()
	out := make(map[string][]events.ClientEvent, len(h.Samples))
	for name, raws := range h.Samples {
		for _, raw := range raws {
			var e events.ClientEvent
			if err := e.Unmarshal(raw); err != nil {
				t.Fatalf("sample of %s: %v", name, err)
			}
			out[name] = append(out[name], e)
		}
	}
	return out
}

func assertSameHistogram(t *testing.T, got, want *Histogram) {
	t.Helper()
	if got.Events != want.Events || got.SampleLimit != want.SampleLimit {
		t.Fatalf("histogram: %d events, limit %d; reference %d, %d", got.Events, got.SampleLimit, want.Events, want.SampleLimit)
	}
	if !reflect.DeepEqual(got.Counts, want.Counts) {
		t.Fatalf("histogram counts differ:\n got %v\nwant %v", got.Counts, want.Counts)
	}
	if gs, ws := decodeSamples(t, got), decodeSamples(t, want); !reflect.DeepEqual(gs, ws) {
		t.Fatalf("decoded samples differ:\n got %v\nwant %v", gs, ws)
	}
}

// TestBuildDayEqualsReference is the equivalence property: over every
// sealing layout and sample limit, the one-scan ID job leaves the same
// records, the same dictionary.gz bytes, the same sequence-file bytes, the
// same histogram and the same decoded samples as the two-row-scan
// reference — and HistogramDay alone agrees with the reference's first
// pass.
func TestBuildDayEqualsReference(t *testing.T) {
	evs := equivalenceEvents()
	layouts := []struct {
		name string
		seal func(*testing.T, *hdfs.FS)
	}{
		{"sealed", func(t *testing.T, fs *hdfs.FS) { sealHours(t, fs, 64, true, allHours...) }},
		{"unsealed", func(*testing.T, *hdfs.FS) {}},
		{"hybrid", func(t *testing.T, fs *hdfs.FS) { sealHours(t, fs, 50, true, 0, 1, 2, 3, 5, 8, 13, 21) }},
		{"torn seal", func(t *testing.T, fs *hdfs.FS) {
			sealHours(t, fs, 64, true, 6, 7, 8, 9, 10, 11)
			sealHours(t, fs, 64, false, 4, 5) // chunks, no marker: rows must serve these hours
		}},
	}
	for _, layout := range layouts {
		for _, sampleLimit := range []int{0, 3} {
			t.Run(fmt.Sprintf("%s/samples=%d", layout.name, sampleLimit), func(t *testing.T) {
				// One warehouse serves both: two written from the same events
				// differ in bytes, because Marshal walks details in map order.
				fs := equivalenceWarehouse(t, evs, layout.seal)
				refHist, err := refHistogramDay(fs, day, sampleLimit)
				if err != nil {
					t.Fatal(err)
				}
				dict, hist, stats, err := refBuildDay(fs, day, sampleLimit)
				if err != nil {
					t.Fatal(err)
				}
				want := collectOutput(t, fs, dict, hist, stats)
				removeOutput(t, fs)

				gotHist, err := HistogramDay(fs, day, sampleLimit)
				if err != nil {
					t.Fatal(err)
				}
				assertSameHistogram(t, gotHist, refHist)
				dict, hist, stats, err = BuildDay(fs, day, sampleLimit)
				if err != nil {
					t.Fatal(err)
				}
				got := collectOutput(t, fs, dict, hist, stats)

				if len(got.recs) == 0 || !reflect.DeepEqual(got.recs, want.recs) {
					t.Fatalf("%d records, reference %d, or contents differ", len(got.recs), len(want.recs))
				}
				if len(got.files) != len(want.files) {
					t.Fatalf("%d output files, reference %d", len(got.files), len(want.files))
				}
				for path, data := range want.files {
					if !bytes.Equal(got.files[path], data) {
						t.Fatalf("%s differs from the reference's bytes", path)
					}
				}
				assertSameHistogram(t, got.hist, want.hist)
				if got.stats != want.stats {
					t.Fatalf("stats %+v, reference %+v", got.stats, want.stats)
				}
				if !reflect.DeepEqual(got.dict.Names(), want.dict.Names()) {
					t.Fatal("returned dictionaries differ")
				}
			})
		}
	}
}

// TestPlantedSessions pins what the planted cases mean, so the equivalence
// above cannot hold vacuously: the tie orders by name and takes the first
// scanned IP, the 20-minute pair is one session across the hour boundary,
// the 31-minute pair is two.
func TestPlantedSessions(t *testing.T) {
	fs := equivalenceWarehouse(t, equivalenceEvents(), func(t *testing.T, fs *hdfs.FS) { sealHours(t, fs, 64, true, allHours...) })
	dict, _, _, err := BuildDay(fs, day, 0)
	if err != nil {
		t.Fatal(err)
	}
	bySession := make(map[string][]Record)
	if err := ScanDay(fs, day, func(r *Record) error {
		bySession[r.SessionID] = append(bySession[r.SessionID], *r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	tie := bySession["tie"]
	if len(tie) != 1 {
		t.Fatalf("tie: %d sessions, want 1", len(tie))
	}
	names, err := dict.Decode(tie[0].Sequence)
	if err != nil {
		t.Fatal(err)
	}
	wantNames := []string{
		"iphone:home:timeline:stream:tweet:impression",
		"iphone:home:timeline:stream:tweet:impression",
		"web:home:mentions:stream:avatar:profile_click",
		"web:home:timeline:stream:tweet:impression",
		"web:search:results:stream:tweet:click",
	}
	if !reflect.DeepEqual(names, wantNames) {
		t.Fatalf("tie sequence = %v, want %v", names, wantNames)
	}
	if tie[0].IP != "12.1.1.1" {
		t.Fatalf("tie IP = %s, want the first scanned row of the first-sorting name, 12.1.1.1", tie[0].IP)
	}
	if got := bySession["joined"]; len(got) != 1 || got[0].EventCount() != 2 || got[0].Duration != 20*60 {
		t.Fatalf("joined: %+v, want one 2-event 1200 s session", got)
	}
	split := bySession["split"]
	if len(split) != 2 || split[0].IP != "10.3.3.3" || split[1].IP != "14.3.3.3" || split[0].Start >= split[1].Start {
		t.Fatalf("split: %+v, want two sessions in start order, each with its own IP", split)
	}
}

// TestBuildDayRerun: a built day answers ErrDayBuilt without reading a
// byte, and leaves what is there alone.
func TestBuildDayRerun(t *testing.T) {
	fs := equivalenceWarehouse(t, equivalenceEvents(), func(t *testing.T, fs *hdfs.FS) { sealHours(t, fs, 64, true, allHours...) })
	dict, hist, stats, err := BuildDay(fs, day, 0)
	if err != nil {
		t.Fatal(err)
	}
	first := collectOutput(t, fs, dict, hist, stats)
	before := fs.Snapshot()
	if _, _, _, err := BuildDay(fs, day, 0); !errors.Is(err, ErrDayBuilt) {
		t.Fatalf("second BuildDay: %v, want ErrDayBuilt", err)
	}
	if after := fs.Snapshot(); after != before {
		t.Fatalf("second BuildDay touched the filesystem: %+v, before %+v", after, before)
	}
	if again := collectOutput(t, fs, dict, hist, stats); !reflect.DeepEqual(again.files, first.files) {
		t.Fatal("second BuildDay changed the day's files")
	}
}

// TestBuildDayAfterDeadRun: session files without a dictionary are the
// remains of a run that died before finishing; the next run removes them
// and builds the day a clean run builds.
func TestBuildDayAfterDeadRun(t *testing.T) {
	fs := equivalenceWarehouse(t, equivalenceEvents(), func(t *testing.T, fs *hdfs.FS) { sealHours(t, fs, 64, true, allHours...) })
	dict, hist, stats, err := BuildDay(fs, day, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := collectOutput(t, fs, dict, hist, stats)
	removeOutput(t, fs)

	for _, part := range []string{"/part-00000.gz", "/part-00007.gz"} {
		if err := fs.WriteFile(warehouse.SessionDayDir(day)+part, []byte("half a file")); err != nil {
			t.Fatal(err)
		}
	}
	dict, hist, stats, err = BuildDay(fs, day, 0)
	if err != nil {
		t.Fatalf("BuildDay over a dead run's files: %v", err)
	}
	got := collectOutput(t, fs, dict, hist, stats)
	if !reflect.DeepEqual(got.files, want.files) {
		t.Fatal("rebuild after a dead run differs from a clean build")
	}
}
