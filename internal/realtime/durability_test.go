package realtime

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"unilog/internal/events"
	"unilog/internal/hdfs"
	"unilog/internal/recordio"
	"unilog/internal/scribe"
	"unilog/internal/warehouse"
	"unilog/internal/workload"
)

// durCfg keeps durability tests deterministic: every batch fsyncs, and the
// automatic snapshotter never fires on its own (tests cut snapshots
// explicitly).
func durCfg(shards int) Config {
	return Config{
		Shards:        shards,
		FsyncEvery:    1,
		SnapshotEvery: time.Hour,
	}
}

// feedBoth streams one deterministic mixed workload into any number of
// counters: several names, minutes, countries, and login states, n events
// total.
func feedBoth(n int, cs ...*Counter) {
	names := []string{
		"web:home:mentions:stream:avatar:profile_click",
		"web:home:timeline:stream:tweet:impression",
		"web:search:results:stream:tweet:impression",
		"iphone:home:timeline:stream:tweet:impression",
		"android:profile:header:card:follow:click",
	}
	countries := []string{"us", "jp", "uk", "br"}
	for i := 0; i < n; i++ {
		e := ev(names[i%len(names)], t0.Add(time.Duration(i%120)*time.Minute),
			int64(i%3), countries[i%len(countries)])
		for _, c := range cs {
			c.Ingest(e)
		}
	}
}

// sameAnswers asserts two counters answer a battery of queries over the
// day identically: full rollup tables, path sums, per-minute series,
// top-K, and the observed total.
func sameAnswers(t *testing.T, got, want *Counter) {
	t.Helper()
	from := t0.Truncate(24 * time.Hour)
	to := from.Add(24 * time.Hour)
	if g, w := got.Stats().Observed, want.Stats().Observed; g != w {
		t.Errorf("Observed = %d, want %d", g, w)
	}
	if g, w := got.RollupSnapshot(from, to), want.RollupSnapshot(from, to); !reflect.DeepEqual(g, w) {
		t.Errorf("RollupSnapshot diverged: %d rows vs %d rows", len(g), len(w))
	}
	for _, path := range []string{"web", "web:home", "web:home:mentions", "iphone", "android",
		"web:home:mentions:stream:avatar:profile_click", "ipad"} {
		if g, w := got.PathSum(path, from, to), want.PathSum(path, from, to); g != w {
			t.Errorf("PathSum(%q) = %d, want %d", path, g, w)
		}
	}
	if g, w := got.Series("web", t0, t0.Add(2*time.Hour)), want.Series("web", t0, t0.Add(2*time.Hour)); !reflect.DeepEqual(g, w) {
		t.Errorf("Series diverged: %v vs %v", g, w)
	}
	if g, w := got.TopK("", 5, from, to), want.TopK("", 5, from, to); !reflect.DeepEqual(g, w) {
		t.Errorf("TopK diverged: %v vs %v", g, w)
	}
	if g, w := got.RollupTotal(4, "web:*:*:*:*:impression", from, to), want.RollupTotal(4, "web:*:*:*:*:impression", from, to); g != w {
		t.Errorf("RollupTotal = %d, want %d", g, w)
	}
}

// TestKillAndRecoverMatchesNeverCrashed is the core durability guarantee:
// a durable counter that snapshots mid-stream and then dies without a
// graceful close must, after Open, answer every query exactly like a
// memory-only counter that never went down.
func TestKillAndRecoverMatchesNeverCrashed(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, durCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	m := New(Config{Shards: 3})
	t.Cleanup(m.Close)

	feedBoth(400, d, m)
	d.Sync()
	if err := d.Snapshot(); err != nil {
		t.Fatalf("mid-stream snapshot: %v", err)
	}
	feedBoth(300, d, m) // tail lives only in the WAL
	d.Sync()
	m.Sync()
	d.Crash()

	r, err := Open(dir, durCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	sameAnswers(t, r, m)
	if r.Stats().SnapshotErrors != 0 || r.Stats().WALErrors != 0 {
		t.Errorf("recovery reported errors: %+v", r.Stats())
	}

	// A graceful Close writes a final snapshot and retires the WAL; the
	// next Open loads one file and replays nothing.
	r.Close()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 0 {
		t.Errorf("WAL not retired after Close: %v", segs)
	}
	r2, err := Open(dir, durCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	sameAnswers(t, r2, m)
}

// TestRecoverFromWALOnly covers the no-snapshot path: everything lives in
// the WAL tail.
func TestRecoverFromWALOnly(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, durCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	m := New(Config{Shards: 2})
	t.Cleanup(m.Close)
	feedBoth(250, d, m)
	d.Sync()
	m.Sync()
	d.Crash()

	r, err := Open(dir, durCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Crash()
	sameAnswers(t, r, m)
}

// TestRecoverAcrossConfigChange replays a log written by a wider counter
// into a narrower one: totals are distributive, so resharding at restart
// must not change any answer.
func TestRecoverAcrossConfigChange(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, durCfg(4))
	if err != nil {
		t.Fatal(err)
	}
	m := New(Config{Shards: 2})
	t.Cleanup(m.Close)
	feedBoth(200, d, m)
	d.Sync()
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	feedBoth(100, d, m)
	d.Sync()
	m.Sync()
	d.Crash()

	r, err := Open(dir, durCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Crash()
	sameAnswers(t, r, m)
}

// oneShardScenario ingests n single-event batches (one WAL record each)
// into a 1-shard durable counter and crashes it, returning the lone live
// WAL segment for the corruption tests to damage.
func oneShardScenario(t testing.TB, dir string, n int) string {
	t.Helper()
	d, err := Open(dir, durCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		d.Ingest(ev("web:home:timeline:stream:tweet:impression", t0.Add(time.Duration(i)*time.Second), 1, "us"))
	}
	d.Sync()
	d.Crash()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want exactly one segment, got %v (%v)", segs, err)
	}
	return segs[0]
}

func pathSumAll(c *Counter) int64 {
	day := t0.Truncate(24 * time.Hour)
	return c.PathSum("web", day, day.Add(24*time.Hour))
}

// TestRecoverTornFinalRecord cuts bytes off the WAL tail — the torn final
// write of a crash — and requires recovery to keep the intact prefix.
func TestRecoverTornFinalRecord(t *testing.T) {
	dir := t.TempDir()
	seg := oneShardScenario(t, dir, 10)
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir, durCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	if got := pathSumAll(r); got != 9 {
		t.Errorf("recovered %d events, want 9 (torn final record dropped)", got)
	}
	if got := r.Stats().Observed; got != 9 {
		t.Errorf("Observed = %d, want 9", got)
	}
	if r.Stats().WALErrors == 0 {
		t.Error("torn tail not surfaced in WALErrors")
	}
	// Recovery is stable: crash and reopen again without new ingestion
	// and nothing double counts.
	r.Crash()
	r2, err := Open(dir, durCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Crash()
	if got := pathSumAll(r2); got != 9 {
		t.Errorf("second recovery = %d events, want 9", got)
	}
}

// TestRecoverFlippedCRCByte flips one byte mid-log: replay must stop at
// the damaged record, keep the prefix, and stay stable across reopens.
func TestRecoverFlippedCRCByte(t *testing.T) {
	dir := t.TempDir()
	seg := oneShardScenario(t, dir, 10)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)*2/5] ^= 0xFF
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir, durCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	got := pathSumAll(r)
	if got >= 10 || got != r.Stats().Observed {
		t.Errorf("recovered %d events (observed %d), want a consistent prefix < 10", got, r.Stats().Observed)
	}
	if r.Stats().WALErrors == 0 {
		t.Error("corruption not surfaced in WALErrors")
	}
	r.Crash()
	r2, err := Open(dir, durCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Crash()
	if again := pathSumAll(r2); again != got {
		t.Errorf("second recovery = %d, first = %d — recovery not stable", again, got)
	}
}

// TestRecoverSkipsPreEpochWALRecord: a segment written before observe
// checked the minute can hold a record that used to kill the process on
// every Open — the first one did, replayed into an empty ring; behind a
// good record the same minute was dropped as past retention. Replay must
// count both Invalid and carry on, every time.
func TestRecoverSkipsPreEpochWALRecord(t *testing.T) {
	dir := t.TempDir()
	tab := newSymtab()
	name, err := events.Lookup("web:home:timeline:stream:tweet:impression")
	if err != nil {
		t.Fatal(err)
	}
	cid := tab.country("us")
	minute := t0.Unix() / 60
	w, err := openWAL(dir, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range [][]obs{
		{{minute: -5, name: name, country: cid}},
		{{minute: minute, name: name, country: cid}, {minute: 0, name: name, country: cid}, {minute: minute + 1, name: name, country: cid}},
	} {
		rec, _, _ := w.encodeBatch(nil, batch, nil, tab)
		if err := w.cw.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		r, err := Open(dir, durCfg(1))
		if err != nil {
			t.Fatal(err)
		}
		if st := r.Stats(); pathSumAll(r) != 2 || st.Observed != 2 || st.Invalid != 2 || st.DroppedOld != 0 || st.WALErrors != 0 {
			t.Errorf("round %d: PathSum %d, stats %+v; want both good events, Invalid 2, nothing dropped, no WAL error",
				round, pathSumAll(r), st)
		}
		r.Crash()
	}
}

// snapThenTail builds the snapshot-plus-WAL-tail layout: 5 events covered
// by a snapshot, 4 more only in the log, then a crash.
func snapThenTail(t testing.TB, dir string) string {
	t.Helper()
	d, err := Open(dir, durCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		d.Ingest(ev("web:home:timeline:stream:tweet:impression", t0, 1, "us"))
	}
	d.Sync()
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		d.Ingest(ev("web:home:timeline:stream:tweet:impression", t0.Add(time.Minute), 1, "us"))
	}
	d.Sync()
	d.Crash()
	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("want exactly one snapshot, got %v (%v)", snaps, err)
	}
	return snaps[0]
}

// TestRecoverDamagedSnapshot: a missing, empty, or bit-flipped snapshot
// must not error or double count — recovery falls back to whatever WAL
// tail survives (here the 4 post-snapshot events; the 5 covered ones went
// down with the snapshot).
func TestRecoverDamagedSnapshot(t *testing.T) {
	cases := []struct {
		name   string
		damage func(t *testing.T, snap string)
	}{
		{"missing", func(t *testing.T, snap string) {
			if err := os.Remove(snap); err != nil {
				t.Fatal(err)
			}
		}},
		{"empty", func(t *testing.T, snap string) {
			if err := os.Truncate(snap, 0); err != nil {
				t.Fatal(err)
			}
		}},
		{"flipped-byte", func(t *testing.T, snap string) {
			data, err := os.ReadFile(snap)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)/2] ^= 0xFF
			if err := os.WriteFile(snap, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"truncated", func(t *testing.T, snap string) {
			fi, err := os.Stat(snap)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(snap, fi.Size()/2); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			snap := snapThenTail(t, dir)
			tc.damage(t, snap)
			r, err := Open(dir, durCfg(1))
			if err != nil {
				t.Fatalf("recovery errored instead of degrading: %v", err)
			}
			defer r.Crash()
			if got := pathSumAll(r); got != 4 {
				t.Errorf("recovered %d events, want the 4 surviving WAL-tail events", got)
			}
		})
	}

	// Control: with the snapshot intact the same layout recovers all 9.
	t.Run("intact", func(t *testing.T) {
		dir := t.TempDir()
		snapThenTail(t, dir)
		r, err := Open(dir, durCfg(1))
		if err != nil {
			t.Fatal(err)
		}
		defer r.Crash()
		if got := pathSumAll(r); got != 9 {
			t.Errorf("recovered %d events, want 9", got)
		}
	})
}

// TestRecoverFallsBackToPreviousSnapshot: pruning keeps the previous
// snapshot around precisely so that a newest snapshot damaged on disk
// degrades to "older snapshot plus surviving WAL tail", not to an empty
// counter.
func TestRecoverFallsBackToPreviousSnapshot(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, durCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	ingest := func(n int, at time.Time) {
		for i := 0; i < n; i++ {
			d.Ingest(ev("web:home:timeline:stream:tweet:impression", at, 1, "us"))
		}
		d.Sync()
	}
	ingest(3, t0) // phase A, covered by snapshot 1
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	ingest(2, t0.Add(time.Minute)) // phase B, covered only by snapshot 2
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	ingest(4, t0.Add(2*time.Minute)) // phase C, WAL tail only
	d.Crash()

	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if err != nil || len(snaps) != 2 {
		t.Fatalf("want the newest and previous snapshots on disk, got %v (%v)", snaps, err)
	}
	newest := snaps[len(snaps)-1]
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir, durCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Crash()
	// Snapshot 1 restores phase A; phase B's segments were pruned when
	// snapshot 2 was cut, so B is lost with it; phase C's tail segments
	// sit above snapshot 2's boundary and replay cleanly. 3 + 4, never
	// 9 (that would double count) and never 4 alone (that would mean no
	// fallback).
	if got := pathSumAll(r); got != 7 {
		t.Errorf("recovered %d events, want 7 (snapshot-1 state + WAL tail)", got)
	}
}

// writeSnapFile frames recs into dir's snapshot file number seq.
func writeSnapFile(t *testing.T, dir string, seq int64, recs ...[]byte) {
	t.Helper()
	var file bytes.Buffer
	cw := recordio.NewCRCWriter(&file)
	for _, rec := range recs {
		if err := cw.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, snapName(seq)), file.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotLeafNamingNoEventIsCorrupt: a file's leaves are keyed by the
// names in its records' dictionary, so each must name an event. One that
// does not — a prefix, here — fails the whole file before any of it is
// applied, and recovery comes up exact from the previous snapshot and the
// WAL.
func TestSnapshotLeafNamingNoEventIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	recs := fileRecords(t, snapThenTail(t, dir)) // 5 events under snapshot 1, 4 in the log
	// The file's one leaf is the one event's; its dictionary entry, a
	// length byte and the name, becomes the prefix.
	const full = "web:home:timeline:stream:tweet:impression"
	forged := bytes.Replace(recs[1], append([]byte{byte(len(full))}, full...), append([]byte{8}, "web:home"...), 1)
	if bytes.Equal(forged, recs[1]) {
		t.Fatalf("seed snapshot's leaf record %x does not name %q", recs[1], full)
	}
	// Were it accepted, its header would retire the log and claim 1000
	// events, all of them under "web:home".
	writeSnapFile(t, dir, 2, encodeSnapHeader(nil, []int64{99}, 1000, t0.Unix()/60, Stats{}), forged)
	probe := allocCounter(durCfg(1).withDefaults())
	if _, err := probe.loadSnapshot(filepath.Join(dir, snapName(2))); !errors.Is(err, recordio.ErrCorrupt) || !strings.Contains(err.Error(), `"web:home"`) {
		t.Fatalf("loadSnapshot = %v, want an error wrapping recordio.ErrCorrupt that names the entry", err)
	}

	r, err := Open(dir, durCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Crash()
	if got, st := pathSumAll(r), r.Stats(); got != 9 || st.Observed != 9 {
		t.Errorf("recovered PathSum %d, Observed %d; want 9 and 9 (snapshot 1 + the WAL tail)", got, st.Observed)
	}
	from, to := t0, t0.Add(2*time.Minute)
	if got := r.PathSum("web:home", from, to); got != 9 {
		t.Errorf("PathSum(web:home) = %d, want 9", got)
	}
	if got := r.RollupTotal(0, "web:home", from, to); got != 0 {
		t.Errorf("RollupTotal(0, web:home) = %d: the forged leaf was applied", got)
	}
}

// TestSnapshotLeafIDPastDictionaryIsCorrupt: a leaf indexes its file's
// dictionary, and an ID one past either table's end is refused.
func TestSnapshotLeafIDPastDictionaryIsCorrupt(t *testing.T) {
	minute := t0.Unix() / 60
	for _, tc := range []struct {
		what          string
		name, country uint64
		ok            bool
	}{
		{"last name and country", 1, 2, true},
		{"name one past", 2, 2, false},
		{"country one past", 1, 3, false},
	} {
		// A counted record by hand: two names, three countries, one leaf
		// of 7 logged-in events.
		rec := []byte{countedRecordVersion, 2}
		for _, s := range []string{"web:home:timeline:stream:tweet:impression", "iphone:search:results:cell:tweet:open"} {
			rec = append(binary.AppendUvarint(rec, uint64(len(s))), s...)
		}
		rec = append(rec, 3)
		for _, s := range []string{"us", "jp", "br"} {
			rec = append(binary.AppendUvarint(rec, uint64(len(s))), s...)
		}
		rec = binary.AppendUvarint(append(rec, 1), uint64(minute))
		rec = binary.AppendUvarint(rec, tc.name)
		rec = binary.AppendVarint(rec, 0)
		rec = binary.AppendUvarint(rec, tc.country<<1|1)
		rec = binary.AppendUvarint(rec, 7)

		var got []string
		err := (&walDecoder{counted: true}).decodeBatch(rec, func(name *events.NameEntry, _ int64, country string, loggedIn bool, n int64) error {
			got = append(got, fmt.Sprintf("%s %s %v %d", name.Full, country, loggedIn, n))
			return nil
		})
		if tc.ok {
			if want := "iphone:search:results:cell:tweet:open br true 7"; err != nil || len(got) != 1 || got[0] != want {
				t.Errorf("%s: decodeBatch = %q, %v; want the leaf back", tc.what, got, err)
			}
		} else if !errors.Is(err, recordio.ErrCorrupt) || len(got) != 0 {
			t.Errorf("%s: err = %v after %q, want an error wrapping recordio.ErrCorrupt and no leaf", tc.what, err, got)
		}
	}
}

// TestSnapshotIDsAreTheWritersOwn: the IDs in a file are its writer's, and a
// load maps them into whatever numbering the recovering process already has.
// Two hand-built files reference the same names and countries first in
// opposite orders. The newer one is damaged in its last record and refused
// whole, after its first records decoded; the older one must then load, and
// the WAL tail replay on top of it.
func TestSnapshotIDsAreTheWritersOwn(t *testing.T) {
	names := []string{
		"web:home:mentions:stream:avatar:profile_click",
		"web:home:timeline:stream:tweet:impression",
		"iphone:home:timeline:stream:tweet:impression",
	}
	countries := []string{"us", "jp", "br"}
	dir := t.TempDir()
	m := New(Config{Shards: 2})
	t.Cleanup(m.Close)

	// The WAL tail, in segments 0 of a counter that then dies: the same
	// names in yet another first-seen order.
	d, err := Open(dir, durCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{1, 2, 0, 1} {
		e := ev(names[i], t0.Add(time.Duration(i)*time.Minute), 1, countries[(i+1)%len(countries)])
		d.Ingest(e)
		m.Ingest(e)
	}
	d.Sync()
	d.Crash()

	// The snapshots' content, under a header that covers no segment: name i,
	// country i, i+1 events in minute i, logged in on the even ones.
	minute := t0.Unix() / 60
	var observed int64
	for i, name := range names {
		for n := 0; n <= i; n++ {
			m.Ingest(ev(name, t0.Add(time.Duration(i)*time.Minute), int64((i+1)%2), countries[i]))
			observed++
		}
	}
	m.Sync()
	// fileInOrder writes that content one leaf per record, in order.
	fileInOrder := func(seq int64, order []int, damage bool) {
		tab := newSymtab()
		var w walWriter
		recs := [][]byte{encodeSnapHeader(nil, []int64{0, 0}, observed, minute+int64(len(names))-1, Stats{})}
		for _, i := range order {
			e, err := events.Lookup(names[i])
			if err != nil {
				t.Fatal(err)
			}
			leaf := []obs{{minute: minute + int64(i), name: e, country: tab.country(countries[i]), loggedIn: i%2 == 0}}
			rec, _, _ := w.encodeBatch(nil, leaf, []int64{int64(i + 1)}, tab)
			recs = append(recs, rec)
		}
		if damage {
			last := recs[len(recs)-1]
			recs[len(recs)-1] = last[:len(last)-1]
		}
		writeSnapFile(t, dir, seq, recs...)
	}
	fileInOrder(1, []int{0, 1, 2}, false)
	fileInOrder(2, []int{2, 1, 0}, true)

	r, err := Open(dir, durCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Crash()
	sameAnswers(t, r, m)
	from, to := t0, t0.Add(time.Duration(len(names))*time.Minute)
	for _, name := range names {
		if g, w := r.Series(name, from, to), m.Series(name, from, to); !reflect.DeepEqual(g, w) {
			t.Errorf("Series(%q) = %v, want %v", name, g, w)
		}
	}
}

// TestSnapshotLeavesFollowTheirNamesShard: a load puts every leaf on the
// shard its name routes to under the loading configuration, as WAL replay
// does, not on the shard index it was captured from.
func TestSnapshotLeavesFollowTheirNamesShard(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, durCfg(4))
	if err != nil {
		t.Fatal(err)
	}
	m := New(Config{Shards: 3})
	t.Cleanup(m.Close)
	feedBoth(600, d, m)
	d.Close() // a final snapshot retires the whole log: the load is all there is

	r, err := Open(dir, durCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Crash()
	names := events.NameEntries()
	var leaves int
	for i, s := range r.shards {
		for j := range s.ring {
			for k := range s.ring[j].leaf {
				name, _, _ := leafFields(k)
				if at := r.shardOf(names[name]); at != i {
					t.Errorf("%s (minute %d) loaded on shard %d, routes to %d", names[name].Full, s.ring[j].minute, i, at)
				}
				leaves++
			}
		}
	}
	if leaves == 0 {
		t.Fatal("the reopened counter holds no leaves")
	}
	m.Sync()
	sameAnswers(t, r, m)
}

// TestReconcileRecoveredCounter is the acceptance check: a day
// streamed into a durable counter, snapshotted mid-stream, killed, and
// recovered must still reconcile exactly against the warehouse batch job.
func TestReconcileRecoveredCounter(t *testing.T) {
	cfg := workload.DefaultConfig(day)
	cfg.Users = 60
	cfg.LoggedOutSessions = 40
	evs, truth := workload.New(cfg).Generate()
	fs := hdfs.New(0)
	w := warehouse.NewWriter(fs, events.Category)
	w.RollRecords = 2000
	for i := range evs {
		if err := w.Append(&evs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	d, err := Open(dir, durCfg(4))
	if err != nil {
		t.Fatal(err)
	}
	b := d.NewBatcher()
	for i := range evs {
		b.Add(&evs[i])
		if i == len(evs)/2 {
			b.Flush()
			d.Sync()
			if err := d.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
	}
	b.Flush()
	d.Sync()
	d.Crash()

	r, err := Open(dir, durCfg(4))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Crash()
	if got := r.Stats().Observed; got != truth.Events {
		t.Errorf("recovered Observed = %d, want %d", got, truth.Events)
	}
	rep, err := Reconcile(fs, day, r)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("recovered counter diverged from batch: %s\nmissing: %v\nextra: %v\nmismatched: %v",
			rep, rep.Missing, rep.Extra, rep.Mismatched)
	}
	if !strings.Contains(rep.String(), "OK") {
		t.Errorf("String() = %q", rep.String())
	}
}

// TestDurableConcurrentIngestAndSnapshot hammers the durable path the way
// the race CI job wants: parallel producers, concurrent snapshots and
// queries, then a kill and a recovery that must account for every event.
func TestDurableConcurrentIngestAndSnapshot(t *testing.T) {
	dir := t.TempDir()
	cfg := durCfg(4)
	cfg.FsyncEvery = 8
	d, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const producers = 4
	const perProducer = 2000
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			b := d.NewBatcher()
			for i := 0; i < perProducer; i++ {
				b.Add(ev("web:home:timeline:stream:tweet:impression",
					t0.Add(time.Duration(i%60)*time.Minute), int64(p), "us"))
			}
			b.Flush()
		}(p)
	}
	stop := make(chan struct{})
	var aux sync.WaitGroup
	aux.Add(2)
	go func() {
		defer aux.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if err := d.Snapshot(); err != nil && err != errClosed {
					t.Error(err)
					return
				}
			}
		}
	}()
	go func() {
		defer aux.Done()
		day := t0.Truncate(24 * time.Hour)
		for {
			select {
			case <-stop:
				return
			default:
				d.PathSum("web", day, day.Add(24*time.Hour))
				d.TopK("", 3, day, day.Add(24*time.Hour))
			}
		}
	}()
	wg.Wait()
	close(stop)
	aux.Wait()
	d.Sync()
	want := int64(producers * perProducer)
	if got := d.Stats().Observed; got != want {
		t.Fatalf("live Observed = %d, want %d", got, want)
	}
	d.Crash()
	r, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.Stats().Observed; got != want {
		t.Errorf("recovered Observed = %d, want %d", got, want)
	}
	if got := pathSumAll(r); got != want {
		t.Errorf("recovered PathSum = %d, want %d", got, want)
	}
}

// TestSnapshotOnMemoryCounterErrors pins the API contract: snapshots only
// exist on counters created by Open.
func TestSnapshotOnMemoryCounterErrors(t *testing.T) {
	c := New(Config{Shards: 1})
	defer c.Close()
	if err := c.Snapshot(); err == nil {
		t.Fatal("Snapshot on a memory-only counter succeeded")
	}
}

// TestStatsPersistAcrossRestart: the full activity-counter block — not
// just Observed — must survive a snapshot/restore cycle, so dashboards
// watching Stats see monotonic values across restarts.
func TestStatsPersistAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := durCfg(2)
	cfg.Retention = 5 * time.Minute
	d, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// One decodable tap entry, one decode error, one invalid name.
	e := ev("web:home:timeline:stream:tweet:impression", t0, 1, "us")
	d.TapBatch([]scribe.Entry{
		{Category: events.Category, Message: e.Marshal()},
		{Category: events.Category, Message: []byte("not thrift")},
	})
	d.Ingest(&events.ClientEvent{Timestamp: t0.UnixMilli(), IP: "10.0.0.1"})
	// Advance the horizon past retention, then send a straggler: one
	// eviction, one dropped-old.
	d.Ingest(ev("web:home:timeline:stream:tweet:impression", t0.Add(10*time.Minute), 1, "us"))
	d.Sync()
	d.Ingest(ev("web:home:timeline:stream:tweet:impression", t0, 1, "us"))
	d.Sync()

	st := d.Stats()
	if st.TapEntries != 2 || st.DecodeErrors != 1 || st.Invalid != 1 || st.DroppedOld != 1 {
		t.Fatalf("unexpected pre-restart stats: %+v", st)
	}
	d.Close() // final snapshot carries the block

	r, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got := r.Stats()
	want := st
	want.Snapshots++ // the final snapshot Close cut
	if got != want {
		t.Errorf("stats did not carry over:\n got  %+v\n want %+v", got, want)
	}
}

// Version bytes that are not a format's current one: those it has retired
// and the next one up, which this build has never heard of.
var (
	staleWALVersions  = []byte{1, 3}
	staleSnapVersions = []byte{1, 2, 3, 5}
)

// TestRetiredAndUnknownFormatVersionsAreCorrupt: a WAL record or a
// snapshot header whose version byte is not the current one — a retired
// version or one this build has never heard of — is rejected with
// recordio.ErrCorrupt naming the version, and recovery treats it as it
// treats any other damage: the WAL keeps its intact prefix and truncates,
// the snapshot is skipped in favour of the surviving WAL tail.
func TestRetiredAndUnknownFormatVersionsAreCorrupt(t *testing.T) {
	for _, version := range staleWALVersions {
		named := fmt.Sprintf("version %d", version)

		err := (&walDecoder{}).decodeBatch([]byte{version, 0, 0, 0, 0}, nil)
		if !errors.Is(err, recordio.ErrCorrupt) || !strings.Contains(err.Error(), named) {
			t.Errorf("wal record %s: err = %v, want ErrCorrupt naming the version", named, err)
		}
		dir := t.TempDir()
		seg := oneShardScenario(t, dir, 5)
		intact, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := recordio.NewCRCWriter(f).Append([]byte{version, 0, 0, 0, 0}); err != nil {
			t.Fatal(err)
		}
		f.Close()
		r, err := Open(dir, durCfg(1))
		if err != nil {
			t.Fatal(err)
		}
		if got := pathSumAll(r); got != 5 || r.Stats().WALErrors == 0 {
			t.Errorf("wal %s: recovered %d events with %d WAL errors, want the 5-event prefix and the damage counted",
				named, got, r.Stats().WALErrors)
		}
		r.Crash()
		if fi, err := os.Stat(seg); err != nil || fi.Size() != intact.Size() {
			t.Errorf("wal %s: segment is %d bytes after recovery, want it truncated back to %d (%v)",
				named, fi.Size(), intact.Size(), err)
		}
	}

	for _, version := range staleSnapVersions {
		named := fmt.Sprintf("version %d", version)

		// The same snapshot, re-framed with only the header's version byte
		// changed, so the checksum holds and the version check is what fires.
		dir := t.TempDir()
		snap := snapThenTail(t, dir)
		recs := fileRecords(t, snap)
		recs[0][1] = version
		writeSnapFile(t, dir, 1, recs...)
		probe := allocCounter(durCfg(1).withDefaults())
		if _, err := probe.loadSnapshot(snap); !errors.Is(err, recordio.ErrCorrupt) || !strings.Contains(err.Error(), named) {
			t.Errorf("snapshot header %s: err = %v, want ErrCorrupt naming the version", named, err)
		}
		r, err := Open(dir, durCfg(1))
		if err != nil {
			t.Fatalf("snapshot %s: recovery errored instead of degrading: %v", named, err)
		}
		if got := pathSumAll(r); got != 4 {
			t.Errorf("snapshot %s: recovered %d events, want the 4 surviving WAL-tail events", named, got)
		}
		r.Crash()
	}
}

// TestOpenFailureReleasesWhatItOpened: when a later shard's WAL cannot be
// created, Open returns the error naming that shard with the earlier
// shards' segment files closed again. Open steps over any name already in
// the directory, so the one way to squat on the segment it will pick is at
// the last sequence number there is, which has no successor to step to.
func TestOpenFailureReleasesWhatItOpened(t *testing.T) {
	dir := t.TempDir()
	const last = math.MaxInt64
	writeSnapFile(t, dir, 1, encodeSnapHeader(nil, []int64{0, last}, 0, 0, Stats{}))
	if err := os.Mkdir(filepath.Join(dir, walName(1, last)), 0o755); err != nil {
		t.Fatal(err)
	}
	openFDs := func() int {
		fds, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			return -1 // no /proc here: the error is all this test can see
		}
		return len(fds)
	}
	before := openFDs()
	c, err := Open(dir, durCfg(2))
	if err == nil {
		c.Crash()
		t.Fatal("Open succeeded with a directory squatting on shard 1's next segment")
	}
	if !strings.Contains(err.Error(), "shard 1") {
		t.Errorf("err = %v, want it to name shard 1", err)
	}
	if after := openFDs(); after > before {
		t.Errorf("%d descriptors open after the failed Open, %d before: shard 0's segment leaked", after, before)
	}
}

// TestSnapshotTelemetry: cutting a snapshot reports the file's size and the
// leaf rows it holds.
func TestSnapshotTelemetry(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, durCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Crash()
	tmSnapshotBytes.Set(0)
	tmSnapshotLeaves.Set(0)
	feedBoth(200, d)
	d.Sync()
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(filepath.Join(dir, snapName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if got := tmSnapshotBytes.Value(); got != fi.Size() {
		t.Errorf("realtime.snapshot.bytes = %d, the file is %d bytes", got, fi.Size())
	}
	var leaves int64
	for _, s := range d.shards {
		s.mu.Lock()
		for j := range s.ring {
			leaves += int64(len(s.ring[j].leaf))
		}
		s.mu.Unlock()
	}
	if got := tmSnapshotLeaves.Value(); got != leaves || leaves == 0 {
		t.Errorf("realtime.snapshot.leaves = %d, the rings hold %d leaves", got, leaves)
	}
}

// TestSnapshotSkipsBucketsBehindHorizon: a bucket behind the retention
// horizon whose slot has not been recycled is not live — reads and a load
// both ignore it — so the capture leaves it out of the file and out of
// realtime.snapshot.leaves.
func TestSnapshotSkipsBucketsBehindHorizon(t *testing.T) {
	at := func(minute int64) time.Time { return time.Unix(minute*60, 0) }
	dir := t.TempDir()
	cfg := durCfg(1)
	cfg.Retention = 10 * time.Minute
	d, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Crash()
	d.Ingest(ev(tweetImpression, at(1000), 1, "us")) // slot 0
	d.Ingest(ev(tweetImpression, at(1015), 1, "us")) // slot 5; the horizon moves to 1005
	d.Sync()
	if b := &d.shards[0].ring[1000%d.buckets]; b.minute != 1000 || len(b.leaf) != 1 {
		t.Fatalf("slot 0 holds minute %d with %d leaves, want minute 1000 unrecycled", b.minute, len(b.leaf))
	}
	tmSnapshotLeaves.Set(0)
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if rows := snapshotLeaves(t, filepath.Join(dir, snapName(1))); len(rows) != 1 || len(rows[1015]) != 1 {
		t.Errorf("the file holds leaves %v, want the one of minute 1015 alone", rows)
	}
	if got := tmSnapshotLeaves.Value(); got != 1 {
		t.Errorf("realtime.snapshot.leaves = %d, want the 1 leaf of minute 1015", got)
	}
}

// BenchmarkReopenSnapshotOnly is a reopen with nothing to replay: a
// generated day ingested into 4 shards and snapshotted, then Open of a copy
// of that directory per iteration — the snapshot's validation pass, its
// apply pass and empty WAL segments.
func BenchmarkReopenSnapshotOnly(b *testing.B) {
	src := b.TempDir()
	d, err := Open(src, durCfg(4))
	if err != nil {
		b.Fatal(err)
	}
	ingestGeneratedDay(d)
	if err := d.Snapshot(); err != nil {
		b.Fatal(err)
	}
	d.Close()
	entries, err := os.ReadDir(src)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := filepath.Join(b.TempDir(), "counter")
		if err := os.Mkdir(dir, 0o755); err != nil {
			b.Fatal(err)
		}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(src, e.Name()))
			if err != nil {
				b.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		c, err := Open(dir, durCfg(4))
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		c.Crash()
		b.StartTimer()
	}
}
