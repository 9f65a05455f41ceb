package realtime

import (
	"errors"
	"io"
	"math"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"unilog/internal/events"
	"unilog/internal/geo"
	"unilog/internal/recordio"
)

// fileRecords returns the CRC-framed records of a WAL segment or snapshot.
func fileRecords(tb testing.TB, path string) [][]byte {
	in, err := os.Open(path)
	if err != nil {
		tb.Fatal(err)
	}
	defer in.Close()
	var recs [][]byte
	for r := recordio.NewCRCReader(in); ; {
		rec, err := r.Next()
		if err == io.EOF {
			return recs
		}
		if err != nil {
			tb.Fatal(err)
		}
		recs = append(recs, append([]byte(nil), rec...))
	}
}

// addDamaged seeds rec and the damage durability_test.go does to whole
// files, done to one record: cut short, one byte flipped, and the version
// byte at index version set to each of stale (the format's retired and
// unknown versions; none for a record without one).
func addDamaged(f *testing.F, rec []byte, version int, stale []byte) {
	f.Add(rec)
	f.Add(rec[:len(rec)/2])
	f.Add(rec[:len(rec)-1])
	flipped := append([]byte(nil), rec...)
	flipped[len(rec)*2/5] ^= 0xFF
	f.Add(flipped)
	for _, v := range stale {
		other := append([]byte(nil), rec...)
		other[version] = v
		f.Add(other)
	}
}

// checkRecord returns a check that each decoder's result on rec is nil or
// an error wrapping recordio.ErrCorrupt, and that the entries it sized
// are no more than rec's bytes.
func checkRecord(t *testing.T, rec []byte) func(what string, sized int, err error) {
	return func(what string, sized int, err error) {
		if err != nil && !errors.Is(err, recordio.ErrCorrupt) {
			t.Fatalf("%s: untyped error: %v", what, err)
		}
		if sized > len(rec) {
			t.Fatalf("%s: %d entries out of a %d-byte record", what, sized, len(rec))
		}
	}
}

// walSeedBatch is one batch with several names, countries, login bits and
// a negative minute delta.
func walSeedBatch(f *testing.F) []Observation {
	var batch []Observation
	for i, full := range []string{"web:home:timeline:stream:tweet:impression", "iphone:search:results:cell:tweet:open"} {
		name, err := events.Lookup(full)
		if err != nil {
			f.Fatal(err)
		}
		for j, country := range []string{"us", geo.Unknown, "br"} {
			batch = append(batch, Observation{Name: name, Minute: t0.Unix()/60 - int64(i+j), Country: countryOf(country), LoggedIn: j%2 == 0})
		}
	}
	return batch
}

// FuzzWALBatch: on any record, decodeBatch reading a live segment returns
// nil or an error wrapping recordio.ErrCorrupt, never panics, and neither
// grows its dictionaries nor reports observations past the record's
// length.
func FuzzWALBatch(f *testing.F) {
	// The records of a live segment: the first carries the dictionary,
	// the rest refer to it (corrupt on their own).
	recs := fileRecords(f, oneShardScenario(f, f.TempDir(), 3))
	addDamaged(f, recs[0], 0, staleWALVersions)
	f.Add(recs[1])
	batch := walSeedBatch(f)
	rec, _ := (&walWriter{}).encodeBatch(nil, batch, nil)
	addDamaged(f, rec, 0, staleWALVersions)
	// A country one past geo.Unknown's index, which the decoder refuses.
	batch[len(batch)-1].Country = uint8(len(geo.Countries) + 1)
	rec, _ = (&walWriter{}).encodeBatch(nil, batch, nil)
	f.Add(rec)
	f.Add([]byte{})
	f.Add([]byte{walRecordVersion, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, rec []byte) {
		dec := &walDecoder{}
		seen := 0
		err := dec.decodeBatch(rec, func(Observation, int64) error { seen++; return nil })
		checkRecord(t, rec)("live", len(dec.names)+seen, err)
	})
}

// FuzzSnapshotRecords: on any record, the two snapshot decoders —
// decodeSnapHeader and decodeBatch with counted set, which reads a
// snapshot's leaves — each return a value or an error wrapping
// recordio.ErrCorrupt, never panic, and never size a slice or dictionary
// past the record's length. A counted record the decoder accepts goes on
// down the load path: applied with applyOne (replayOne) to a fresh
// counter, expanded into rollup rows and read back, it may not panic or
// lose a count.
func FuzzSnapshotRecords(f *testing.F) {
	// A snapshot: its header, then its one counted record.
	snap := fileRecords(f, snapThenTail(f, f.TempDir()))
	if len(snap) != 2 {
		f.Fatalf("seed snapshot has %d records, want a header and one leaf record", len(snap))
	}
	addDamaged(f, snap[0], 1, staleSnapVersions)
	addDamaged(f, snap[1], 0, nil)
	f.Add([]byte{})
	f.Add([]byte{snapTagHeader, snapRecordVersion, 0xFF, 0xFF, 0x03}) // 65535 shards in five bytes
	// A batch with several names, countries and login bits as a snapshot's
	// leaves, with counts up to the largest a load accepts.
	counts := []int64{1, 2, 300, 1 << 40, 7, math.MaxInt64}
	rec, _ := (&walWriter{}).encodeBatch(nil, walSeedBatch(f), counts)
	addDamaged(f, rec, 0, nil)

	f.Fuzz(func(t *testing.T, rec []byte) {
		check := checkRecord(t, rec)
		h, err := decodeSnapHeader(rec)
		check("header", len(h.next), err)

		// A counted record as a load takes it: checked whole, then applied.
		type leaf struct{ minute, n int64 }
		var leaves []leaf
		dec := &walDecoder{counted: true}
		err = dec.decodeBatch(rec, func(o Observation, n int64) error {
			if o.Name == nil || o.Minute < 1 || n < 1 || int(o.Country) > len(geo.Countries) {
				t.Fatalf("leaf (%+v, count %d) accepted", o, n)
			}
			leaves = append(leaves, leaf{o.Minute, n})
			return nil
		})
		check("counted", len(dec.names)+len(leaves), err)
		if err != nil {
			return
		}
		c := allocCounter(Config{Shards: 2, Retention: 2 * time.Minute}.withDefaults()) // no goroutines to stop
		if err := (&walDecoder{counted: true}).decodeBatch(rec, c.replayOne); err != nil {
			t.Fatalf("accepted, then refused on apply: %v", err)
		}
		last := c.maxMinute.Load()
		if last > 1<<40 {
			return // no time.Time names this minute to a query
		}
		// Every leaf in the last retention window is in the ring whatever
		// order the leaves came in: a slot yields only to a newer minute.
		var want, loaded int64
		for _, l := range leaves {
			if l.minute > last-int64(c.buckets) {
				want += l.n
			}
		}
		from, to := time.Unix((last-int64(c.buckets)+1)*60, 0), time.Unix((last+1)*60, 0)
		for _, n := range c.RollupSnapshot(from, to) {
			loaded += n
		}
		if loaded != want*int64(events.NumRollupLevels) {
			t.Fatalf("%d in the window's leaves loaded as %d over the five levels", want, loaded)
		}
		c.TopK("", 3, from, to)
	})
}

// fuzzNames are the names FuzzWindowReads writes: three clients, shared
// and distinct prefixes at every depth, empty components.
var fuzzNames = []string{
	tweetImpression,
	"web:home:timeline:stream:tweet:click",
	"web:home:mentions:stream:avatar:profile_click",
	"web:search:::tweet:open",
	"iphone:home:timeline:stream:tweet:impression",
	"iphone:search:results:cell:tweet:open",
	"android:profile:::tweet:impression",
}

// FuzzWindowReads holds PathSum, TopK and Series to the string-keyed
// reference (refModel, refTopK) over a sequence of writes and reads the
// input decodes. Writes land anywhere in a span three retentions long, so
// some go late into hours a read has already summed and some fall behind
// the horizon and must be dropped; reads ask any window, across the horizon,
// the newest minute, hour boundaries and a mid-minute end. The counter is
// applied to directly, single-threaded, as recovery does.
func FuzzWindowReads(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 10, 0, 1, 2, 0, 200, 2, 0, 0, 0, 0, 2, 0, 20, 2, 3, 0})
	f.Add([]byte{1, 1, 5, 3, 0, 0, 4, 0, 7, 0x30, 2, 2, 0, 0, 1, 0, 0, 1, 2, 0, 0, 9, 1, 0xff, 2, 1, 2, 0, 0, 0, 0x40, 6, 3, 3, 0, 0, 0, 0xff, 30})
	f.Add([]byte{2, 0, 0, 0x10, 0, 4, 0x0a, 0x20, 5, 0x0c, 0x10, 2, 0, 0, 0x06, 0xc0, 0x05, 0xa0, 1, 3, 0x02, 0x00, 0x01, 0x00, 4, 0})
	// A day retention on two shards, writes up to 14:25 (m0 + 55, mid-hour),
	// then PathSum, TopK and Series from 13:00 to past that minute mid-hour
	// (14:40), to the end of its hour (15:00, read whole from the hour cell)
	// and to before it (14:20).
	writes := []byte{5, 0, 0, 0, 10, 0, 4, 0, 40, 1, 2, 0, 55, 0, 1, 0, 31, 4, 3, 0, 54}
	for _, z := range []byte{100, 120, 80} {
		f.Add(append(slices.Clone(writes), 2, 0, 30, 0, z, 0, 0, 0x46, 0, 30, 0, z, 0, 5, 3, 0, 30, 0, z, 0, 1))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		take := func(n int) int64 { // the next n bytes, big-endian; 0 past the end
			var v int64
			for ; n > 0; n-- {
				v <<= 8
				if len(data) > 0 {
					v, data = v|int64(data[0]), data[1:]
				}
			}
			return v
		}
		pick := take(1)
		retention := hourRetentions[pick%int64(len(hourRetentions))]
		c := allocCounter(Config{Shards: 1 + int(pick/3)%3, Retention: retention}.withDefaults()) // no goroutines to stop
		buckets := int64(c.buckets)
		span := 3*buckets + 120
		m0 := t0.Unix()/60 - 30
		ref := &refModel{minute: map[string]map[int64]int64{}}
		var newest int64
		var paths, parents []string
		seen := map[string]bool{}
		for _, full := range fuzzNames {
			parts := strings.Split(full, ":")
			for d := 1; d <= events.NumComponents; d++ {
				if p := strings.Join(parts[:d], ":"); !seen[p] {
					seen[p] = true
					paths = append(paths, p)
					if d < events.NumComponents {
						parents = append(parents, p)
					}
				}
			}
		}
		paths, parents = append(paths, "web:nowhere"), append(parents, "", "web:nowhere")
		at := func(m int64) time.Time { return time.Unix(m*60, 0) }
		for len(data) > 0 {
			switch op := take(1); op % 4 {
			case 0, 1:
				full := fuzzNames[take(1)%int64(len(fuzzNames))]
				minute := m0 + take(2)%span
				name, err := events.Lookup(full)
				if err != nil {
					t.Fatal(err)
				}
				o := Observation{Name: name, Minute: minute, Country: uint8(op / 4 % 2), LoggedIn: op/8%2 == 1}
				c.digest(o)
				c.applyOne(c.shards[c.shardOf(name)], &o, 1)
				newest = max(newest, minute)
				if minute > newest-buckets {
					ref.addPaths(full, minute)
				}
			default:
				a := m0 - 60 + take(2)%(span+120)
				z := a + take(2)%(buckets+180)
				sec := take(1) % 60
				to := at(z).Add(time.Duration(sec) * time.Second)
				if sec > 0 {
					z++
				}
				path := paths[take(1)%int64(len(paths))]
				horizon := newest - buckets + 1
				if op%4 == 3 {
					checkSeries(t, c, ref, path, at(a), to, a, z, horizon, newest, buckets)
					continue
				}
				lo, hi := max(a, horizon), min(z, newest+1)
				var want int64
				if lo < hi {
					want = ref.sum(path, lo, hi)
				}
				if got := c.PathSum(path, at(a), to); got != want {
					t.Fatalf("PathSum(%q, [%d, %d) from the horizon %d) = %d, want %d", path, a-horizon, z-horizon, horizon, got, want)
				}
				parent, k := parents[op/4%int64(len(parents))], 1+int(op/32)
				if got, want := c.TopK(parent, k, at(a), to), refTopK(ref, parent, k, lo, hi); !reflect.DeepEqual(got, want) {
					t.Fatalf("TopK(%q, %d, [%d, %d) from the horizon %d) = %v, want %v", parent, k, a-horizon, z-horizon, horizon, got, want)
				}
			}
		}
	})
}

// checkSeries holds Series(path, from, to) — [a, z) in minutes, z widened
// past a mid-minute to — to the reference: the window capped at the ring's
// length, zero behind the horizon.
func checkSeries(t *testing.T, c *Counter, ref *refModel, path string, from, to time.Time, a, z, horizon, newest, buckets int64) {
	t.Helper()
	var want []int64
	if z-a > buckets {
		z = a + buckets
	}
	for m := a; m < z; m++ {
		var n int64
		if m >= horizon && m <= newest {
			n = ref.minute[path][m]
		}
		want = append(want, n)
	}
	if got := c.Series(path, from, to); !reflect.DeepEqual(got, want) {
		t.Fatalf("Series(%q, [%d, %d) from the horizon %d) = %v, want %v", path, a-horizon, z-horizon, horizon, got, want)
	}
}
