package realtime

import (
	"errors"
	"io"
	"os"
	"testing"
	"time"

	"unilog/internal/events"
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

// FuzzWALBatch: on any record, decodeBatch returns nil or an error
// wrapping recordio.ErrCorrupt, never panics, and neither grows its
// dictionaries nor reports observations past the record's length.
func FuzzWALBatch(f *testing.F) {
	// The records of a live segment: the first carries the dictionary,
	// the rest refer to it (corrupt on their own).
	recs := fileRecords(f, oneShardScenario(f, f.TempDir(), 3))
	addDamaged(f, recs[0], 0, staleWALVersions)
	f.Add(recs[1])
	// One batch with several names, countries, login bits and a negative
	// minute delta.
	tab := newSymtab()
	var batch []obs
	for i, full := range []string{"web:home:timeline:stream:tweet:impression", "iphone:search:results:cell:tweet:open"} {
		name, err := events.Lookup(full)
		if err != nil {
			f.Fatal(err)
		}
		for j, country := range []string{"us", "jp", "br"} {
			batch = append(batch, obs{minute: t0.Unix()/60 - int64(i+j), name: name, country: tab.country(country), loggedIn: j%2 == 0})
		}
	}
	w := &walWriter{}
	rec, _, _ := w.encodeBatch(nil, batch, tab)
	addDamaged(f, rec, 0, staleWALVersions)
	f.Add([]byte{})
	f.Add([]byte{walRecordVersion, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, rec []byte) {
		dec := &walDecoder{}
		seen := 0
		err := dec.decodeBatch(rec, func(string, int64, string, bool) error { seen++; return nil })
		if err != nil && !errors.Is(err, recordio.ErrCorrupt) {
			t.Fatalf("untyped error: %v", err)
		}
		if n := len(dec.names) + len(dec.countries) + seen; n > len(rec) {
			t.Fatalf("%d dictionary entries and observations out of a %d-byte record", n, len(rec))
		}
	})
}

// FuzzSnapshotRecords: on any record, the three snapshot decoders each
// return a value or an error wrapping recordio.ErrCorrupt, never panic,
// and never size a slice or map past the record's length. Buckets decode
// against the dictionary of the v3 snapshot the seeds come from, interned
// into a fresh counter, and one the decoder accepts goes on down the load
// path — merged into a ring, expanded into rollup rows, derived and read
// back — which may not panic or lose a count.
func FuzzSnapshotRecords(f *testing.F) {
	recs := fileRecords(f, snapThenTail(f, f.TempDir()))
	if len(recs) < 3 {
		f.Fatalf("seed snapshot has %d records, want a header, a dictionary and a bucket", len(recs))
	}
	dict, err := decodeSnapDict(recs[1])
	if err != nil {
		f.Fatal(err)
	}
	addDamaged(f, recs[0], 1, staleSnapVersions)
	addDamaged(f, recs[1], 0, nil)
	addDamaged(f, recs[2], 0, nil)
	f.Add([]byte{})
	f.Add([]byte{snapTagHeader, snapRecordVersion, 0xFF, 0xFF, 0x03}) // 65535 shards in five bytes

	f.Fuzz(func(t *testing.T, rec []byte) {
		check := func(what string, sized int, err error) {
			if err != nil && !errors.Is(err, recordio.ErrCorrupt) {
				t.Fatalf("%s: untyped error: %v", what, err)
			}
			if sized > len(rec) {
				t.Fatalf("%s: %d entries out of a %d-byte record", what, sized, len(rec))
			}
		}
		h, err := decodeSnapHeader(rec)
		check("header", len(h.next), err)
		d, err := decodeSnapDict(rec)
		check("dictionary", len(d.names)+len(d.countries), err)
		c := allocCounter(Config{Shards: 2, Retention: 2 * time.Minute}.withDefaults()) // no goroutines to stop
		remap, err := c.tab.internDict(&dict)
		if err != nil {
			t.Fatalf("the seed snapshot's own dictionary: %v", err)
		}
		b, err := decodeBucket(rec, &remap)
		check("bucket", len(b.leaf), err)
		if err != nil {
			return
		}
		if b.shard < 0 || b.minute < 1 {
			t.Fatalf("bucket: coordinates (%d, %d) would index a ring out of range", b.shard, b.minute)
		}
		var leaves, loaded int64
		for _, n := range b.leaf {
			leaves += n
		}
		c.loadBucket(&b)
		if b.minute > 1<<40 {
			return // no time.Time names this minute to a query
		}
		at := time.Unix(b.minute*60, 0)
		for _, n := range c.RollupSnapshot(at, at.Add(time.Minute)) {
			loaded += n
		}
		if loaded != leaves*int64(events.NumRollupLevels) {
			t.Fatalf("bucket: %d in leaf rows loaded as %d over the five levels", leaves, loaded)
		}
		c.TopK("", 3, at, at.Add(time.Minute))
	})
}
