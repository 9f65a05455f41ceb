package realtime

import (
	"errors"
	"io"
	"math"
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
// a negative minute delta, and the table its countries are in.
func walSeedBatch(f *testing.F) ([]obs, *symtab) {
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
	return batch, tab
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
	batch, tab := walSeedBatch(f)
	rec, _, _ := (&walWriter{}).encodeBatch(nil, batch, nil, tab)
	addDamaged(f, rec, 0, staleWALVersions)
	f.Add([]byte{})
	f.Add([]byte{walRecordVersion, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, rec []byte) {
		dec := &walDecoder{}
		seen := 0
		err := dec.decodeBatch(rec, func(*events.NameEntry, int64, string, bool, int64) error { seen++; return nil })
		checkRecord(t, rec)("live", len(dec.names)+len(dec.countries)+seen, err)
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
	batch, tab := walSeedBatch(f)
	counts := []int64{1, 2, 300, 1 << 40, 7, math.MaxInt64}
	rec, _, _ := (&walWriter{}).encodeBatch(nil, batch, counts, tab)
	addDamaged(f, rec, 0, nil)

	f.Fuzz(func(t *testing.T, rec []byte) {
		check := checkRecord(t, rec)
		h, err := decodeSnapHeader(rec)
		check("header", len(h.next), err)

		// A counted record as a load takes it: checked whole, then applied.
		type leaf struct{ minute, n int64 }
		var leaves []leaf
		dec := &walDecoder{counted: true}
		err = dec.decodeBatch(rec, func(name *events.NameEntry, minute int64, _ string, _ bool, n int64) error {
			if name == nil || minute < 1 || n < 1 {
				t.Fatalf("leaf (%v, minute %d, count %d) accepted", name, minute, n)
			}
			leaves = append(leaves, leaf{minute, n})
			return nil
		})
		check("counted", len(dec.names)+len(dec.countries)+len(leaves), err)
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
