package chunk

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"unilog/internal/events"
	"unilog/internal/hdfs"
	"unilog/internal/recordio"
	"unilog/internal/thrift"
)

const testDir = "/logs/client_events/2012/08/21/00"

// testEvents is a deterministic chunk's worth of events: a few names and
// addresses, both login states, and details in every encoding — a raw
// request_id and a one-value lang (a dictionary) on every other row, a hex
// trace and a decimal tweet_id on every third.
func testEvents(n int) []*events.ClientEvent {
	names := []string{
		"web:home:timeline:stream:tweet:impression",
		"web:home:mentions:stream:avatar:profile_click",
		"iphone:profile:header:bio:link:click",
		"android:discover:trends:list:trend:click",
	}
	rng := rand.New(rand.NewSource(7))
	evs := make([]*events.ClientEvent, n)
	for i := range evs {
		e := &events.ClientEvent{
			Initiator: events.Initiator(rng.Intn(4)),
			Name:      events.MustParseName(names[rng.Intn(len(names))]),
			SessionID: fmt.Sprintf("s%02d", rng.Intn(9)),
			IP:        fmt.Sprintf("10.0.%d.%d", rng.Intn(3), rng.Intn(50)),
			Timestamp: 1345507200000 + int64(i)*1733 - int64(rng.Intn(900)),
		}
		if rng.Intn(3) > 0 {
			e.UserID = int64(1000 + rng.Intn(20))
		}
		if i%2 == 0 {
			e.Details = map[string]string{"request_id": fmt.Sprintf("r%04x", rng.Int31n(1<<16)), "lang": "en"}
		}
		if i%3 == 0 {
			if e.Details == nil {
				e.Details = map[string]string{}
			}
			e.Details["trace"] = fmt.Sprintf("%016x", rng.Uint64())
			e.Details["tweet_id"] = fmt.Sprint(rng.Int63())
		}
		evs[i] = e
	}
	return evs
}

// addEvents is how tests reach the builder: each event marshalled and added
// as the record a row file would hold.
func addEvents(t testing.TB, b *Builder, evs []*events.ClientEvent) {
	t.Helper()
	for i, e := range evs {
		if err := b.AddRecord(e.Marshal()); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
	}
}

func writeTestChunk(t testing.TB, evs []*events.ClientEvent) *hdfs.FS {
	t.Helper()
	fs := hdfs.New(0)
	var b Builder
	addEvents(t, &b, evs)
	if _, err := b.Flush(fs, testDir, 0); err != nil {
		t.Fatal(err)
	}
	if err := WriteSealed(fs, testDir, 1); err != nil {
		t.Fatal(err)
	}
	return fs
}

// TestRoundTrip: what the Builder seals, Load reads back — every row as the
// event it was, the zone map as the chunk's true ranges, and the dictionary
// columns under the ID-vector contract (sorted distinct values, one
// in-range ID per row).
func TestRoundTrip(t *testing.T) {
	evs := testEvents(300)
	fs := writeTestChunk(t, evs)
	if !Sealed(fs, testDir) {
		t.Fatal("sealed dir does not read as sealed")
	}
	if n, err := SealedChunks(fs, testDir); err != nil || n != 1 {
		t.Fatalf("SealedChunks = %d, %v", n, err)
	}
	m, err := ReadMeta(fs, MetaPath(testDir, 0))
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != len(evs) || m.Cols != All {
		t.Fatalf("meta: %d rows, columns %08b", m.Rows, m.Cols)
	}
	var cc Columns
	if err := cc.Load(fs, Base(testDir, 0), m, All); err != nil {
		t.Fatal(err)
	}
	minTs, maxTs := evs[0].Timestamp, evs[0].Timestamp
	for row, want := range evs {
		got, err := cc.Event(row)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(&got, want) {
			t.Fatalf("row %d = %+v, sealed from %+v", row, got, want)
		}
		if (cc.LoggedIn[row] == 1) != want.LoggedIn() {
			t.Fatalf("row %d logged_in = %d", row, cc.LoggedIn[row])
		}
		minTs, maxTs = min(minTs, want.Timestamp), max(maxTs, want.Timestamp)
	}
	if m.MinTs != minTs || m.MaxTs != maxTs {
		t.Fatalf("zone map [%d, %d], chunk spans [%d, %d]", m.MinTs, m.MaxTs, minTs, maxTs)
	}
	for _, col := range []DictColumn{cc.Name, cc.SessionID, cc.IP} {
		if !sort.StringsAreSorted(col.Dict) || len(col.IDs) != m.Rows {
			t.Fatalf("dictionary column: sorted %v, %d ids for %d rows", sort.StringsAreSorted(col.Dict), len(col.IDs), m.Rows)
		}
		for i := 1; i < len(col.Dict); i++ {
			if col.Dict[i] == col.Dict[i-1] {
				t.Fatalf("dictionary repeats %q", col.Dict[i])
			}
		}
	}
	if m.MinName != cc.Name.Dict[0] || m.MaxName != cc.Name.Dict[len(cc.Name.Dict)-1] {
		t.Fatalf("zone map names [%s, %s], dictionary [%s, %s]", m.MinName, m.MaxName, cc.Name.Dict[0], cc.Name.Dict[len(cc.Name.Dict)-1])
	}
}

// wireMessage encodes a client event by hand, so a test can put on the wire
// what Marshal never writes: no name field, or a details map with a key
// twice. Field ids are the wire contract's.
func wireMessage(name *string, ts int64, details ...[2]string) []byte {
	enc := thrift.NewCompactEncoder()
	enc.WriteStructBegin()
	if name != nil {
		enc.WriteFieldBegin(thrift.STRING, 2)
		enc.WriteString(*name)
	}
	enc.WriteFieldBegin(thrift.STRING, 4)
	enc.WriteString("s1")
	enc.WriteFieldBegin(thrift.I64, 6)
	enc.WriteI64(ts)
	if len(details) > 0 {
		enc.WriteFieldBegin(thrift.MAP, 7)
		enc.WriteMapBegin(thrift.STRING, thrift.STRING, len(details))
		for _, kv := range details {
			enc.WriteString(kv[0])
			enc.WriteString(kv[1])
		}
	}
	enc.WriteFieldStop()
	enc.WriteStructEnd()
	return append([]byte(nil), enc.Bytes()...)
}

// flushed flushes b as chunk 0 of a fresh file system and returns every
// file it wrote.
func flushed(t testing.TB, b *Builder) map[string]string {
	t.Helper()
	fs := hdfs.New(0)
	if _, err := b.Flush(fs, testDir, 0); err != nil {
		t.Fatal(err)
	}
	if b.Rows() != 0 {
		t.Fatalf("builder holds %d rows after Flush", b.Rows())
	}
	infos, err := fs.Walk(testDir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]string)
	for _, fi := range infos {
		data, err := fs.ReadFile(fi.Path)
		if err != nil {
			t.Fatal(err)
		}
		files[fi.Path] = string(data)
	}
	if len(files) != len(ColumnNames)+1 {
		t.Fatalf("Flush wrote %d files, want %d", len(files), len(ColumnNames)+1)
	}
	return files
}

// TestBuilderDetailsFromTheWire: pairs arrive in wire order with repeats,
// and seal as the map Decode makes of them — keys sorted, a repeated key
// keeping its last value — byte for byte what the deduplicated message seals
// as.
func TestBuilderDetailsFromTheWire(t *testing.T) {
	name := "web:home:timeline:stream:tweet:impression"
	var wire, clean Builder
	if err := wire.AddRecord(wireMessage(&name, 5, [2]string{"rank", "first"}, [2]string{"lang", "en"},
		[2]string{"rank", "second"}, [2]string{"a", ""}, [2]string{"rank", "last"})); err != nil {
		t.Fatal(err)
	}
	if err := clean.AddRecord(wireMessage(&name, 5, [2]string{"a", ""}, [2]string{"lang", "en"}, [2]string{"rank", "last"})); err != nil {
		t.Fatal(err)
	}
	got := flushed(t, &wire)
	if want := flushed(t, &clean); !reflect.DeepEqual(got, want) {
		t.Fatal("a details map with a repeated key seals to other bytes than its last-wins meaning")
	}
	col, err := decodeDetails("details", []byte(got[Base(testDir, 0)+".details"]), 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := map[string]string{"a": "", "lang": "en", "rank": "last"}; !reflect.DeepEqual(col.At(0), want) {
		t.Fatalf("details = %v, want %v", col.At(0), want)
	}
}

// TestDetailsEncodings: each key of a chunk takes the smallest encoding that
// admits all its values — hex only for lowercase even-length hex, uvarint
// only for decimal as strconv writes it, a dictionary only when strictly
// smaller — and every value reads back as it was written.
func TestDetailsEncodings(t *testing.T) {
	for _, tc := range []struct {
		vals []string
		want byte
	}{
		{[]string{"0f", "00ff", "deadbeef"}, encHex},
		{[]string{"ABCD", "abcd"}, encRaw},
		{[]string{"abc", "ab"}, encRaw},
		{[]string{"0", "7", "1000"}, encUvarint},
		{[]string{"12"}, encUvarint}, // hex too, and as small: the tie goes to uvarint
		{[]string{"0", "00"}, encRaw},
		{[]string{"0123", "123"}, encRaw},
		{[]string{"18446744073709551615", "1"}, encUvarint},
		{[]string{"18446744073709551616", "1"}, encRaw},
		{[]string{"-1", "1"}, encRaw},
		{[]string{"", "x", ""}, encRaw},
		{[]string{"\xff\xfe", "ok"}, encRaw},
		{[]string{"en", "en", "en", "en", "en", "fr"}, encDict},
		{[]string{"12", "ab", "12"}, encHex},
		{[]string{"00ff", "not hex", "ab12"}, encRaw},
	} {
		var b Builder
		name := "web:home:timeline:stream:tweet:impression"
		for i, v := range tc.vals {
			if err := b.AddRecord(wireMessage(&name, int64(i), [2]string{"k", v})); err != nil {
				t.Fatal(err)
			}
		}
		col, err := decodeDetails("details", []byte(flushed(t, &b)[Base(testDir, 0)+".details"]), len(tc.vals))
		if err != nil {
			t.Fatal(err)
		}
		if len(col.vals) != 1 || col.vals[0].tag != tc.want {
			t.Errorf("%q: encoding %d, want %d", tc.vals, col.vals[0].tag, tc.want)
		}
		for row, v := range tc.vals {
			if got := col.At(row)["k"]; got != v {
				t.Errorf("%q: row %d reads back %q", tc.vals, row, got)
			}
		}
	}
}

// TestBuilderNames: a message without the name field seals as the zero
// name, unvalidated, as decoding it always allowed; every name that is on
// the wire is held to ParseName, the zero name's rendering included, and a
// row that fails is not added — the rows before it flush to the bytes they
// would have without it, and the builder goes on accepting.
func TestBuilderNames(t *testing.T) {
	good := "web:home:timeline:stream:tweet:impression"
	var b, want Builder
	for _, dst := range []*Builder{&b, &want} {
		if err := dst.AddRecord(wireMessage(nil, 1)); err != nil {
			t.Fatalf("message without a name: %v", err)
		}
		if err := dst.AddRecord(wireMessage(&good, 2, [2]string{"k", "v"})); err != nil {
			t.Fatal(err)
		}
	}
	for _, bad := range []string{"", zeroName, "Web:home:timeline:stream:tweet:impression", "web:home"} {
		if err := b.AddRecord(wireMessage(&bad, 3, [2]string{"never", "sealed"})); err == nil {
			t.Fatalf("name %q was accepted", bad)
		}
		if b.Rows() != 2 {
			t.Fatalf("a failed Add left %d rows, want 2", b.Rows())
		}
	}
	for _, dst := range []*Builder{&b, &want} {
		if err := dst.AddRecord(wireMessage(&good, 4)); err != nil {
			t.Fatal(err)
		}
	}
	got := flushed(t, &b)
	if !reflect.DeepEqual(got, flushed(t, &want)) {
		t.Fatal("failed Adds changed the bytes of the rows around them")
	}
	names, err := decodeDict("name", []byte(got[Base(testDir, 0)+".name"]), 3)
	if err != nil {
		t.Fatal(err)
	}
	if names.At(0) != zeroName || names.At(1) != good {
		t.Fatalf("names = %q, %q", names.At(0), names.At(1))
	}
	m, err := decodeMeta("meta", []byte(got[MetaPath(testDir, 0)]))
	if err != nil || m.MinName != zeroName || m.MaxName != good || m.MinTs != 1 || m.MaxTs != 4 {
		t.Fatalf("meta = %+v, %v", m, err)
	}
}

// TestBuilderReuse: a builder that has flushed writes its next chunk to the
// bytes a fresh one does — no dictionary entry, timestamp base or zone-map
// bound survives Flush.
func TestBuilderReuse(t *testing.T) {
	evs := testEvents(200)
	var reused, fresh Builder
	addEvents(t, &reused, evs[:120])
	flushed(t, &reused)
	addEvents(t, &reused, evs[120:])
	addEvents(t, &fresh, evs[120:])
	if !reflect.DeepEqual(flushed(t, &reused), flushed(t, &fresh)) {
		t.Fatal("a reused builder and a fresh one seal the same rows to different bytes")
	}
	fs := hdfs.New(0)
	if _, err := reused.Flush(fs, testDir, 1); err != nil || fs.Exists(MetaPath(testDir, 1)) {
		t.Fatalf("Flush of an empty builder: %v, wrote a chunk: %v", err, fs.Exists(MetaPath(testDir, 1)))
	}
}

// TestLoadWidens: a second Load reads only the column files the first did
// not, and a Load of nothing new reads none.
func TestLoadWidens(t *testing.T) {
	fs := writeTestChunk(t, testEvents(64))
	m, err := ReadMeta(fs, MetaPath(testDir, 0))
	if err != nil {
		t.Fatal(err)
	}
	opens := func() int64 { return fs.Snapshot().OpenOps }
	var cc Columns
	o0 := opens()
	if err := cc.Load(fs, Base(testDir, 0), m, Name|Timestamp); err != nil {
		t.Fatal(err)
	}
	if got := opens() - o0; got != 2 {
		t.Fatalf("first Load opened %d files, want 2", got)
	}
	if cc.UserID != nil || cc.IP.IDs != nil {
		t.Fatal("Load decoded a column nobody asked for")
	}
	o1 := opens()
	if err := cc.Load(fs, Base(testDir, 0), m, Name|UserID|Details); err != nil {
		t.Fatal(err)
	}
	if got := opens() - o1; got != 2 {
		t.Fatalf("widening Load opened %d files, want 2 (user_id, details)", got)
	}
	o2 := opens()
	if err := cc.Load(fs, Base(testDir, 0), m, Name|UserID); err != nil || opens() != o2 {
		t.Fatalf("Load of loaded columns: %v, %d opens", err, opens()-o2)
	}
}

// payloads splits a file image into its record payloads.
func payloads(t testing.TB, data []byte) [][]byte {
	t.Helper()
	var recs [][]byte
	for len(data) > 0 {
		rec, rest, err := recordio.NextCRCRecord(data)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, append([]byte(nil), rec...))
		data = rest
	}
	return recs
}

// keyHeader is one key's record of a details column file, split at its
// fields.
type keyHeader struct {
	tag     byte
	count   uint64
	present []byte
	values  []byte
}

// withKeyRecord rewrites the record of one key of a details column file
// image, which must have the given encoding, and reframes the file.
func withKeyRecord(t testing.TB, data []byte, key string, tag byte, edit func(*keyHeader)) []byte {
	t.Helper()
	p := payloads(t, data)
	c := recordio.NewCursor(p[0])
	idx := -1
	for i, n := 0, c.Count("keys"); i < n; i++ {
		if string(c.Bytes("key")) == key {
			idx = i + 1
		}
	}
	if idx < 0 || !c.Ok() {
		t.Fatalf("details column has no key %q", key)
	}
	c = recordio.NewCursor(p[idx])
	h := keyHeader{tag: c.Byte("tag"), count: c.Uvarint("count"), present: c.Bytes("presence")}
	h.values = p[idx][len(p[idx])-c.Remaining():]
	if !c.Ok() || h.tag != tag {
		t.Fatalf("key %q has encoding %d, want %d", key, h.tag, tag)
	}
	edit(&h)
	rec := binary.AppendUvarint([]byte{h.tag}, h.count)
	rec = appendString(rec, h.present)
	p[idx] = append(rec, h.values...)
	return frame(p...)
}

// corruption is one way to damage a column file image.
type corruption struct {
	name   string
	col    string
	mutate func(t testing.TB, b []byte) []byte
	want   error
}

// corruptions is the corruption matrix at the codec's level: the storage
// failures columnar's scan-level matrix drives (torn tail, flipped bit,
// over-long column) plus the ones only a crafted, CRC-valid file can hold.
var corruptions = []corruption{
	{"torn tail", "name", func(_ testing.TB, b []byte) []byte { return b[:len(b)-3] }, recordio.ErrTruncated},
	{"bit flip", "user_id", func(_ testing.TB, b []byte) []byte { b[len(b)-1] ^= 0x40; return b }, recordio.ErrCorrupt},
	{"meta bit flip", "meta", func(_ testing.TB, b []byte) []byte { b[len(b)-1] ^= 0x01; return b }, recordio.ErrCorrupt},
	{"over-long varints", "user_id", func(t testing.TB, b []byte) []byte {
		return frame(append(payloads(t, b)[0], 0))
	}, recordio.ErrCorrupt},
	{"short varints", "timestamp", func(t testing.TB, b []byte) []byte {
		p := payloads(t, b)[0]
		return frame(p[:len(p)/2])
	}, recordio.ErrCorrupt},
	{"dict id out of range", "session_id", func(t testing.TB, b []byte) []byte {
		p := payloads(t, b)
		n, _ := binary.Uvarint(p[0]) // dictionary size: the first ID past it
		p[1][0] = byte(n)
		return frame(p...)
	}, recordio.ErrCorrupt},
	{"dict entry past the record", "name", func(t testing.TB, b []byte) []byte {
		p := payloads(t, b)
		p[0][1] = 0x7f // the first entry claims 127 bytes of a 40-byte record
		p[0] = p[0][:40]
		return frame(p...)
	}, recordio.ErrCorrupt},
	{"ids record missing", "ip", func(t testing.TB, b []byte) []byte { return frame(payloads(t, b)[0]) }, recordio.ErrCorrupt},
	{"rle run past the chunk", "initiator", func(t testing.TB, b []byte) []byte {
		p := payloads(t, b)[0]
		return frame(append(p[:1:1], 0xff, 0x7f)) // one run of 16383 rows
	}, recordio.ErrCorrupt},
	{"rle zero run", "logged_in", func(t testing.TB, b []byte) []byte { return frame([]byte{1, 0}) }, recordio.ErrCorrupt},
	{"rle ends early", "logged_in", func(t testing.TB, b []byte) []byte { return frame([]byte{1, 5}) }, recordio.ErrCorrupt},
	{"details key count lies", "details", func(t testing.TB, b []byte) []byte {
		p := payloads(t, b)
		_, n := binary.Uvarint(p[0])
		p[0] = append(binary.AppendUvarint(nil, 1<<40), p[0][n:]...)
		return frame(p...)
	}, recordio.ErrCorrupt},
	{"details key record missing", "details", func(t testing.TB, b []byte) []byte {
		p := payloads(t, b)
		return frame(p[:len(p)-1]...)
	}, recordio.ErrCorrupt},
	{"details pair count lies", "details", func(t testing.TB, b []byte) []byte { // a key's count of rows, that is of pairs
		return withKeyRecord(t, b, "tweet_id", encUvarint, func(h *keyHeader) { h.count = 1 << 40 })
	}, recordio.ErrCorrupt},
	{"details presence popcount lies", "details", func(t testing.TB, b []byte) []byte {
		return withKeyRecord(t, b, "request_id", encRaw, func(h *keyHeader) { h.present[0] |= 0x02 }) // row 1 has no details
	}, recordio.ErrCorrupt},
	{"details presence bitmap too long", "details", func(t testing.TB, b []byte) []byte {
		return withKeyRecord(t, b, "trace", encHex, func(h *keyHeader) { h.present = append(h.present, 0) })
	}, recordio.ErrCorrupt},
	{"details dict id out of range", "details", func(t testing.TB, b []byte) []byte {
		return withKeyRecord(t, b, "lang", encDict, func(h *keyHeader) { h.values[len(h.values)-1] = 7 })
	}, recordio.ErrCorrupt},
	{"details short hex vector", "details", func(t testing.TB, b []byte) []byte {
		return withKeyRecord(t, b, "trace", encHex, func(h *keyHeader) { h.values = h.values[:len(h.values)-3] })
	}, recordio.ErrCorrupt},
	{"details unknown encoding", "details", func(t testing.TB, b []byte) []byte {
		return withKeyRecord(t, b, "lang", encDict, func(h *keyHeader) { h.tag = 9 })
	}, recordio.ErrCorrupt},
	{"details trailing bytes", "details", func(t testing.TB, b []byte) []byte {
		return withKeyRecord(t, b, "tweet_id", encUvarint, func(h *keyHeader) { h.values = append(h.values, 0, 0) })
	}, recordio.ErrCorrupt},
	{"meta row count absurd", "meta", func(t testing.TB, b []byte) []byte {
		var rec []byte
		rec = binary.AppendUvarint(rec, metaMagic)
		rec = binary.AppendUvarint(rec, metaVersion)
		rec = binary.AppendUvarint(rec, 1<<62)
		return frame(rec)
	}, recordio.ErrCorrupt},
	{"meta bad magic", "meta", func(t testing.TB, b []byte) []byte {
		p := payloads(t, b)[0]
		p[0] ^= 0x01
		return frame(p)
	}, recordio.ErrCorrupt},
	{"meta from a later version", "meta", func(t testing.TB, b []byte) []byte {
		p := payloads(t, b)[0]
		_, n := binary.Uvarint(p) // the version follows the magic
		p[n] = 9
		return frame(p)
	}, recordio.ErrCorrupt},
	{"meta from format 1", "meta", func(t testing.TB, b []byte) []byte { // details as length-prefixed pairs
		p := payloads(t, b)[0]
		_, n := binary.Uvarint(p)
		p[n] = 1
		return frame(p)
	}, recordio.ErrCorrupt},
}

// TestCorruptionMatrix: every damaged file fails its Load (or ReadMeta)
// with the right recordio kind and its own path in the message.
func TestCorruptionMatrix(t *testing.T) {
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			fs := writeTestChunk(t, testEvents(120))
			path := Base(testDir, 0) + "." + tc.col
			data, err := fs.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := fs.Delete(path, false); err != nil {
				t.Fatal(err)
			}
			if err := fs.WriteFile(path, tc.mutate(t, data)); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			m, err := ReadMeta(fs, MetaPath(testDir, 0))
			if err == nil {
				var cc Columns
				err = cc.Load(fs, Base(testDir, 0), m, All)
			}
			runtime.ReadMemStats(&after)
			if !errors.Is(err, tc.want) {
				t.Fatalf("error = %v, want %v", err, tc.want)
			}
			// A count that lies must not size an allocation: the whole
			// chunk is a few kilobytes.
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
				t.Fatalf("the damaged load allocated %d bytes", alloc)
			}
			if !strings.Contains(err.Error(), path) {
				t.Fatalf("error %q does not name %s", err, path)
			}
		})
	}
}

// TestMissingColumn: a column file that is gone is hdfs.ErrNotFound with
// its path, and one the meta never listed is corruption, not a nil vector.
func TestMissingColumn(t *testing.T) {
	fs := writeTestChunk(t, testEvents(40))
	m, err := ReadMeta(fs, MetaPath(testDir, 0))
	if err != nil {
		t.Fatal(err)
	}
	path := Base(testDir, 0) + ".session_id"
	if err := fs.Delete(path, false); err != nil {
		t.Fatal(err)
	}
	var cc Columns
	if err := cc.Load(fs, Base(testDir, 0), m, SessionID); !errors.Is(err, hdfs.ErrNotFound) || !strings.Contains(err.Error(), path) {
		t.Fatalf("missing file: %v", err)
	}
	m.Cols &^= IP
	if err := cc.Load(fs, Base(testDir, 0), m, IP); !errors.Is(err, recordio.ErrCorrupt) {
		t.Fatalf("unlisted column: %v", err)
	}
}

// decoderKinds numbers the decoders FuzzChunkColumns drives.
const decoderKinds = 6

// fuzzDecode runs one decoder over a file image and, when it accepts,
// checks what the typed reader promises its consumers.
func fuzzDecode(t *testing.T, kind uint8, rows int, data []byte) {
	const path = "/fuzz/_col-00000.x"
	var err error
	switch kind % decoderKinds {
	case 0:
		var col DictColumn
		if col, err = decodeDict(path, data, rows); err == nil {
			if len(col.IDs) != rows {
				t.Fatalf("dict: %d ids for %d rows", len(col.IDs), rows)
			}
			for _, id := range col.IDs {
				if int(id) >= len(col.Dict) {
					t.Fatalf("dict: id %d escapes a dictionary of %d", id, len(col.Dict))
				}
			}
		}
	case 1, 2:
		var vals []int64
		if vals, err = decodeVarints(path, data, rows, kind%decoderKinds == 2); err == nil && len(vals) != rows {
			t.Fatalf("varints: %d values for %d rows", len(vals), rows)
		}
	case 3:
		var vals []byte
		if vals, err = decodeRLE(path, data, rows); err == nil && len(vals) != rows {
			t.Fatalf("rle: %d values for %d rows", len(vals), rows)
		}
	case 4:
		var col DetailsColumn
		if col, err = decodeDetails(path, data, rows); err == nil {
			for row := 0; row < rows; row++ {
				col.At(row)
			}
		}
	case 5:
		var m Meta
		if m, err = decodeMeta(path, data); err == nil && (m.Rows < 0 || m.Rows > recordio.MaxRecordSize) {
			t.Fatalf("meta: %d rows", m.Rows)
		}
	}
	if err == nil {
		return
	}
	if !errors.Is(err, recordio.ErrCorrupt) && !errors.Is(err, recordio.ErrTruncated) {
		t.Fatalf("error %q is neither ErrCorrupt nor ErrTruncated", err)
	}
	if !strings.Contains(err.Error(), path) {
		t.Fatalf("error %q does not name the file", err)
	}
}

// FuzzChunkColumns drives the dictionary/ID, varint, delta, run-length,
// details and meta decoders with arbitrary file images. The property: no
// panic, no allocation sized by a lying count; an accepted column has
// exactly rows rows and every dictionary ID in range; a rejected one fails
// with ErrCorrupt or ErrTruncated and names the file. The corpus starts
// from a real chunk and the corruption matrix's damage to it.
func FuzzChunkColumns(f *testing.F) {
	const rows = 24 // small images: the engine minimizes every input that finds new coverage
	fs := writeTestChunk(f, testEvents(rows))
	kindOf := map[string][]uint8{
		"name": {0}, "session_id": {0}, "ip": {0}, "user_id": {1}, "timestamp": {2},
		"initiator": {3}, "logged_in": {3}, "details": {4}, "meta": {5},
	}
	image := func(col string) []byte {
		data, err := fs.ReadFile(Base(testDir, 0) + "." + col)
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	for col, kinds := range kindOf {
		for _, kind := range kinds {
			f.Add(kind, uint16(rows), image(col))
			f.Add(kind, uint16(rows+1), image(col))
			f.Add(kind, uint16(0), image(col))
		}
	}
	for _, tc := range corruptions {
		f.Add(kindOf[tc.col][0], uint16(rows), tc.mutate(f, image(tc.col)))
	}
	// Details columns whose keys sit at the edges of every encoding.
	for _, recs := range typeEdges() {
		var b Builder
		for _, rec := range recs {
			if err := b.AddRecord(rec); err != nil {
				f.Fatal(err)
			}
		}
		data := []byte(flushed(f, &b)[Base(testDir, 0)+".details"])
		f.Add(uint8(4), uint16(len(recs)), data)
		f.Add(uint8(4), uint16(len(recs)+8), data)
	}
	f.Add(uint8(0), uint16(3), []byte{})
	f.Fuzz(func(t *testing.T, kind uint8, rows uint16, data []byte) {
		fuzzDecode(t, kind, int(rows), data)
	})
}

// TestNextCRCRecordMatchesReader: the in-place parser and the streaming
// CRCReader agree on every prefix and every single-bit flip of a two-record
// file — same payloads, same terminal error kind.
func TestNextCRCRecordMatchesReader(t *testing.T) {
	file := frame([]byte("the first record"), bytes.Repeat([]byte{0xa5}, 200))
	check := func(data []byte) {
		t.Helper()
		r := recordio.NewCRCReader(bytes.NewReader(data))
		rest := data
		for {
			want, werr := r.Next()
			got, next, gerr := recordio.NextCRCRecord(rest)
			if (werr == nil) != (gerr == nil) || !bytes.Equal(got, want) {
				t.Fatalf("in place: %q, %v; reader: %q, %v", got, gerr, want, werr)
			}
			if werr != nil {
				for _, kind := range []error{recordio.ErrCorrupt, recordio.ErrTruncated} {
					if errors.Is(werr, kind) != errors.Is(gerr, kind) {
						t.Fatalf("in place: %v; reader: %v", gerr, werr)
					}
				}
				return
			}
			rest = next
		}
	}
	for n := 0; n <= len(file); n++ {
		check(file[:n])
	}
	for i := range file {
		for bit := 0; bit < 8; bit++ {
			flipped := append([]byte(nil), file...)
			flipped[i] ^= 1 << bit
			check(flipped)
		}
	}
}
