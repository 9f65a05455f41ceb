package chunk

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strconv"
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

// writeChunk writes the rows added to b as chunk i of dir, one image file,
// as the columnar seal writes it, and returns its zone map, the chunk's
// entry in a manifest; with no rows it writes nothing.
func writeChunk(b *Builder, fs *hdfs.FS, dir string, i int) (Meta, error) {
	img, m, err := b.AppendImage(nil)
	if err != nil || img == nil {
		return m, err
	}
	return m, fs.WriteFile(Path(dir, i), img)
}

// writeTestChunk seals evs as the one chunk of testDir, its manifest
// included.
func writeTestChunk(t testing.TB, evs []*events.ClientEvent) *hdfs.FS {
	t.Helper()
	fs := hdfs.New(0)
	var b Builder
	addEvents(t, &b, evs)
	m, err := writeChunk(&b, fs, testDir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteSealed(fs, testDir, []Meta{m}); err != nil {
		t.Fatal(err)
	}
	return fs
}

// testChunk is the image file of chunk 0 of testDir.
var testChunk = Path(testDir, 0)

// imageMeta reads the zone map and section table of the chunk image at
// path from the image itself, its table and its meta section, with ranged
// reads: what the manifest of a seal that wrote the image lists.
func imageMeta(fs *hdfs.FS, path string) (Meta, error) {
	r, err := fs.Open(path)
	if err != nil {
		return Meta{}, fmt.Errorf("chunk: %s: %w", path, err)
	}
	return readMeta(path, int(r.Size()), fileSource(fs, path))
}

// loadChunk reads the need columns of the chunk image at path through
// LoadChunk, under the zone map imageMeta reads.
func loadChunk(fs *hdfs.FS, path string, need Set) (*Batch, error) {
	m, err := imageMeta(fs, path)
	if err != nil {
		return nil, err
	}
	return LoadChunk(fs, path, m, need)
}

// sectionNames are the sections of an image in order.
var sectionNames = append([]string{"meta"}, ColumnNames[:]...)

// sectionsOf splits a chunk image into its sections, in image order.
func sectionsOf(tb testing.TB, img []byte) [][]byte {
	tb.Helper()
	t, err := imageSections(imagePath, img[:min(len(img), maxTable)], len(img))
	if err != nil {
		tb.Fatal(err)
	}
	out := make([][]byte, len(t)-1)
	for s := range out {
		out[s] = img[t[s]:t[s+1]]
	}
	return out
}

// imageOf frames a section table for sections and returns the image they
// make, so a test can put any section, damaged or empty, in an image whose
// table is true.
func imageOf(sections [][]byte) []byte {
	table := binary.AppendUvarint(nil, imageMagic)
	table = binary.AppendUvarint(table, metaVersion)
	table = binary.AppendUvarint(table, uint64(len(sections)))
	for _, sec := range sections {
		table = binary.AppendUvarint(table, uint64(len(sec)))
	}
	img := frame(table)
	for _, sec := range sections {
		img = append(img, sec...)
	}
	return img
}

// rewrite replaces the file at path with data.
func rewrite(tb testing.TB, fs *hdfs.FS, path string, data []byte) {
	tb.Helper()
	if err := fs.Delete(path, false); err != nil {
		tb.Fatal(err)
	}
	if err := fs.WriteFile(path, data); err != nil {
		tb.Fatal(err)
	}
}

// TestRoundTrip: what the Builder seals, LoadChunk reads back under the
// manifest's zone map — every row as the event it was, the zone map as the
// chunk's true ranges and as the image's own meta section holds it, and
// the dictionary columns under the ID-vector contract (sorted distinct
// values, one in-range ID per row). AppendImage appends the image to what
// dst holds, and ReadImage reads the image back from memory to the same
// rows.
func TestRoundTrip(t *testing.T) {
	evs := testEvents(300)
	fs := writeTestChunk(t, evs)
	chunks, rows, err := HourFiles(fs, testDir)
	if err != nil || len(chunks) != 1 || rows != nil {
		t.Fatalf("HourFiles = %v, %v, %v; want the manifest of one chunk", chunks, rows, err)
	}
	m := chunks[0]
	if own, err := imageMeta(fs, testChunk); err != nil || own != m {
		t.Fatalf("the image's own zone map %+v (%v), the manifest's %+v", own, err, m)
	}
	if m.Size() != int64(m.at[len(m.at)-1]) || m.at[0] <= 0 {
		t.Fatalf("manifest table %v", m.at)
	}
	if m.Rows != len(evs) {
		t.Fatalf("meta: %d rows", m.Rows)
	}
	b, err := LoadChunk(fs, testChunk, m, All)
	if err != nil {
		t.Fatal(err)
	}
	cc := &b.Columns
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

	file, err := fs.ReadFile(testChunk)
	if err != nil {
		t.Fatal(err)
	}
	var again Builder
	addEvents(t, &again, evs)
	img, again0, err := again.AppendImage([]byte("prefix"))
	if err != nil {
		t.Fatal(err)
	}
	if string(img) != "prefix"+string(file) || again0 != m {
		t.Fatal("AppendImage did not append the image to dst, or returned another zone map")
	}
	got, err := ReadImage(testChunk, file)
	if err != nil {
		t.Fatal(err)
	}
	if col := sameRows(&got.Columns, cc); col != "" {
		t.Fatalf("column %s read from memory differs from the one read from the file", col)
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

// flushed flushes b as chunk 0 of a fresh file system, requires it to have
// written the one image file, and returns the image's sections by name.
func flushed(t testing.TB, b *Builder) map[string]string {
	t.Helper()
	fs := hdfs.New(0)
	if _, err := writeChunk(b, fs, testDir, 0); err != nil {
		t.Fatal(err)
	}
	if b.Rows() != 0 {
		t.Fatalf("builder holds %d rows after AppendImage", b.Rows())
	}
	infos, err := fs.Walk(testDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Path != testChunk {
		t.Fatalf("writeChunk wrote %v, want the one file %s", infos, testChunk)
	}
	img, err := fs.ReadFile(testChunk)
	if err != nil {
		t.Fatal(err)
	}
	sections := make(map[string]string)
	for i, sec := range sectionsOf(t, img) {
		sections[sectionNames[i]] = string(sec)
	}
	return sections
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
	col, err := decodeDetails("details", []byte(got["details"]), 1, new(vectors))
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
		col, err := decodeDetails("details", []byte(flushed(t, &b)["details"]), len(tc.vals), new(vectors))
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

// TestDecimalLen: decimalLen is the length strconv.FormatUint writes, at
// zero, the uint64 edge, and on both sides of every power of ten.
func TestDecimalLen(t *testing.T) {
	xs := []uint64{0, math.MaxUint64}
	for p := uint64(1); p <= math.MaxUint64/10; p *= 10 {
		xs = append(xs, p-1, p, p+1, 10*p-1)
	}
	for _, x := range xs {
		if got, want := decimalLen(x), len(strconv.FormatUint(x, 10)); got != want {
			t.Errorf("decimalLen(%d) = %d, want %d", x, got, want)
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
	names, err := decodeDict("name", []byte(got["name"]), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if names.At(0) != zeroName || names.At(1) != good {
		t.Fatalf("names = %q, %q", names.At(0), names.At(1))
	}
	m, err := decodeMeta("meta", []byte(got["meta"]))
	if err != nil || m.MinName != zeroName || m.MaxName != good || m.MinTs != 1 || m.MaxTs != 4 {
		t.Fatalf("meta = %+v, %v", m, err)
	}
}

// TestBuilderReuse: a builder that has flushed writes its next chunk to the
// bytes a fresh one does — no dictionary entry, timestamp base or zone-map
// bound survives AppendImage.
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
	if img, _, err := reused.AppendImage(nil); err != nil || img != nil {
		t.Fatalf("AppendImage of an empty builder: %v, appended %d bytes", err, len(img))
	}
}

// TestLoadWidens: a load under the manifest's zone map reads the sections
// of the columns it asks for and the image's last byte, which checks where
// the image ends, and no byte more; a widening reads only the sections the
// first did not, and a widening to nothing new reads nothing.
func TestLoadWidens(t *testing.T) {
	fs := writeTestChunk(t, testEvents(64))
	img, err := fs.ReadFile(testChunk)
	if err != nil {
		t.Fatal(err)
	}
	size := make(map[string]int64)
	for i, sec := range sectionsOf(t, img) {
		size[sectionNames[i]] = int64(len(sec))
	}
	chunks, err := ReadManifest(fs, testDir)
	if err != nil {
		t.Fatal(err)
	}
	read := func() int64 { return fs.Snapshot().BytesRead }
	r0 := read()
	b, err := LoadChunk(fs, testChunk, chunks[0], Name|Timestamp)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := read()-r0, size["name"]+size["timestamp"]+1; got != want {
		t.Fatalf("first load read %d bytes, the two sections and the image's last byte hold %d", got, want)
	}
	if b.UserID != nil || b.IP.IDs != nil {
		t.Fatal("LoadChunk decoded a column nobody asked for")
	}
	r1 := read()
	if err := b.Widen(Name | UserID | Details); err != nil {
		t.Fatal(err)
	}
	if got, want := read()-r1, size["user_id"]+size["details"]; got != want {
		t.Fatalf("widening read %d bytes, the user_id and details sections hold %d", got, want)
	}
	r2 := read()
	if err := b.Widen(Name | UserID); err != nil || read() != r2 {
		t.Fatalf("widening to loaded columns: %v, %d bytes read", err, read()-r2)
	}
}

// TestProjectionReadsPartOfTheImage: a one-column load of an image that
// spans many blocks reads that column's section — fewer bytes and fewer
// blocks than the image holds — and so does the meta read before it.
func TestProjectionReadsPartOfTheImage(t *testing.T) {
	fs := hdfs.New(1 << 10)
	var b Builder
	addEvents(t, &b, testEvents(2000))
	if _, err := writeChunk(&b, fs, testDir, 0); err != nil {
		t.Fatal(err)
	}
	infos, err := fs.Walk(testDir)
	if err != nil || len(infos) != 1 {
		t.Fatal(infos, err)
	}
	fi := infos[0]
	if fi.Blocks < 8 {
		t.Fatalf("the image spans %d blocks, want many", fi.Blocks)
	}
	before := fs.Snapshot()
	batch, err := loadChunk(fs, testChunk, Initiator)
	if err != nil {
		t.Fatal(err)
	}
	defer batch.Release()
	after := fs.Snapshot()
	bytesRead, blocksRead := after.BytesRead-before.BytesRead, after.BlocksRead-before.BlocksRead
	t.Logf("one column of a %d-byte, %d-block image: %d bytes, %d blocks read", fi.Size, fi.Blocks, bytesRead, blocksRead)
	if bytesRead*4 >= fi.Size || blocksRead*2 >= int64(fi.Blocks) {
		t.Fatalf("reading one column of a %d-byte, %d-block image read %d bytes, %d blocks", fi.Size, fi.Blocks, bytesRead, blocksRead)
	}
	if batch.Rows != 2000 || len(batch.Initiator) != 2000 || batch.Details.vals != nil {
		t.Fatalf("the projected batch: %d rows, %d initiators", batch.Rows, len(batch.Initiator))
	}
}

// payloads splits a section into its record payloads.
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

// keyHeader is one key's record of a details section, split at its
// fields.
type keyHeader struct {
	tag     byte
	count   uint64
	present []byte
	values  []byte
}

// withKeyRecord rewrites the record of one key of a details section,
// which must have the given encoding, and reframes the section.
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

// corruption is one way to damage one section of a chunk image.
type corruption struct {
	name   string
	col    string
	mutate func(t testing.TB, b []byte) []byte
	want   error
}

// corruptions is the corruption matrix at the codec's level: the storage
// failures columnar's scan-level matrix drives (torn tail, flipped bit,
// over-long column) plus the ones only a crafted, CRC-valid section can
// hold.
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
	{"name dict out of order", "name", func(t testing.TB, b []byte) []byte {
		p := payloads(t, b)
		c := recordio.NewCursor(p[0])
		dict := make([]string, c.Count("dict size"))
		for i := range dict {
			dict[i] = string(c.Bytes("dict entry"))
		}
		slices.Reverse(dict) // the IDs stay in range
		p[0] = binary.AppendUvarint(nil, uint64(len(dict)))
		for _, e := range dict {
			p[0] = appendString(p[0], e)
		}
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
	{"details dict out of order", "details", func(t testing.TB, b []byte) []byte {
		return withKeyRecord(t, b, "lang", encDict, func(h *keyHeader) {
			c := recordio.NewCursor(h.values)
			size := c.Count("dict size")
			dict := make([][]byte, size, size+1)
			for i := range dict {
				dict[i] = c.Bytes("dict entry")
			}
			dict = append(dict, []byte("de")) // after "en": the IDs stay in range
			vals := binary.AppendUvarint(nil, uint64(len(dict)))
			for _, e := range dict {
				vals = appendString(vals, e)
			}
			h.values = append(vals, h.values[len(h.values)-c.Remaining():]...)
		})
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

// manifestCorruption is one way to damage a sealed hour's manifest, or an
// image it lists: the read of the hour must fail with want, naming file.
type manifestCorruption struct {
	name   string
	damage func(t testing.TB, fs *hdfs.FS, marker, img []byte)
	want   error
	file   string
}

// manifestCorruptions is the corruption matrix at the manifest's level.
var manifestCorruptions = []manifestCorruption{
	{"torn manifest", func(t testing.TB, fs *hdfs.FS, marker, _ []byte) {
		rewrite(t, fs, SealedPath(testDir), marker[:len(marker)-3])
	}, recordio.ErrTruncated, SealedPath(testDir)},
	{"bit-flipped manifest", func(t testing.TB, fs *hdfs.FS, marker, _ []byte) {
		marker[len(marker)-1] ^= 0x08
		rewrite(t, fs, SealedPath(testDir), marker)
	}, recordio.ErrCorrupt, SealedPath(testDir)},
	{"count-only marker", func(t testing.TB, fs *hdfs.FS, _, _ []byte) { // the marker of manifest version 2
		rec := binary.AppendUvarint(nil, sealedMagic)
		rec = binary.AppendUvarint(rec, 2)
		rewrite(t, fs, SealedPath(testDir), frame(binary.AppendUvarint(rec, 1)))
	}, recordio.ErrCorrupt, SealedPath(testDir)},
	{"manifest with an over-long varint", func(t testing.TB, fs *hdfs.FS, marker, _ []byte) {
		rec := payloads(t, marker)[0]
		_, n := binary.Uvarint(rec)
		_, v := binary.Uvarint(rec[n:])
		count := n + v // the chunk count, 1, follows the magic and the version
		long := append(append(slices.Clip(rec[:count]), 0x81, 0x00), rec[count+1:]...)
		rewrite(t, fs, SealedPath(testDir), frame(long))
	}, recordio.ErrCorrupt, SealedPath(testDir)},
	{"manifest over a missing image", func(t testing.TB, fs *hdfs.FS, _, _ []byte) {
		if err := fs.Delete(testChunk, false); err != nil {
			t.Fatal(err)
		}
	}, hdfs.ErrNotFound, testChunk},
	{"image shorter than the manifest's table", func(t testing.TB, fs *hdfs.FS, _, img []byte) {
		rewrite(t, fs, testChunk, img[:len(img)-1])
	}, recordio.ErrTruncated, testChunk},
	{"image longer than the manifest's table", func(t testing.TB, fs *hdfs.FS, _, img []byte) {
		rewrite(t, fs, testChunk, append(img, 0))
	}, recordio.ErrCorrupt, testChunk},
}

// TestCorruptionMatrix: an image with one damaged section, under a table
// that tells its true length, fails its LoadChunk — or its read of the
// image's own table and meta — with the right recordio kind, naming the
// file and the section. A damaged manifest, and a manifest over an image
// that is missing or that does not end where its table says, fail the
// hour's read with a typed error naming the file, before any of the hour
// is handed over, even when the one column read lies whole in the image.
func TestCorruptionMatrix(t *testing.T) {
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			fs := writeTestChunk(t, testEvents(120))
			img, err := fs.ReadFile(testChunk)
			if err != nil {
				t.Fatal(err)
			}
			sections := sectionsOf(t, img)
			i := slices.Index(sectionNames, tc.col)
			sections[i] = tc.mutate(t, append([]byte(nil), sections[i]...))
			rewrite(t, fs, testChunk, imageOf(sections))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err = loadChunk(fs, testChunk, All)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, tc.want) {
				t.Fatalf("error = %v, want %v", err, tc.want)
			}
			// A count that lies must not size an allocation: the whole
			// chunk is a few kilobytes.
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
				t.Fatalf("the damaged load allocated %d bytes", alloc)
			}
			if want := testChunk + "#" + tc.col; !strings.Contains(err.Error(), want) {
				t.Fatalf("error %q does not name %s", err, want)
			}
		})
	}
	for _, tc := range manifestCorruptions {
		t.Run(tc.name, func(t *testing.T) {
			fs := writeTestChunk(t, testEvents(120))
			marker, err := fs.ReadFile(SealedPath(testDir))
			if err != nil {
				t.Fatal(err)
			}
			img, err := fs.ReadFile(testChunk)
			if err != nil {
				t.Fatal(err)
			}
			tc.damage(t, fs, marker, img)
			batches := 0
			err = ReadHour(fs, testDir, Name, func(b *Batch) error {
				batches++
				b.Release()
				return nil
			})
			if !errors.Is(err, tc.want) || batches != 0 {
				t.Fatalf("error = %v after %d batches, want %v and none", err, batches, tc.want)
			}
			if !strings.Contains(err.Error(), tc.file) {
				t.Fatalf("error %q does not name %s", err, tc.file)
			}
		})
	}
}

// TestPathMatchesFmt: Path writes what fmt's %05d form writes, below,
// at and past five digits.
func TestPathMatchesFmt(t *testing.T) {
	for _, i := range []int{0, 7, 10, 9999, 12345, 99999, 100000, 1234567} {
		if got, want := Path(testDir, i), fmt.Sprintf("%s/_col-%05d.col", testDir, i); got != want {
			t.Errorf("Path(%d) = %q, fmt %q", i, got, want)
		}
	}
}

// TestVarintLengths: a varint column reads every value at the one-, two-,
// three- and four-byte boundaries of its zig-zag encoding as binary.Varint
// reads it, at the head of a record, in its middle and in its last bytes,
// where the read inline gives way to binary.Varint, and as plain values
// and as timestamp deltas. A value cut off at the record's end is
// corruption.
func TestVarintLengths(t *testing.T) {
	edges := []int64{0, -1, 63, -64, 64, -65, 8191, -8192, 8192, -8193,
		1<<20 - 1, -1 << 20, 1 << 20, -1<<20 - 1, 1<<27 - 1, 1 << 27, math.MaxInt64, math.MinInt64}
	for _, v := range edges {
		for _, pad := range []int{0, 1, 2, 3} { // one-byte values after it
			vals := append([]int64{v}, make([]int64, pad)...)
			vals = append(append(vals, v), make([]int64, pad)...)
			var rec, deltas []byte
			prev := int64(0)
			for _, x := range vals {
				rec = binary.AppendVarint(rec, x)
				deltas = binary.AppendVarint(deltas, x-prev)
				prev = x
			}
			for _, delta := range []bool{false, true} {
				data := rec
				if delta {
					data = deltas
				}
				got, err := decodeVarints("v", frame(data), len(vals), delta, nil)
				if err != nil || !slices.Equal(got, vals) {
					t.Fatalf("%d with %d after it, delta %v: %v, %v", v, pad, delta, got, err)
				}
			}
		}
	}
	// Non-minimal encodings read as binary.Varint reads them.
	for _, rec := range [][]byte{{0x80, 0x00, 0x02}, {0x81, 0x80, 0x00, 0x02}, {0x80, 0x80, 0x00, 0x80, 0x00}} {
		var want []int64
		for p := 0; p < len(rec); {
			v, n := binary.Varint(rec[p:])
			want, p = append(want, v), p+n
		}
		if got, err := decodeVarints("v", frame(rec), len(want), false, nil); err != nil || !slices.Equal(got, want) {
			t.Fatalf("% x: %v, %v; binary.Varint reads %v", rec, got, err, want)
		}
	}
	for _, tc := range []struct {
		rec  []byte
		rows int
	}{{[]byte{0x80}, 1}, {[]byte{0x80, 0x80}, 1}, {[]byte{0x00, 0x80, 0x80}, 2}, {[]byte{0x00, 0x00, 0x80, 0x80}, 3}, {[]byte{0x00, 0xff, 0xff, 0xff}, 2}} {
		if _, err := decodeVarints("v", frame(tc.rec), tc.rows, false, nil); !errors.Is(err, recordio.ErrCorrupt) || !strings.Contains(err.Error(), "varint value") {
			t.Fatalf("% x cut short: %v", tc.rec, err)
		}
	}
}

// TestMissingColumn: a column section that is empty is corruption naming
// the file and the column, while the columns beside it still load; a meta
// that does not list every column is corruption naming the meta; and an
// image cut short, before or after its zone map was read, is truncated.
func TestMissingColumn(t *testing.T) {
	fs := writeTestChunk(t, testEvents(40))
	img, err := fs.ReadFile(testChunk)
	if err != nil {
		t.Fatal(err)
	}
	sections := sectionsOf(t, img)
	i := slices.Index(sectionNames, "session_id")
	emptied := slices.Clone(sections)
	emptied[i] = nil
	rewrite(t, fs, testChunk, imageOf(emptied))
	if _, err := loadChunk(fs, testChunk, SessionID); !errors.Is(err, recordio.ErrCorrupt) || !strings.Contains(err.Error(), testChunk+"#session_id") {
		t.Fatalf("empty section: %v", err)
	}
	if b, err := loadChunk(fs, testChunk, IP|Name); err != nil || len(b.IP.IDs) != 40 {
		t.Fatalf("the sections beside an empty one: %v", err)
	}

	var rec []byte
	rec = binary.AppendUvarint(rec, metaMagic)
	rec = binary.AppendUvarint(rec, metaVersion)
	rec = binary.AppendUvarint(rec, 40)
	rec = binary.AppendVarint(rec, 1)
	rec = binary.AppendVarint(rec, 2)
	rec = appendString(rec, "a")
	rec = appendString(rec, "b")
	rec = binary.AppendUvarint(rec, uint64(len(ColumnNames)-1))
	for _, col := range ColumnNames {
		if col != "ip" {
			rec = appendString(rec, col)
		}
	}
	unlisted := slices.Clone(sections)
	unlisted[0] = frame(rec)
	rewrite(t, fs, testChunk, imageOf(unlisted))
	if _, err := imageMeta(fs, testChunk); !errors.Is(err, recordio.ErrCorrupt) || !strings.Contains(err.Error(), testChunk+"#meta") {
		t.Fatalf("unlisted column: %v", err)
	}

	rewrite(t, fs, testChunk, img)
	m, err := imageMeta(fs, testChunk)
	if err != nil {
		t.Fatal(err)
	}
	cut := img[:len(img)-len(sections[len(sections)-1])-1]
	rewrite(t, fs, testChunk, cut)
	if _, err := LoadChunk(fs, testChunk, m, SessionID|Details); !errors.Is(err, recordio.ErrTruncated) || !strings.Contains(err.Error(), testChunk) {
		t.Fatalf("image cut after its meta was read: %v", err)
	}
	if _, err := imageMeta(fs, testChunk); !errors.Is(err, recordio.ErrTruncated) || !strings.Contains(err.Error(), testChunk) {
		t.Fatalf("cut image: %v", err)
	}
	if err := fs.Delete(testChunk, false); err != nil {
		t.Fatal(err)
	}
	if _, err := imageMeta(fs, testChunk); !errors.Is(err, hdfs.ErrNotFound) || !strings.Contains(err.Error(), testChunk) {
		t.Fatalf("missing image: %v", err)
	}
}

// decoderKinds numbers the decoders FuzzChunkColumns drives.
const decoderKinds = 6

// fuzzDecode runs one decoder over a section and, when it accepts,
// checks what the typed reader promises its consumers.
func fuzzDecode(t *testing.T, kind uint8, rows int, data []byte) {
	const path = "/fuzz/_col-00000.x"
	var err error
	switch kind % decoderKinds {
	case 0:
		var col DictColumn
		if col, err = decodeDict(path, data, rows, nil); err == nil {
			if len(col.IDs) != rows {
				t.Fatalf("dict: %d ids for %d rows", len(col.IDs), rows)
			}
			for _, id := range col.IDs {
				if int(id) >= len(col.Dict) {
					t.Fatalf("dict: id %d escapes a dictionary of %d", id, len(col.Dict))
				}
			}
			want := slices.Clone(col.IDs)
			again, err := decodeDict(path, data, rows, poison(col.IDs, ^uint32(0)))
			if err != nil || !slices.Equal(again.IDs, want) || !slices.Equal(again.Dict, col.Dict) {
				t.Fatalf("dict: decoded again into its own vectors: %v, %v, %v", again.IDs, want, err)
			}
		}
	case 1, 2:
		delta := kind%decoderKinds == 2
		var vals []int64
		if vals, err = decodeVarints(path, data, rows, delta, nil); err == nil {
			if len(vals) != rows {
				t.Fatalf("varints: %d values for %d rows", len(vals), rows)
			}
			want := slices.Clone(vals)
			if again, err := decodeVarints(path, data, rows, delta, poison(vals, -1)); err != nil || !slices.Equal(again, want) {
				t.Fatalf("varints: decoded again into their own vector: %v, %v, %v", again, want, err)
			}
		}
	case 3:
		var vals []byte
		if vals, err = decodeRLE(path, data, rows, nil); err == nil {
			if len(vals) != rows {
				t.Fatalf("rle: %d values for %d rows", len(vals), rows)
			}
			want := slices.Clone(vals)
			if again, err := decodeRLE(path, data, rows, poison(vals, 0xff)); err != nil || !slices.Equal(again, want) {
				t.Fatalf("rle: decoded again into its own vector: %v, %v, %v", again, want, err)
			}
		}
	case 4:
		var col DetailsColumn
		v := new(vectors)
		if col, err = decodeDetails(path, data, rows, v); err == nil {
			want := make([]map[string]string, rows)
			for row := range want {
				want[row] = col.At(row)
			}
			for i := range v.details {
				poison(v.details[i].at, 0xfffffff0)
				poison(v.details[i].dict, "stale")
			}
			again, err := decodeDetails(path, data, rows, v)
			if err != nil {
				t.Fatalf("details: decoded again into its own vectors: %v", err)
			}
			for row := range want {
				if got := again.At(row); !reflect.DeepEqual(got, want[row]) {
					t.Fatalf("details: row %d decoded again into its own vectors: %v, want %v", row, got, want[row])
				}
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

// poison overwrites a vector's every element, up to its capacity, with
// junk, so that a decode into it that leaves an element unwritten, or
// keeps a stale length, reads differently from a decode into nil.
func poison[E any](vec []E, junk E) []E {
	for i := range vec[:cap(vec)] {
		vec[:cap(vec)][i] = junk
	}
	return vec
}

// FuzzChunkColumns drives the dictionary/ID, varint, delta, run-length,
// details and meta decoders with arbitrary sections. The property: no
// panic, no allocation sized by a lying count; an accepted column has
// exactly rows rows and every dictionary ID in range; a rejected one fails
// with ErrCorrupt or ErrTruncated and names the file. The corpus starts
// from the sections of a real chunk image and the corruption matrix's
// damage to them.
func FuzzChunkColumns(f *testing.F) {
	const rows = 24 // small images: the engine minimizes every input that finds new coverage
	fs := writeTestChunk(f, testEvents(rows))
	kindOf := map[string][]uint8{
		"name": {0}, "session_id": {0}, "ip": {0}, "user_id": {1}, "timestamp": {2},
		"initiator": {3}, "logged_in": {3}, "details": {4}, "meta": {5},
	}
	img, err := fs.ReadFile(testChunk)
	if err != nil {
		f.Fatal(err)
	}
	sections := sectionsOf(f, img)
	image := func(col string) []byte {
		return slices.Clone(sections[slices.Index(sectionNames, col)])
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
		data := []byte(flushed(f, &b)["details"])
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
