package chunk

import (
	"encoding/binary"
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"unilog/internal/events"
	"unilog/internal/hdfs"
	"unilog/internal/recordio"
)

const imagePath = "/staging/client_events/2012/08/21/00/dc1-agg00-00000.col"

// stageImage adds recs to a fresh builder and returns them as one image.
func stageImage(tb testing.TB, recs [][]byte) []byte {
	tb.Helper()
	var b Builder
	for _, rec := range recs {
		if err := b.AddRecord(rec); err != nil {
			tb.Fatal(err)
		}
	}
	img, _, err := b.AppendImage(nil)
	if err != nil {
		tb.Fatal(err)
	}
	if b.Rows() != 0 {
		tb.Fatalf("builder holds %d rows after AppendImage", b.Rows())
	}
	return img
}

// fileSet returns every file under dir of fs, by path.
func fileSet(tb testing.TB, fs *hdfs.FS, dir string) map[string]string {
	tb.Helper()
	infos, err := fs.Walk(dir)
	if errors.Is(err, hdfs.ErrNotFound) {
		return map[string]string{}
	}
	if err != nil {
		tb.Fatal(err)
	}
	files := make(map[string]string)
	for _, fi := range infos {
		data, err := fs.ReadFile(fi.Path)
		if err != nil {
			tb.Fatal(err)
		}
		files[fi.Path] = string(data)
	}
	return files
}

func marshalAll(evs []*events.ClientEvent) [][]byte {
	recs := make([][]byte, len(evs))
	for i, e := range evs {
		recs[i] = e.Marshal()
	}
	return recs
}

// rechunk reads images back and re-chunks their rows into chunks of
// chunkRows in dir of a fresh file system, as the log mover does.
func rechunk(tb testing.TB, images [][]byte, chunkRows int) (*hdfs.FS, error) {
	tb.Helper()
	fs := hdfs.New(0)
	var b Builder
	chunks := 0
	flush := func() {
		if _, err := writeChunk(&b, fs, testDir, chunks); err != nil {
			tb.Fatal(err)
		}
		chunks++
	}
	for _, img := range images {
		batch, err := ReadImage(imagePath, img)
		if err != nil {
			return nil, err
		}
		for lo := 0; lo < batch.Rows; {
			hi := min(batch.Rows, lo+chunkRows-b.Rows())
			if err := b.AddColumns(&batch.Columns, lo, hi); err != nil {
				return nil, err
			}
			if b.Rows() == chunkRows {
				flush()
			}
			lo = hi
		}
		batch.Release()
	}
	if b.Rows() > 0 {
		flush()
	}
	return fs, nil
}

// onePass seals the records AddRecord accepts into chunks of chunkRows in
// dir of a fresh file system, and reports which it refused.
func onePass(tb testing.TB, recs [][]byte, chunkRows int) (*hdfs.FS, []bool) {
	tb.Helper()
	fs := hdfs.New(0)
	var b Builder
	refused := make([]bool, len(recs))
	chunks := 0
	for i, rec := range recs {
		if refused[i] = b.AddRecord(rec) != nil; !refused[i] && b.Rows() == chunkRows {
			if _, err := writeChunk(&b, fs, testDir, chunks); err != nil {
				tb.Fatal(err)
			}
			chunks++
		}
	}
	if _, err := writeChunk(&b, fs, testDir, chunks); err != nil {
		tb.Fatal(err)
	}
	return fs, refused
}

// checkRechunk stages recs as images cut after the record counts cuts
// names in turn (each taken modulo 9), re-chunks them, and requires the
// chunks a one-pass seal writes, byte for byte; a record one refuses, the
// other refuses too.
func checkRechunk(t *testing.T, recs [][]byte, cuts []byte, chunkRows int) {
	want, refused := onePass(t, recs, chunkRows)
	var images [][]byte
	var b Builder
	cut, staged := 0, 0
	stage := func() {
		img, _, err := b.AppendImage(nil)
		if err != nil {
			t.Fatal(err)
		}
		if img != nil {
			images = append(images, img)
		}
		staged = 0
	}
	for i, rec := range recs {
		if err := b.AddRecord(rec); (err != nil) != refused[i] {
			t.Fatalf("record %d: staging error %v, the one-pass seal refused it: %v", i, err, refused[i])
		}
		if staged++; len(cuts) > 0 && staged >= int(cuts[cut%len(cuts)]%9) {
			stage()
			cut++
		}
	}
	stage()
	got, err := rechunk(t, images, chunkRows)
	if err != nil {
		t.Fatalf("re-chunking %d staged images: %v", len(images), err)
	}
	if g, w := fileSet(t, got, testDir), fileSet(t, want, testDir); !reflect.DeepEqual(g, w) {
		t.Fatalf("re-chunked %d files, the one-pass seal %d: the bytes differ", len(g), len(w))
	}
}

// TestRechunkMatchesSeal: a generated stream staged as images of any size
// and re-chunked is, file for file, the one-pass seal of its records.
func TestRechunkMatchesSeal(t *testing.T) {
	recs := marshalAll(testEvents(700))
	for _, tc := range []struct {
		cuts      []byte
		chunkRows int
	}{
		{nil, 256},      // one image
		{[]byte{1}, 64}, // an image per record
		{[]byte{7, 3, 8, 2}, 100},
		{[]byte{5}, 5}, // images that are the chunks
		{[]byte{8, 8, 1}, 1000},
	} {
		checkRechunk(t, recs, tc.cuts, tc.chunkRows)
	}
	var edges [][]byte
	for _, recs := range typeEdges() {
		edges = append(edges, recs...)
	}
	checkRechunk(t, edges, []byte{2, 3}, 4)
}

// TestAddColumnsRefusesABadName: a name that fails events.ParseName fails
// AddColumns, and the builder is as it was.
func TestAddColumnsRefusesABadName(t *testing.T) {
	batch, err := ReadImage(imagePath, stageImage(t, marshalAll(testEvents(20))))
	if err != nil {
		t.Fatal(err)
	}
	batch.Name.Dict[0] = "Not A Name"
	var b, clean Builder
	addEvents(t, &b, testEvents(3))
	addEvents(t, &clean, testEvents(3))
	if err := b.AddColumns(&batch.Columns, 0, batch.Rows); err == nil {
		t.Fatal("AddColumns took a name ParseName refuses")
	}
	if !reflect.DeepEqual(flushed(t, &b), flushed(t, &clean)) {
		t.Fatal("a refused AddColumns changed the builder")
	}
}

// checkImageError requires a ReadImage error to be typed and to name the
// file.
func checkImageError(t *testing.T, err error) {
	t.Helper()
	if !errors.Is(err, recordio.ErrCorrupt) && !errors.Is(err, recordio.ErrTruncated) {
		t.Fatalf("error %q is neither ErrCorrupt nor ErrTruncated", err)
	}
	if !strings.Contains(err.Error(), imagePath) {
		t.Fatalf("error %q does not name the file", err)
	}
}

// TestDamagedImageNamesTheSection: a flipped byte in a section fails
// ReadImage, and imageMeta and LoadChunk on the same bytes in a file, with
// ErrCorrupt naming the file and that section; a cut image fails typed too.
func TestDamagedImageNamesTheSection(t *testing.T) {
	img := stageImage(t, marshalAll(testEvents(50)))
	table, rest, err := recordio.NextCRCRecord(img)
	if err != nil {
		t.Fatal(err)
	}
	head := len(img) - len(rest)
	off := head
	for i, sec := range sectionsOf(t, img) {
		bad := append([]byte(nil), img...)
		bad[off+len(sec)-1] ^= 0x10
		_, err := ReadImage(imagePath, bad)
		checkImageError(t, err)
		if !strings.Contains(err.Error(), imagePath+"#"+sectionNames[i]) {
			t.Fatalf("damage to the %s section: %v", sectionNames[i], err)
		}
		fs := hdfs.New(0)
		if err := fs.WriteFile(imagePath, bad); err != nil {
			t.Fatal(err)
		}
		_, ferr := loadChunk(fs, imagePath, All)
		if ferr == nil || ferr.Error() != err.Error() {
			t.Fatalf("damage to the %s section: from a file %v, from memory %v", sectionNames[i], ferr, err)
		}
		off += len(sec)
	}
	for _, n := range []int{0, 3, head, head + 1, len(img) - 1} {
		_, err := ReadImage(imagePath, img[:n])
		checkImageError(t, err)
	}
	_, err = ReadImage(imagePath, append(append([]byte(nil), img...), 0))
	checkImageError(t, err)
	if len(table) == 0 {
		t.Fatal("empty section table")
	}
}

// FuzzStagedImage: ReadImage on any bytes — a staged image, a damaged one,
// or none — never panics; it fails with ErrCorrupt or ErrTruncated naming
// the file, or its batch re-chunks through AddColumns into a chunk whose
// rows are its rows. The same bytes written to a file and read through
// imageMeta and LoadChunk of a fuzzed column set fail typed and named too,
// load every column ReadImage's batch holds as it holds it, and when every
// column is asked for, reach ReadImage's verdict.
func FuzzStagedImage(f *testing.F) {
	need := uint8(Name | Timestamp)
	f.Add(stageImage(f, marshalAll(testEvents(24))), uint8(All))
	for _, recs := range typeEdges() {
		img := stageImage(f, recs)
		f.Add(img, need)
		f.Add(img[:len(img)/2], uint8(All))
		flipped := append([]byte(nil), img...)
		flipped[len(img)/3] ^= 1
		f.Add(flipped, need)
		need = need*7 + 1
	}
	f.Add([]byte{}, uint8(All))
	f.Fuzz(func(t *testing.T, data []byte, need uint8) {
		batch, err := ReadImage(imagePath, data)
		loaded := loadFile(t, data, Set(need))
		if err != nil {
			checkImageError(t, err)
			if loaded != nil && Set(need) == All {
				t.Fatalf("LoadChunk of every column took an image ReadImage refuses: %v", err)
			}
			return
		}
		defer batch.Release()
		if loaded == nil {
			t.Fatal("LoadChunk refused an image ReadImage takes")
		}
		if col := sameLoaded(&batch.Columns, &loaded.Columns, Set(need)); col != "" {
			t.Fatalf("column %s: LoadChunk reads other values than ReadImage", col)
		}
		var b Builder
		if err := b.AddColumns(&batch.Columns, 0, batch.Rows); err != nil {
			return // a name ParseName refuses
		}
		if batch.Rows == 0 {
			return
		}
		fs := hdfs.New(0)
		if _, err := writeChunk(&b, fs, testDir, 0); err != nil {
			t.Fatal(err)
		}
		again, err := loadChunk(fs, testChunk, All)
		if err != nil {
			t.Fatalf("the re-chunked image does not load: %v", err)
		}
		for row := 0; row < batch.Rows; row++ {
			e, err1 := batch.Event(row)
			g, err2 := again.Event(row)
			if (err1 != nil) != (err2 != nil) || !reflect.DeepEqual(e, g) {
				t.Fatalf("row %d: %+v (%v), re-chunked %+v (%v)", row, e, err1, g, err2)
			}
		}
	})
}

// loadFile writes data as an image file and reads the need columns of it
// through imageMeta and LoadChunk, on a file system of small blocks so that
// the ranged reads cross block edges. It returns the batch, or nil after
// checking that the error is typed and names the file.
func loadFile(t *testing.T, data []byte, need Set) *Batch {
	fs := hdfs.New(64)
	if err := fs.WriteFile(imagePath, data); err != nil {
		t.Fatal(err)
	}
	b, err := loadChunk(fs, imagePath, need)
	if err != nil {
		checkImageError(t, err)
		return nil
	}
	return b
}

// sameLoaded reports the first column of need whose values differ between
// a batch of every column and a batch of the need columns.
func sameLoaded(all, part *Columns, need Set) string {
	if all.Rows != part.Rows {
		return "rows"
	}
	for i, col := range ColumnNames {
		bit := Set(1) << i
		if need&bit == 0 {
			continue
		}
		var same bool
		switch bit {
		case Initiator:
			same = slices.Equal(all.Initiator, part.Initiator)
		case Name:
			same = sameDict(all.Name, part.Name)
		case UserID:
			same = slices.Equal(all.UserID, part.UserID)
		case SessionID:
			same = sameDict(all.SessionID, part.SessionID)
		case IP:
			same = sameDict(all.IP, part.IP)
		case Timestamp:
			same = slices.Equal(all.Timestamp, part.Timestamp)
		case LoggedIn:
			same = slices.Equal(all.LoggedIn, part.LoggedIn)
		case Details:
			same = true
			for row := 0; row < all.Rows; row++ {
				same = same && reflect.DeepEqual(all.Details.At(row), part.Details.At(row))
			}
		}
		if !same {
			return col
		}
	}
	return ""
}

// sameDict reports whether two dictionary columns hold the same entries and
// IDs.
func sameDict(a, b DictColumn) bool {
	return slices.Equal(a.Dict, b.Dict) && slices.Equal(a.IDs, b.IDs)
}

// FuzzRechunkMatchesSeal:records cut at fuzz-chosen points into staged
// images, read back and re-chunked into chunks of a fuzz-chosen size, are
// byte for byte the chunks one pass of AddRecord seals; a record one
// refuses, the other refuses too.
func FuzzRechunkMatchesSeal(f *testing.F) {
	name := "web:home:timeline:stream:tweet:impression"
	seeds := [][][]byte{
		{},
		{wireMessage(nil, 1), wireMessage(&name, 2), wireMessage(nil, 3)},
		{wireMessage(&name, 1)[:5], wireMessage(&name, 2)},
		marshalAll(testEvents(12)),
	}
	seeds = append(seeds, typeEdges()...)
	for i, recs := range seeds {
		var in []byte
		for _, rec := range recs {
			in = binary.AppendUvarint(in, uint64(len(rec)))
			in = append(in, rec...)
		}
		f.Add(in, []byte{byte(i), 2, 5}, uint8(i))
	}
	f.Fuzz(func(t *testing.T, in, cuts []byte, chunkRows uint8) {
		var recs [][]byte
		for len(in) > 0 {
			n, k := binary.Uvarint(in)
			if k <= 0 || n > uint64(len(in)-k) {
				break
			}
			recs = append(recs, in[k:k+int(n)])
			in = in[k+int(n):]
		}
		checkRechunk(t, recs, cuts, 1+int(chunkRows%16))
	})
}

// detailsKey returns key k's column in a chunk's details column.
func detailsKey(tb testing.TB, cols *Columns, k string) *keyColumn {
	tb.Helper()
	i, found := slices.BinarySearch(cols.Details.keys, k)
	if !found {
		tb.Fatalf("details key %q not in %q", k, cols.Details.keys)
	}
	return &cols.Details.vals[i]
}

// checkDetailsDicts requires every details dictionary of the chunks in
// testDir of fs to be in strictly increasing order of its values' text,
// which the decoder does not check.
func checkDetailsDicts(t *testing.T, fs *hdfs.FS) {
	t.Helper()
	for path := range fileSet(t, fs, testDir) {
		b, err := loadChunk(fs, path, All)
		if err != nil {
			t.Fatal(err)
		}
		for i, kc := range b.Details.vals {
			for j := 1; kc.tag == encDict && j < len(kc.dict); j++ {
				if kc.dict[j-1] >= kc.dict[j] {
					t.Fatalf("%s: details key %q: dictionary %q out of text order", path, b.Details.keys[i], kc.dict)
				}
			}
		}
		b.Release()
	}
}

// TestRechunkMixedEncodings: a key its staged images encode differently
// re-chunks into the chunk a one-pass seal of their records writes, byte
// for byte, under the encoding the values of the whole chunk choose.
func TestRechunkMixedEncodings(t *testing.T) {
	name := "web:home:timeline:stream:tweet:impression"
	for _, tc := range []struct {
		name   string
		images [][][]string // each staged image's rows, each row its "k" values in wire order
		staged []byte       // each staged image's encoding of "k"
		want   byte         // the re-chunked one's
		dict   []string     // and its dictionary, under encDict
	}{
		{"uvarint, hex and raw images",
			[][][]string{{{"12"}, {"7"}}, {{"ab"}, {"cd12"}}, {{"x y"}}},
			[]byte{encUvarint, encHex, encRaw}, encRaw, nil},
		{"a decimal dictionary only the union wins, in text order",
			[][][]string{{{"1000000000"}, {"999999999"}}, {{"999999999"}, {"1000000000"}}, {{"1000000000"}, {"999999999"}}, {{"999999999"}, {"1000000000"}}},
			[]byte{encUvarint, encUvarint, encUvarint, encUvarint}, encDict, []string{"1000000000", "999999999"}},
		{"a text dictionary only the union wins",
			[][][]string{{{"alpha"}, {"beta"}}, {{"beta"}, {"alpha"}}, {{"alpha"}, {"beta"}}},
			[]byte{encRaw, encRaw, encRaw}, encDict, []string{"alpha", "beta"}},
		{"a repeated key overwrites the row's only non-decimal value",
			[][][]string{{{"6"}, {"x", "5"}, {"70"}}, {{"x y", "8"}}},
			[]byte{encUvarint, encUvarint}, encUvarint, nil},
		{"a repeated key overwrites the row's only non-hex value",
			[][][]string{{{"ab"}, {"x", "cd"}}, {{"ee"}}},
			[]byte{encHex, encHex}, encHex, nil},
		{"20 digits at the uint64 edge",
			[][][]string{{{"18446744073709551615"}, {"1"}}, {{"18446744073709551616"}}, {{"18446744073709551614"}}},
			[]byte{encUvarint, encHex, encUvarint}, encRaw, nil},
		{"a value with a leading zero",
			[][][]string{{{"10"}, {"12"}}, {{"0012"}}, {{"0"}}},
			[]byte{encUvarint, encHex, encUvarint}, encRaw, nil},
		{"decimals widened to hex by a leading zero",
			[][][]string{{{"10"}, {"12"}}, {{"0012"}}},
			[]byte{encUvarint, encHex}, encHex, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var recs [][]byte
			var cuts []byte
			for i, rows := range tc.images {
				var image [][]byte
				for _, vals := range rows {
					pairs := make([][2]string, len(vals))
					for j, v := range vals {
						pairs[j] = [2]string{"k", v}
					}
					image = append(image, wireMessage(&name, int64(len(recs)+len(image)), pairs...))
				}
				batch, err := ReadImage(imagePath, stageImage(t, image))
				if err != nil {
					t.Fatal(err)
				}
				if got := detailsKey(t, &batch.Columns, "k").tag; got != tc.staged[i] {
					t.Fatalf("staged image %d encodes k as %d, want %d", i, got, tc.staged[i])
				}
				batch.Release()
				recs, cuts = append(recs, image...), append(cuts, byte(len(image)))
			}
			checkRechunk(t, recs, cuts, 1000)
			fs, _ := onePass(t, recs, 1000)
			b, err := loadChunk(fs, testChunk, All)
			if err != nil {
				t.Fatal(err)
			}
			defer b.Release()
			if kc := detailsKey(t, &b.Columns, "k"); kc.tag != tc.want || !slices.Equal(kc.dict, tc.dict) {
				t.Fatalf("the seal encodes k as %d with dictionary %q, want %d with %q", kc.tag, kc.dict, tc.want, tc.dict)
			}
		})
	}
}

// mergeAlphabet is FuzzDetailsMergeMatchesSeal's values: decimals, hex that
// is not decimal, both, and neither, at the edges of each.
var mergeAlphabet = []string{
	"0", "7", "10", "12", "99", "1000000000", "999999999", "18446744073709551615",
	"00", "0012", "ab", "cd12", "deadbeef", "18446744073709551616", "99999999999999999999",
	"", "x", "AB", "en", "abc", "-1",
}

// FuzzDetailsMergeMatchesSeal: rows of details drawn from an alphabet that
// straddles decimal, hex and raw, cut into staged images at fuzz-chosen
// points and re-chunked at a fuzz-chosen chunk size, are byte for byte the
// chunks one pass of AddRecord seals, whose every details dictionary is in
// text order. Each byte of in is one pair: its low seven bits pick the key
// of three and the value, and its high bit ends the row, so a row can
// repeat a key.
func FuzzDetailsMergeMatchesSeal(f *testing.F) {
	f.Add([]byte{0x80, 0x83, 0x86, 0x89}, []byte{1}, uint8(3))
	f.Add([]byte{3 * 8, 0x80 | 3*9, 3 * 4, 0x80 | 3*14, 0x80 | 3*15, 3 * 1, 0x80 | 1}, []byte{2, 1}, uint8(15))
	f.Add([]byte{0x80 | 3*5, 0x80 | 3*6, 0x80 | 3*6, 0x80 | 3*5, 0x80 | 3*5, 0x80 | 3*6}, []byte{2}, uint8(15))
	f.Add([]byte{3 * 17, 0x80 | 3*1, 0x80 | 3*2, 0x80 | 3*20, 0x80 | 3*9, 0x80 | 3*16}, []byte{3, 1}, uint8(2))
	f.Fuzz(func(t *testing.T, in, cuts []byte, chunkRows uint8) {
		name := "web:home:timeline:stream:tweet:impression"
		var recs [][]byte
		var pairs [][2]string
		for i, c := range in {
			v := int(c & 0x7f)
			pairs = append(pairs, [2]string{"abc"[v%3 : v%3+1], mergeAlphabet[v/3%len(mergeAlphabet)]})
			if c&0x80 != 0 || i == len(in)-1 {
				recs = append(recs, wireMessage(&name, int64(len(recs)), pairs...))
				pairs = pairs[:0]
			}
		}
		checkRechunk(t, recs, cuts, 1+int(chunkRows%16))
		fs, _ := onePass(t, recs, 1+int(chunkRows%16))
		checkDetailsDicts(t, fs)
	})
}
