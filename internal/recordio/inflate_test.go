package recordio

import (
	"bytes"
	"compress/flate"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"runtime"
	"strings"
	"testing"
)

// bitWriter packs bits least significant first, as DEFLATE does, so a test
// can spell out a stream compress/flate would never write.
type bitWriter struct {
	out []byte
	acc uint64
	n   uint
}

func (w *bitWriter) put(v uint64, n uint) {
	w.acc |= v << w.n
	w.n += n
	for w.n >= 8 {
		w.out = append(w.out, byte(w.acc))
		w.acc >>= 8
		w.n -= 8
	}
}

// code writes a Huffman code, which DEFLATE packs most significant bit
// first.
func (w *bitWriter) code(c uint32, n uint8) { w.put(uint64(reverse(c, n)), uint(n)) }

func (w *bitWriter) bytes() []byte {
	if w.n > 0 {
		return append(w.out, byte(w.acc))
	}
	return w.out
}

// canonical returns the canonical code of each symbol of lens (RFC 1951
// §3.2.2), whether or not the lengths make a valid code.
func canonical(lens []uint8) []uint32 {
	var count [16]uint32
	for _, n := range lens {
		count[n]++
	}
	count[0] = 0
	var next [16]uint32
	for n, code := 1, uint32(0); n < 16; n++ {
		code = (code + count[n-1]) << 1
		next[n] = code
	}
	codes := make([]uint32, len(lens))
	for s, n := range lens {
		if n > 0 {
			codes[s] = next[n]
			next[n]++
		}
	}
	return codes
}

func uniformLens(n int, length uint8) []uint8 {
	lens := make([]uint8, n)
	for i := range lens {
		lens[i] = length
	}
	return lens
}

// litLens returns 286 literal/length code lengths, all 0 but those set.
func litLens(set map[int]uint8) []uint8 {
	lens := make([]uint8, 286)
	for s, n := range set {
		lens[s] = n
	}
	return lens
}

// dynamicBlock returns one final dynamic-Huffman block whose codes have the
// lengths lit (257 to 286 of them) and dist (1 to 30), each length sent as
// a 4-bit code-length code, then whatever body writes with the two codes.
func dynamicBlock(lit, dist []uint8, body func(w *bitWriter, lit, dist []uint32)) []byte {
	var w bitWriter
	w.put(1, 1) // BFINAL
	w.put(2, 2) // dynamic
	w.put(uint64(len(lit)-257), 5)
	w.put(uint64(len(dist)-1), 5)
	w.put(19-4, 4)
	for _, s := range codeOrder {
		if s < 16 {
			w.put(4, 3)
		} else {
			w.put(0, 3)
		}
	}
	for _, n := range append(append([]uint8(nil), lit...), dist...) {
		w.code(uint32(n), 4) // sixteen 4-bit codes: symbol s's code is s
	}
	if body != nil {
		body(&w, canonical(lit), canonical(dist))
	}
	return w.bytes()
}

// codeLengths starts a final dynamic block declaring nlit literal/length
// and ndist distance code lengths, sent as the code-length symbols syms,
// each with the value of its extra bits (none below 16), under a complete
// code-length code: symbols 0-12 of 4 bits, 13-18 of 5.
func codeLengths(nlit, ndist int, syms ...[2]int) *bitWriter {
	var clens [19]uint8
	for s := range clens {
		clens[s] = 4
		if s > 12 {
			clens[s] = 5
		}
	}
	codes := canonical(clens[:])
	w := &bitWriter{}
	w.put(1, 1)
	w.put(2, 2)
	w.put(uint64(nlit-257), 5)
	w.put(uint64(ndist-1), 5)
	w.put(19-4, 4)
	for _, s := range codeOrder {
		w.put(uint64(clens[s]), 3)
	}
	for _, s := range syms {
		w.code(codes[s[0]], clens[s[0]])
		switch s[0] {
		case 16:
			w.put(uint64(s[1]), 2)
		case 17:
			w.put(uint64(s[1]), 3)
		case 18:
			w.put(uint64(s[1]), 7)
		}
	}
	return w
}

// fixedBlock returns one final fixed-Huffman block of the given
// literal/length symbols, each length symbol followed by the 5-bit
// distance symbol after it in syms. Every extra bit is 0 (distance symbols
// 30 and 31 get the 14 that 28 and 29 have), and length symbols here must
// have none.
func fixedBlock(syms ...int) []byte {
	var w bitWriter
	w.put(1, 1)
	w.put(1, 2)
	for i := 0; i < len(syms); i++ {
		s := syms[i]
		switch {
		case s < 144:
			w.code(uint32(0x30+s), 8)
		case s < 256:
			w.code(uint32(0x190+s-144), 9)
		case s < 280:
			w.code(uint32(s-256), 7)
		default:
			w.code(uint32(0xc0+s-280), 8)
		}
		if s > 256 {
			i++
			w.code(uint32(syms[i]), 5)
			if d := syms[i]; d >= 4 {
				w.put(0, uint(d/2-1))
			}
		}
	}
	return w.bytes()
}

// gzipWrap returns deflated as one gzip member whose trailer is content's.
func gzipWrap(deflated, content []byte) []byte {
	out := []byte{0x1f, 0x8b, 8, 0, 0, 0, 0, 0, 0, 0xff}
	out = append(out, deflated...)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(content))
	return binary.LittleEndian.AppendUint32(out, uint32(len(content)))
}

// rawLimit caps what one raw stream may inflate to in a test, so a fuzzed
// stream of long matches stays quick to check.
const rawLimit = 64 << 10

var errRawLimit = errors.New("inflates past the test's limit")

// limitedBuffer keeps at most rawLimit bytes, then fails.
type limitedBuffer struct{ buf []byte }

func (b *limitedBuffer) Write(p []byte) (int, error) {
	if room := rawLimit - len(b.buf); len(p) > room {
		b.buf = append(b.buf, p[:room]...)
		return room, errRawLimit
	}
	b.buf = append(b.buf, p...)
	return len(p), nil
}

// inflateRaw inflates one raw DEFLATE stream with the package's decoder.
func inflateRaw(data []byte) ([]byte, error) {
	d := inflaters.Get().(*inflater)
	defer inflaters.Put(d)
	var out limitedBuffer
	d.reset(data, &out)
	err := d.inflate()
	d.reset(nil, nil)
	return out.buf, err
}

// flateRaw inflates data with compress/flate, reading one byte past
// rawLimit at most.
func flateRaw(data []byte) ([]byte, error) {
	return io.ReadAll(io.LimitReader(flate.NewReader(bytes.NewReader(data)), rawLimit+1))
}

// matchFlate requires inflateRaw and compress/flate to agree on data: the
// same bytes, or both an error. An error of inflateRaw's is ErrCorrupt.
func matchFlate(t *testing.T, data []byte) ([]byte, error) {
	t.Helper()
	got, err := inflateRaw(data)
	want, werr := flateRaw(data)
	if errors.Is(err, errRawLimit) {
		if len(want) <= rawLimit || !bytes.Equal(got, want[:rawLimit]) {
			t.Fatalf("past the limit: compress/flate gave %d bytes (%v), and they differ", len(want), werr)
		}
		return got, err
	}
	if err != nil && !errors.Is(err, ErrCorrupt) {
		t.Fatalf("untyped error %v", err)
	}
	if (err == nil) != (werr == nil) {
		t.Fatalf("inflate: %v, compress/flate: %v", err, werr)
	}
	if err == nil && !bytes.Equal(got, want) {
		t.Fatalf("inflate gave %d bytes, compress/flate %d, and they differ", len(got), len(want))
	}
	return got, err
}

// TestInflateCodes: streams compress/flate never writes, each decoded as
// compress/flate decodes it — a lone code of length 1 and an empty
// distance code are accepted until a missing code is read, any other
// incomplete code and any over-subscribed one are refused, and so are
// symbols 286 and 287, distance codes 30 and 31, a distance before the
// stream's first byte, a stored block whose LEN and NLEN disagree, and
// block type 3.
func TestInflateCodes(t *testing.T) {
	eob := func(w *bitWriter, lit, _ []uint32) {}
	cases := []struct {
		name   string
		stream []byte
		want   string // "" with ok false: refused
		ok     bool
	}{
		{"lone length-1 code", dynamicBlock(litLens(map[int]uint8{256: 1}), []uint8{0},
			func(w *bitWriter, lit, _ []uint32) { w.code(lit[256], 1) }), "", true},
		{"lone code's missing bit", dynamicBlock(litLens(map[int]uint8{256: 1}), []uint8{0},
			func(w *bitWriter, _, _ []uint32) { w.put(1, 1) }), "", false},
		{"lone code of length 2", dynamicBlock(litLens(map[int]uint8{256: 2}), []uint8{0},
			func(w *bitWriter, lit, _ []uint32) { w.code(lit[256], 2) }), "", false},
		{"lone distance code", dynamicBlock(litLens(map[int]uint8{'a': 1, 257: 2, 256: 2}), []uint8{1},
			func(w *bitWriter, lit, dist []uint32) {
				w.code(lit['a'], 1)
				w.code(lit[257], 2)
				w.code(dist[0], 1)
				w.code(lit[256], 2)
			}), "aaaa", true},
		{"empty distance code unused", dynamicBlock(litLens(map[int]uint8{'a': 1, 256: 1}), []uint8{0},
			func(w *bitWriter, lit, _ []uint32) {
				w.code(lit['a'], 1)
				w.code(lit['a'], 1)
				w.code(lit[256], 1)
			}), "aa", true},
		{"empty distance code read", dynamicBlock(litLens(map[int]uint8{'a': 1, 257: 2, 256: 2}), []uint8{0},
			func(w *bitWriter, lit, _ []uint32) {
				w.code(lit['a'], 1)
				w.code(lit[257], 2)
				w.put(0, 8)
			}), "", false},
		{"over-subscribed literal/length code", dynamicBlock(uniformLens(257, 8), []uint8{1}, eob), "", false},
		{"incomplete literal/length code", dynamicBlock(uniformLens(257, 9), []uint8{1}, eob), "", false},
		{"over-subscribed distance code", dynamicBlock(litLens(map[int]uint8{256: 1}), []uint8{1, 1, 1}, eob), "", false},
		{"long codes", dynamicBlock(longCodes(), []uint8{1, 1}, func(w *bitWriter, lit, _ []uint32) {
			lens := longCodes()
			for _, s := range []int{0, 'x', 255, 'x', 256} {
				w.code(lit[s], lens[s])
			}
		}), "\x00x\xffx", true},
		{"runs and repeats", runsAndRepeats(), "abcd", true},
		{"repeat before any length", codeLengths(257, 1, [2]int{16, 0}).bytes(), "", false},
		{"repeats past the end", codeLengths(257, 1, [2]int{18, 127}, [2]int{18, 127}).bytes(), "", false},
		{"287 literal/length codes", func() []byte {
			// 'a' and the end of block at 1 bit, all else 0, then "a".
			w := codeLengths(287, 1, [2]int{18, 86}, [2]int{1, 0}, [2]int{18, 127}, [2]int{18, 9}, [2]int{1, 0},
				[2]int{18, 19}, [2]int{0, 0})
			w.put(0, 1)
			w.put(1, 1)
			return w.bytes()
		}(), "", false},
		{"31 distance codes", codeLengths(257, 31).bytes(), "", false},
		{"fixed match", fixedBlock('a', 257, 0, 256), "aaaa", true},
		{"cut inside a literal's code", fixedBlock('a', 0, 256)[:2], "", false},
		{"fixed distance code 30 past a full window", pastFullWindow(30), "", false},
		{"fixed distance code 29 past a full window", pastFullWindow(29), string(pastFullWindowOut()), true},
		{"fixed distance before the first byte", fixedBlock(257, 0, 256), "", false},
		{"fixed distance code 30", fixedBlock('a', 257, 30, 256), "", false},
		{"fixed distance code 31", fixedBlock('a', 257, 31, 256), "", false},
		{"fixed symbol 286", fixedBlock('a', 286, 0, 256), "", false},
		{"fixed symbol 287", fixedBlock('a', 287, 0, 256), "", false},
		{"stored", []byte{1, 5, 0, 0xfa, 0xff, 'h', 'e', 'l', 'l', 'o'}, "hello", true},
		{"stored LEN and NLEN disagree", []byte{1, 5, 0, 0xfb, 0xff, 'h', 'e', 'l', 'l', 'o'}, "", false},
		{"stored, cut short", []byte{1, 5, 0, 0xfa, 0xff, 'h', 'e'}, "", false},
		{"block type 3", []byte{7, 0, 0, 0xff, 0xff}, "", false},
		{"empty input", nil, "", false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := matchFlate(t, c.stream)
			if (err == nil) != c.ok || string(got) != c.want && c.ok {
				t.Fatalf("got %q, %v; want %q, ok %v", got, err, c.want, c.ok)
			}
		})
	}
}

// runsAndRepeats returns a dynamic block whose code lengths are sent with
// every code-length repeat symbol: 97 zeros (18), 'a' of 3 bits, repeated
// for 'b' to 'd' (16), 155 zeros (18, 17, 17), the end of block at 1 bit
// and an empty distance code; then "abcd".
func runsAndRepeats() []byte {
	w := codeLengths(257, 1, [2]int{18, 86}, [2]int{3, 0}, [2]int{16, 0}, [2]int{18, 127}, [2]int{17, 7},
		[2]int{17, 4}, [2]int{1, 0}, [2]int{0, 0})
	lens := litLens(map[int]uint8{'a': 3, 'b': 3, 'c': 3, 'd': 3, 256: 1})[:257]
	codes := canonical(lens)
	for _, s := range []int{'a', 'b', 'c', 'd', 256} {
		w.code(codes[s], lens[s])
	}
	return w.bytes()
}

// pastFullWindowOut is what a stored block of more than a window's bytes
// and a match reaching back 24577 bytes inflate to.
func pastFullWindowOut() []byte {
	data := compressible(9, inflateHistory+300)
	return append(data, data[len(data)-24577:len(data)-24577+3]...)
}

// pastFullWindow returns a stored block of more than a window's bytes, then
// a fixed block of one 3-byte match at distance symbol dist with no extra
// bits set.
func pastFullWindow(dist int) []byte {
	data := compressible(9, inflateHistory+300)
	out := []byte{0, byte(len(data)), byte(len(data) >> 8), ^byte(len(data)), ^byte(len(data) >> 8)}
	out = append(out, data...)
	return append(out, fixedBlock(257, dist, 256)...)
}

// longCodes returns literal/length code lengths that need the tables' slow
// path: a complete code in which the common symbols are short and the rest
// run to 15 bits, longer than either primary index.
func longCodes() []uint8 {
	lens := make([]uint8, 286)
	// Symbol s < 14 gets length s+1, taking 1/2, 1/4, ... 1/2^14 of the
	// code space; the last 2^-14 goes to two 15-bit codes.
	order := []int{'x', 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 255, 256}
	for i, s := range order {
		lens[s] = uint8(min(i+1, 15))
	}
	return lens
}

// FuzzInflateMatchesFlate: on any raw DEFLATE stream the package's decoder
// gives compress/flate's bytes, or an ErrCorrupt where compress/flate
// fails. Without a CRC in the way, mutations reach the block headers and
// the Huffman tables.
func FuzzInflateMatchesFlate(f *testing.F) {
	// Small seeds: the engine mutates and minimizes a short stream much
	// faster, and TestInflateAcrossPieces covers the long ones.
	content := bytes.Join([][]byte{compressible(1, 700), bytes.Repeat([]byte{0}, 300), compressible(2, 2000)}, nil)
	for i, level := range []int{flate.HuffmanOnly, flate.NoCompression, flate.BestSpeed, 5, 6, flate.BestCompression} {
		var buf bytes.Buffer
		fw, _ := flate.NewWriter(&buf, level)
		fw.Write(content[:800+i*400])
		fw.Close()
		f.Add(buf.Bytes())
	}
	f.Add(dynamicBlock(uniformLens(257, 8), []uint8{1}, nil))
	f.Add(dynamicBlock(litLens(map[int]uint8{256: 1}), []uint8{0}, func(w *bitWriter, lit, _ []uint32) { w.code(lit[256], 1) }))
	f.Add(fixedBlock('a', 257, 0, 'b', 260, 1, 256))
	f.Add([]byte{1, 5, 0, 0xfa, 0xff, 'h', 'e', 'l', 'l', 'o'})
	f.Fuzz(func(t *testing.T, data []byte) {
		matchFlate(t, data)
	})
}

// TestInflateAcrossPieces: files that inflate to many pieces, at every
// level the writers use and at the extremes, read as compress/gzip reads
// them, so matches that reach back across a slide of the window, and
// stored blocks that straddle one, are covered.
func TestInflateAcrossPieces(t *testing.T) {
	var recs [][]byte
	for i, size := 0, 0; size < 3*inflatePiece; i++ {
		recs = append(recs, compressible(i, 50+(i*7919)%3000))
		size += len(recs[len(recs)-1])
	}
	recs = append(recs, compressible(-1, 2*inflatePiece+5)) // one record over two slides
	for _, level := range []int{gzip.NoCompression, gzip.HuffmanOnly, gzip.BestSpeed, 5, 6, gzip.BestCompression} {
		file := gzipMemberAt(t, level, recs)
		got, err := scanAll(t, append(append([]byte(nil), file...), file...))
		if err != nil || len(got) != 2*len(recs) {
			t.Fatalf("level %d: %d records, %v; want %d", level, len(got), err, 2*len(recs))
		}
	}
}

// TestGzipHeaderRules: the member header and trailer checks, each held to
// compress/gzip by scanAll — FEXTRA, FNAME, FCOMMENT and FHCRC read and
// checked, reserved flag bits ignored, a string's NUL at most 512 bytes in,
// and no bytes after the last member but whole members.
func TestGzipHeaderRules(t *testing.T) {
	recs := [][]byte{[]byte("header"), compressible(8, 500)}
	frames, plain := framesOf(t, recs)
	named := gzipWithHeader(t, gzip.Header{Name: "a name", Comment: "a comment", Extra: []byte("extra")}, frames)
	longName := func(n int) []byte { return gzipWithHeader(t, gzip.Header{Name: strings.Repeat("n", n)}, frames) }
	edit := func(member []byte, i int, b byte) []byte {
		out := append([]byte(nil), member...)
		out[i] = b
		return out
	}
	cut := func(member []byte, n int) []byte { return append([]byte(nil), member[:len(member)-n]...) }
	cases := []struct {
		name string
		data []byte
		ok   bool
	}{
		{"plain", plain, true},
		{"name, comment and extra", named, true},
		{"header CRC", withHeaderCRC(named), true},
		{"header CRC wrong", edit(withHeaderCRC(named), headerLen(named), ^withHeaderCRC(named)[headerLen(named)]), false},
		{"header CRC cut", cut(withHeaderCRC(plain), len(plain)-10), false},
		{"reserved flag bits", edit(plain, 3, 0xe0), true},
		{"name of 511 bytes", longName(511), true},
		{"name of 512 bytes", longName(512), false},
		{"name without its NUL", cut(named, len(named)-12), false},
		{"extra past the end", cut(named, len(named)-13), false},
		{"method 7", edit(plain, 2, 7), false},
		{"bad magic", edit(plain, 1, 0x8c), false},
		{"CRC-32 wrong", edit(plain, len(plain)-8, ^plain[len(plain)-8]), false},
		{"length wrong", edit(plain, len(plain)-4, plain[len(plain)-4]+1), false},
		{"trailer cut", cut(plain, 1), false},
		{"empty file", nil, false},
		{"nine bytes of a second header", append(append([]byte(nil), plain...), plain[:9]...), false},
		{"one trailing zero", append(append([]byte(nil), plain...), 0), false},
		{"two members", append(append([]byte(nil), plain...), named...), true},
		{"reaching into the member before", reachingBack(t, recs), false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := scanAll(t, c.data); (err == nil) != c.ok {
				t.Fatalf("err = %v, want ok %v", err, c.ok)
			}
		})
	}
}

// TestScanGzipBoundedMemory: a member inflating to 64 MiB of small records
// is scanned and verified with a few MiB of allocation, not a buffer the
// size of its output; and a frame declaring MaxRecordSize+1 bytes is
// refused before a buffer that size is allocated.
func TestScanGzipBoundedMemory(t *testing.T) {
	const recSize, inflated, bound = 63, 64 << 20, 4 << 20
	rec := make([]byte, recSize)
	var buf bytes.Buffer
	w, err := NewGzipWriterLevel(&buf, gzip.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	n := int64(inflated/(recSize+1) + 1)
	for range n {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	file := buf.Bytes()

	allocated := func(f func() (int64, error)) (int64, uint64, error) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		records, err := f()
		runtime.ReadMemStats(&after)
		return records, after.TotalAlloc - before.TotalAlloc, err
	}
	scan := func(data []byte) func() (int64, error) {
		return func() (int64, error) {
			var records int64
			err := ScanGzipFile(data, func(rec []byte) error {
				records++
				return nil
			})
			return records, err
		}
	}
	verify := func(data []byte) func() (int64, error) {
		return func() (int64, error) {
			records, _, err := VerifyGzipFile(data)
			return records, err
		}
	}
	for name, f := range map[string]func() (int64, error){"ScanGzipFile": scan(file), "VerifyGzipFile": verify(file)} {
		records, alloc, err := allocated(f)
		if err != nil || records != n {
			t.Fatalf("%s: %d records, %v; want %d", name, records, err, n)
		}
		if alloc > bound {
			t.Errorf("%s allocated %d bytes inflating %d MiB, over the bound of %d", name, alloc, inflated>>20, bound)
		}
	}

	huge := gzipRaw(t, append(binary.AppendUvarint(nil, MaxRecordSize+1), make([]byte, 4096)...))
	for name, f := range map[string]func() (int64, error){"ScanGzipFile": scan(huge), "VerifyGzipFile": verify(huge)} {
		_, alloc, err := allocated(f)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: a %d-byte frame: %v, want ErrCorrupt", name, MaxRecordSize+1, err)
		}
		if alloc >= MaxRecordSize {
			t.Errorf("%s allocated %d bytes refusing a %d-byte frame", name, alloc, MaxRecordSize+1)
		}
	}
}

// BenchmarkScanGzipFile: ScanGzipFile over a file of text-like records at
// each level the repository writes (1: session partitions, 5: staging, 6:
// the warehouse), against refScan (compress/gzip) reading the same
// file. Bytes per second are the inflated frames'.
func BenchmarkScanGzipFile(b *testing.B) {
	var recs [][]byte
	for i, size := 0, 0; size < 2<<20; i++ {
		recs = append(recs, compressible(i, 120+i%400))
		size += len(recs[len(recs)-1])
	}
	frames, _ := framesOf(b, recs)
	for _, level := range []int{gzip.BestSpeed, 5, 6} {
		file := gzipMemberAt(b, level, recs)
		for _, dec := range []struct {
			name string
			scan func([]byte, func([]byte) error) error
		}{{"inflate", ScanGzipFile}, {"compress-gzip", refScan}} {
			b.Run(fmt.Sprintf("level=%d/%s", level, dec.name), func(b *testing.B) {
				b.SetBytes(int64(len(frames)))
				b.ReportAllocs()
				for range b.N {
					n := 0
					if err := dec.scan(file, func([]byte) error { n++; return nil }); err != nil || n != len(recs) {
						b.Fatalf("%d records, %v", n, err)
					}
				}
			})
		}
	}
}
