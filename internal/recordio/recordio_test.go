package recordio

import (
	"bytes"
	"compress/gzip"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// walkFrames reads a plain record stream with the frame walker behind
// ScanGzipFile, handed the whole stream in one piece.
func walkFrames(stream []byte, fn func(rec []byte) error) error {
	fw := frameWalker{fn: fn}
	if _, err := fw.Write(stream); err != nil {
		return err
	}
	return fw.end()
}

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	recs := [][]byte{[]byte("one"), {}, []byte("three"), bytes.Repeat([]byte("x"), 1000)}
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != int64(len(recs)) {
		t.Fatalf("Count = %d, want %d", w.Count(), len(recs))
	}
	var got [][]byte
	if err := walkFrames(buf.Bytes(), func(rec []byte) error {
		got = append(got, append([]byte(nil), rec...))
		return nil
	}); err != nil || len(got) != len(recs) {
		t.Fatalf("read %d records, %v", len(got), err)
	}
	for i, want := range recs {
		if !bytes.Equal(got[i], want) {
			t.Fatalf("record %d = %q", i, got[i])
		}
	}
}

func TestGzipRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewGzipWriter(&buf)
	for i := 0; i < 100; i++ {
		if err := w.Append([]byte("the same compressible record")); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() >= 100*len("the same compressible record") {
		t.Fatalf("gzip did not compress: %d bytes", buf.Len())
	}
	n := 0
	err := ScanGzipFile(buf.Bytes(), func(rec []byte) error {
		if string(rec) != "the same compressible record" {
			t.Fatalf("rec = %q", rec)
		}
		n++
		return nil
	})
	if err != nil || n != 100 {
		t.Fatalf("scanned %d records, %v", n, err)
	}
}

func TestCorruptLength(t *testing.T) {
	// A huge declared length must error, not allocate.
	data := gzipRaw(t, []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})
	if err := ScanGzipFile(data, func([]byte) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Append([]byte("hello world")); err != nil {
		t.Fatal(err)
	}
	data := gzipRaw(t, buf.Bytes()[:buf.Len()-3])
	if err := ScanGzipFile(data, func([]byte) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

// TestForEachStopsOnError: ScanGzipFile stops at the first error its
// callback returns and returns that error as it is.
func TestForEachStopsOnError(t *testing.T) {
	var recs [][]byte
	for i := 0; i < 10; i++ {
		recs = append(recs, []byte{byte(i)})
	}
	sentinel := errors.New("stop")
	n := 0
	err := ScanGzipFile(gzipMember(t, recs), func(rec []byte) error {
		n++
		if n == 3 {
			return sentinel
		}
		return nil
	})
	if err != sentinel || n != 3 {
		t.Fatalf("n = %d, err = %v", n, err)
	}
}

func TestBadGzipHeader(t *testing.T) {
	if err := ScanGzipFile([]byte("not gzip at all"), func([]byte) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

// TestRoundTripProperty: arbitrary record batches survive framing, with and
// without compression.
func TestRoundTripProperty(t *testing.T) {
	f := func(recs [][]byte) bool {
		var plain, compressed bytes.Buffer
		w := NewWriter(&plain)
		gw := NewGzipWriter(&compressed)
		for _, r := range recs {
			if err := w.Append(r); err != nil {
				return false
			}
			if err := gw.Append(r); err != nil {
				return false
			}
		}
		if err := gw.Close(); err != nil {
			return false
		}
		check := func(got [][]byte) bool {
			if len(got) != len(recs) {
				return false
			}
			for i := range recs {
				if !bytes.Equal(got[i], recs[i]) {
					return false
				}
			}
			return true
		}
		var got1 [][]byte
		if err := walkFrames(plain.Bytes(), func(rec []byte) error {
			got1 = append(got1, append([]byte(nil), rec...))
			return nil
		}); err != nil {
			return false
		}
		var got2 [][]byte
		if err := ScanGzipFile(compressed.Bytes(), func(rec []byte) error {
			got2 = append(got2, append([]byte(nil), rec...))
			return nil
		}); err != nil {
			return false
		}
		return check(got1) && check(got2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// framesOf returns recs as the plain Writer frames them, and the gzip member
// compress/gzip makes of those bytes handed over in one Write.
func framesOf(t testing.TB, recs [][]byte) (frames, member []byte) {
	t.Helper()
	var plain, compressed bytes.Buffer
	w := NewWriter(&plain)
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	gz := gzip.NewWriter(&compressed)
	if _, err := gz.Write(plain.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	return plain.Bytes(), compressed.Bytes()
}

// compressible returns n bytes of text-like data that differ with seed.
func compressible(seed, n int) []byte {
	rng := rand.New(rand.NewSource(int64(seed)))
	words := []string{"web", "home", "timeline", "stream", "tweet", "impression", ":", "10.0.", "profile_click"}
	var b []byte
	for len(b) < n {
		b = append(b, words[rng.Intn(len(words))]...)
	}
	return b[:n]
}

// TestGzipWriterBytesAreGzipsBytes: cutting the stream into blocks moves no
// byte — a GzipWriter's output is the member compress/gzip writes when it is
// handed the same frames at once — for records that are empty, that straddle
// a block boundary, that end exactly on one, and that are longer than a
// block; and Count and Bytes are the frames accepted.
func TestGzipWriterBytesAreGzipsBytes(t *testing.T) {
	many := func(n, size int) [][]byte {
		recs := make([][]byte, n)
		for i := range recs {
			recs[i] = compressible(i, size)
		}
		return recs
	}
	// A 1022-byte record frames to 1024 bytes: 32 of them fill a block to
	// the byte, and the 33rd starts the next.
	onBoundary := many(33, 1022)
	cases := map[string][][]byte{
		"no records":          nil,
		"empty records":       {{}, {}, {}},
		"one small record":    {[]byte("hello")},
		"straddling":          many(500, 271),
		"exactly on boundary": onBoundary,
		"boundary then close": onBoundary[:32],
		"longer than a block": {compressible(1, 3*gzipBlock+17), []byte("tail"), compressible(2, gzipBlock), {}},
		"mixed":               append(many(200, 150), compressible(3, 2*gzipBlock)),
	}
	for name, recs := range cases {
		t.Run(name, func(t *testing.T) {
			_, want := framesOf(t, recs)
			var buf bytes.Buffer
			w := NewGzipWriter(&buf)
			for _, r := range recs {
				if err := w.Append(r); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("GzipWriter wrote %d bytes, compress/gzip %d, and they differ", buf.Len(), len(want))
			}
			if w.Count() != int64(len(recs)) {
				t.Fatalf("Count = %d, want %d", w.Count(), len(recs))
			}
		})
	}
	if frames, _ := framesOf(t, onBoundary[:32]); len(frames) != gzipBlock {
		t.Fatalf("the boundary case frames to %d bytes, not one %d-byte block", len(frames), gzipBlock)
	}
}

// TestGzipWriterLifecycle: Append after Close fails and writes nothing, a
// second Close is nil and writes nothing, and a compressor that has been
// through the pool carries nothing into the next file — file B written after
// file A closed holds exactly B's records, in the bytes a first-ever writer
// gives them.
func TestGzipWriterLifecycle(t *testing.T) {
	a := [][]byte{compressible(10, 5000), compressible(11, 70000), []byte("a's last")}
	b := [][]byte{[]byte("b's first"), compressible(12, 40000)}
	_, wantB := framesOf(t, b)

	var bufA bytes.Buffer
	wa := NewGzipWriter(&bufA)
	for _, r := range a {
		if err := wa.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := wa.Close(); err != nil {
		t.Fatal(err)
	}
	closedLen := bufA.Len()
	if err := wa.Append([]byte("late")); err == nil {
		t.Fatal("Append after Close succeeded")
	}
	if err := wa.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	// wb most likely draws the compressor wa just returned.
	var bufB bytes.Buffer
	wb := NewGzipWriter(&bufB)
	for _, r := range b {
		if err := wb.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := wa.Append([]byte("late again")); err == nil {
		t.Fatal("Append after Close succeeded")
	}
	if err := wb.Close(); err != nil {
		t.Fatal(err)
	}
	if bufA.Len() != closedLen || wa.Count() != int64(len(a)) {
		t.Fatalf("a closed writer moved: %d bytes then, %d now, Count %d", closedLen, bufA.Len(), wa.Count())
	}
	if !bytes.Equal(bufB.Bytes(), wantB) {
		t.Fatal("the second file's bytes differ from a cold compressor's")
	}
	var got [][]byte
	if err := ScanGzipFile(bufB.Bytes(), func(rec []byte) error {
		got = append(got, append([]byte(nil), rec...))
		return nil
	}); err != nil || len(got) != len(b) || !bytes.Equal(got[0], b[0]) || !bytes.Equal(got[1], b[1]) {
		t.Fatalf("the second file scans to %d records, %v", len(got), err)
	}
}

// TestGzipWritersConcurrently: writers on several goroutines draw from and
// return to one pool, file after file, and every file is its own records
// (run under -race).
func TestGzipWritersConcurrently(t *testing.T) {
	type file struct {
		recs [][]byte
		want []byte
	}
	const goroutines, filesEach = 4, 8
	files := make([]file, goroutines*filesEach)
	for f := range files {
		recs := make([][]byte, 40+f%filesEach)
		for i := range recs {
			recs[i] = compressible(f*100+i, 900+37*i)
		}
		_, want := framesOf(t, recs)
		files[f] = file{recs, want}
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n, f := range files[g*filesEach : (g+1)*filesEach] {
				var buf bytes.Buffer
				w := NewGzipWriter(&buf)
				for _, r := range f.recs {
					if err := w.Append(r); err != nil {
						t.Error(err)
						return
					}
				}
				if err := w.Close(); err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(buf.Bytes(), f.want) {
					t.Errorf("goroutine %d file %d: bytes differ from compress/gzip's", g, n)
					return
				}
			}
		}()
	}
	wg.Wait()
}
