package recordio

import (
	"bufio"
	"bytes"
	"compress/flate"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"testing"
	"testing/quick"
)

// refScan reads a gzipped record file the way the package did before it
// had its own decoder, kept as the reference: compress/gzip's multistream
// Reader, then frames pulled one at a time through a bufio.Reader.
func refScan(data []byte, fn func(rec []byte) error) error {
	gz, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	r := bufio.NewReader(gz)
	var buf []byte
	for {
		size, err := binary.ReadUvarint(r)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		if size > MaxRecordSize {
			return fmt.Errorf("%w: record of %d bytes", ErrCorrupt, size)
		}
		if cap(buf) < int(size) {
			buf = make([]byte, size)
		}
		buf = buf[:size]
		if _, err := io.ReadFull(r, buf); err != nil {
			return fmt.Errorf("%w: truncated record: %v", ErrCorrupt, err)
		}
		if err := fn(buf); err != nil {
			return err
		}
	}
}

// gzipMember returns one GzipWriter output holding recs.
func gzipMember(t testing.TB, recs [][]byte) []byte {
	t.Helper()
	return gzipMemberAt(t, gzip.DefaultCompression, recs)
}

// gzipMemberAt returns one GzipWriter output holding recs, deflated at level.
func gzipMemberAt(t testing.TB, level int, recs [][]byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewGzipWriterLevel(&buf, level)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// gzipRaw compresses stream as it is — frames and all — so a test can put
// a malformed record stream inside a well-formed gzip member.
func gzipRaw(t testing.TB, stream []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	gz.Write(stream)
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// scanAll runs both whole-file checks over data and requires them to
// agree with each other and with the reference, refScan: the records ScanGzipFile delivered, and the error of either.
// When the file is sound, the records the reference read must be
// ScanGzipFile's, byte for byte and in order, and VerifyGzipFile must count
// as many records and payload bytes.
func scanAll(t testing.TB, data []byte) ([][]byte, error) {
	t.Helper()
	var recs, ref [][]byte
	var payload int64
	scanErr := ScanGzipFile(data, func(rec []byte) error {
		recs = append(recs, append([]byte(nil), rec...))
		payload += int64(len(rec))
		return nil
	})
	refErr := refScan(data, func(rec []byte) error {
		ref = append(ref, append([]byte(nil), rec...))
		return nil
	})
	if (scanErr == nil) != (refErr == nil) {
		t.Fatalf("ScanGzipFile: %v, compress/gzip: %v", scanErr, refErr)
	}
	if scanErr == nil {
		if len(ref) != len(recs) {
			t.Fatalf("ScanGzipFile read %d records, compress/gzip %d", len(recs), len(ref))
		}
		for i := range recs {
			if !bytes.Equal(ref[i], recs[i]) {
				t.Fatalf("record %d: ScanGzipFile read %d bytes that differ from compress/gzip's %d", i, len(recs[i]), len(ref[i]))
			}
		}
	}
	n, p, verifyErr := VerifyGzipFile(data)
	for _, err := range []error{scanErr, verifyErr} {
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("untyped error %v", err)
		}
	}
	if (scanErr == nil) != (verifyErr == nil) {
		t.Fatalf("ScanGzipFile: %v, VerifyGzipFile: %v", scanErr, verifyErr)
	}
	if scanErr != nil {
		return recs, scanErr
	}
	if n != int64(len(recs)) || p != payload {
		t.Fatalf("VerifyGzipFile counted %d records, %d bytes; ScanGzipFile read %d, %d", n, p, len(recs), payload)
	}
	return recs, nil
}

// TestConcatenatedMembers: the concatenation of N GzipWriter outputs scans
// as the concatenation of their records, whatever the records are.
func TestConcatenatedMembers(t *testing.T) {
	f := func(members [][][]byte) bool {
		var file []byte
		var want [][]byte
		for _, recs := range members {
			file = append(file, gzipMember(t, recs)...)
			want = append(want, recs...)
		}
		if len(members) == 0 {
			file = gzipMember(t, nil)
		}
		got, err := scanAll(t, file)
		if err != nil || len(got) != len(want) {
			return false
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestDamagedMember: damage inside the first, a middle or the last member
// of a multi-member file is ErrCorrupt, never a clean read of fewer
// records — each member's own trailer catches it.
func TestDamagedMember(t *testing.T) {
	var members [][]byte
	for m := 0; m < 5; m++ {
		var recs [][]byte
		for i := 0; i < 40; i++ {
			recs = append(recs, []byte(fmt.Sprintf("member %d record %03d", m, i)))
		}
		members = append(members, gzipMember(t, recs))
	}
	whole := bytes.Join(members, nil)
	if recs, err := scanAll(t, whole); err != nil || len(recs) != 200 {
		t.Fatalf("undamaged file: %d records, %v", len(recs), err)
	}
	for _, k := range []int{0, 2, 4} {
		start := len(bytes.Join(members[:k], nil))
		end := start + len(members[k])
		damage := map[string][]byte{
			// Past the ten-byte header, whose mtime and OS bytes gzip
			// does not checksum.
			"flip body byte":    flipAt(whole, start+10+(end-start-10)/2),
			"flip trailer byte": flipAt(whole, end-6),
			"cut file inside":   whole[:end-3],
			"cut member tail":   append(append([]byte(nil), whole[:end-3]...), whole[end:]...),
		}
		for name, data := range damage {
			if recs, err := scanAll(t, data); err == nil {
				t.Errorf("member %d, %s: clean read of %d records", k, name, len(recs))
			}
		}
	}
	if _, err := scanAll(t, append(append([]byte(nil), whole...), "trailing garbage"...)); err == nil {
		t.Error("trailing garbage read clean")
	}
}

func flipAt(data []byte, i int) []byte {
	out := append([]byte(nil), data...)
	out[i] ^= 0x40
	return out
}

// TestVerifyRequiresRecordBoundary: a well-formed gzip file that stops in
// the middle of a frame fails the check, so files that pass can be
// concatenated without a record ever straddling two of them.
func TestVerifyRequiresRecordBoundary(t *testing.T) {
	var stream bytes.Buffer
	NewWriter(&stream).Append([]byte("hello world"))
	half := gzipRaw(t, stream.Bytes()[:5])
	if _, _, err := VerifyGzipFile(half); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("file ending mid-record: %v, want ErrCorrupt", err)
	}
	midPrefix := gzipRaw(t, []byte{0x80})
	if _, _, err := VerifyGzipFile(midPrefix); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("file ending mid-length: %v, want ErrCorrupt", err)
	}
}

// FuzzGzipRecords: on any file image, ScanGzipFile and VerifyGzipFile
// neither panic nor return an untyped error, and they agree with each
// other and with refScan (compress/gzip) — on whether the file is
// sound and, when it is, on how many records it holds and on every record
// ScanGzipFile reads. Seeds include a file that inflates past one piece of
// the decoder's window, so records straddle pieces and both of the frame
// walker's ways of handing a record out are in the corpus; members at every level the writers use and at the
// extremes (stored blocks, Huffman only, 9); header fields and a header
// CRC; a member reaching back into the one before it; broken literal/length
// codes; and a trailing zero byte.
func FuzzGzipRecords(f *testing.F) {
	var one bytes.Buffer
	NewWriter(&one).Append([]byte("hello world"))
	good := gzipMember(f, [][]byte{[]byte("one"), {}, bytes.Repeat([]byte("x"), 300)})
	fast := gzipMemberAt(f, gzip.BestSpeed, [][]byte{[]byte("fast"), compressible(4, 700)})
	f.Add(good)
	f.Add(append(append([]byte(nil), good...), gzipMember(f, [][]byte{[]byte("two")})...))
	f.Add(fast)
	f.Add(append(append([]byte(nil), fast...), good...))
	f.Add(gzipMember(f, nil))
	f.Add(gzipMember(f, [][]byte{[]byte("before"), compressible(5, 40<<10), []byte("after")}))
	var straddling [][]byte
	for i := 0; i < 100; i++ {
		straddling = append(straddling, compressible(100+i, 700+i))
	}
	f.Add(gzipMember(f, straddling))
	// TestCorruptLength, TestTruncatedRecord and TestBadGzipHeader, as files.
	f.Add(gzipRaw(f, []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}))
	f.Add(gzipRaw(f, one.Bytes()[:one.Len()-3]))
	f.Add([]byte("not gzip at all"))
	f.Add(good[:len(good)-4])
	f.Add(append(append([]byte(nil), good...), 0))
	// Past one piece of the decoder's window, in a few KiB.
	repeated := make([][]byte, inflatePiece/700+10)
	for i := range repeated {
		repeated[i] = compressible(7, 700)
	}
	f.Add(gzipMember(f, repeated))
	recs := [][]byte{[]byte("levels"), compressible(6, 900), {}, compressible(7, 3000)}
	for _, level := range []int{gzip.NoCompression, gzip.HuffmanOnly, gzip.BestSpeed, 5, 6, gzip.BestCompression} {
		f.Add(gzipMemberAt(f, level, recs))
	}
	frames, _ := framesOf(f, recs)
	named := gzipWithHeader(f, gzip.Header{Name: "part-00000", Comment: "staging", Extra: []byte("xy\x02\x00ok")}, frames)
	f.Add(named)
	f.Add(withHeaderCRC(named))
	f.Add(reachingBack(f, recs))
	f.Add(gzipWrap(dynamicBlock(uniformLens(257, 8), []uint8{1}, nil), nil)) // over-subscribed
	f.Add(gzipWrap(dynamicBlock(uniformLens(257, 9), []uint8{1}, nil), nil)) // incomplete
	f.Fuzz(func(t *testing.T, data []byte) {
		scanAll(t, data)
	})
}

// gzipWithHeader returns frames as one compress/gzip member with header h.
func gzipWithHeader(t testing.TB, h gzip.Header, frames []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	gz.Header = h
	if _, err := gz.Write(frames); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// headerLen returns the length of member's header (RFC 1952 §2.3).
func headerLen(member []byte) int {
	flg, p := member[3], 10
	if flg&0x04 != 0 {
		p += 2 + int(binary.LittleEndian.Uint16(member[p:]))
	}
	for _, bit := range []byte{0x08, 0x10} {
		if flg&bit != 0 {
			p += bytes.IndexByte(member[p:], 0) + 1
		}
	}
	return p
}

// withHeaderCRC returns member with FHCRC set and the header's CRC-16
// after the header.
func withHeaderCRC(member []byte) []byte {
	n := headerLen(member)
	out := append([]byte(nil), member[:n]...)
	out[3] |= 0x02
	out = binary.LittleEndian.AppendUint16(out, uint16(crc32.ChecksumIEEE(out)))
	return append(out, member[n:]...)
}

// reachingBack returns two members, the first holding recs and the second
// recs again deflated against the first's frames as a preset dictionary, so
// its matches reach back across the member boundary: compress/gzip refuses
// the file, since each member's window starts empty.
func reachingBack(t testing.TB, recs [][]byte) []byte {
	t.Helper()
	frames, first := framesOf(t, recs)
	var deflated bytes.Buffer
	fw, err := flate.NewWriterDict(&deflated, 6, frames)
	if err != nil {
		t.Fatal(err)
	}
	fw.Write(frames)
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	return append(first, gzipWrap(deflated.Bytes(), frames)...)
}

// TestGzipLevelsConcatenate: a BestSpeed member followed by a level-6 member
// is one file whose records are both members' in order, and each member is
// the one compress/gzip writes at its level. The level-6 writer opens after
// the BestSpeed writer has closed and handed back its compressor, so it
// would draw that compressor if the levels shared a pool; the third writer,
// BestSpeed again, checks the other direction.
func TestGzipLevelsConcatenate(t *testing.T) {
	fastRecs := [][]byte{compressible(20, 3000), {}, compressible(21, 2*gzipBlock+5)}
	slowRecs := [][]byte{[]byte("level six"), compressible(22, 9000)}
	want := func(level int, recs [][]byte) []byte {
		frames, _ := framesOf(t, recs)
		var buf bytes.Buffer
		gz, err := gzip.NewWriterLevel(&buf, level)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := gz.Write(frames); err != nil {
			t.Fatal(err)
		}
		if err := gz.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	fast := gzipMemberAt(t, gzip.BestSpeed, fastRecs)
	slow := gzipMember(t, slowRecs)
	fastAgain := gzipMemberAt(t, gzip.BestSpeed, fastRecs)
	if !bytes.Equal(fast, want(gzip.BestSpeed, fastRecs)) || !bytes.Equal(fastAgain, fast) {
		t.Fatal("a BestSpeed member differs from compress/gzip's at BestSpeed")
	}
	if bytes.Equal(fast, want(6, fastRecs)) {
		t.Fatal("the BestSpeed member is level 6's")
	}
	if !bytes.Equal(slow, want(6, slowRecs)) {
		t.Fatal("a level-6 member written after a BestSpeed one differs from compress/gzip's at level 6")
	}

	file := append(append([]byte(nil), fast...), slow...)
	n, _, err := VerifyGzipFile(file)
	if err != nil || n != int64(len(fastRecs)+len(slowRecs)) {
		t.Fatalf("VerifyGzipFile: %d records, %v; want %d", n, err, len(fastRecs)+len(slowRecs))
	}
	got, err := scanAll(t, file)
	if err != nil {
		t.Fatal(err)
	}
	all := append(append([][]byte(nil), fastRecs...), slowRecs...)
	if len(got) != len(all) {
		t.Fatalf("ScanGzipFile: %d records, want %d", len(got), len(all))
	}
	for i := range all {
		if !bytes.Equal(got[i], all[i]) {
			t.Fatalf("record %d differs", i)
		}
	}

	for _, level := range []int{gzip.HuffmanOnly - 1, gzip.BestCompression + 1} {
		if _, err := NewGzipWriterLevel(io.Discard, level); err == nil {
			t.Fatalf("level %d accepted", level)
		}
	}
}
