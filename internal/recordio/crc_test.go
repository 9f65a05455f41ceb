package recordio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
)

func crcStream(t testing.TB, recs ...string) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewCRCWriter(&buf)
	for _, r := range recs {
		if err := w.Append([]byte(r)); err != nil {
			t.Fatal(err)
		}
	}
	if w.Bytes() != int64(buf.Len()) {
		t.Fatalf("writer accounting: bytes %d, stream %d", w.Bytes(), buf.Len())
	}
	return buf.Bytes()
}

func TestCRCRoundTrip(t *testing.T) {
	want := []string{"alpha", "", "a much longer record with some bytes in it", "z"}
	data := crcStream(t, want...)
	r := NewCRCReader(bytes.NewReader(data))
	var got []string
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, string(rec))
	}
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestCRCTornTail truncates the stream at every possible byte boundary:
// the reader must hand back the intact prefix and then report ErrTruncated
// (or a clean EOF exactly at a record boundary), never a bogus record.
func TestCRCTornTail(t *testing.T) {
	recs := []string{"first-record", "second-record", "third"}
	data := crcStream(t, recs...)
	// Record boundaries, for deciding how many whole records a cut keeps.
	var bounds []int
	{
		var buf bytes.Buffer
		w := NewCRCWriter(&buf)
		for _, r := range recs {
			w.Append([]byte(r))
			bounds = append(bounds, buf.Len())
		}
	}
	for cut := 0; cut < len(data); cut++ {
		whole := 0
		for _, b := range bounds {
			if cut >= b {
				whole++
			}
		}
		r := NewCRCReader(bytes.NewReader(data[:cut]))
		got := 0
		var err error
		for {
			var rec []byte
			rec, err = r.Next()
			if err != nil {
				break
			}
			if string(rec) != recs[got] {
				t.Fatalf("cut %d: record %d = %q", cut, got, rec)
			}
			got++
		}
		if got != whole {
			t.Fatalf("cut %d: read %d whole records, want %d", cut, got, whole)
		}
		atBoundary := cut == 0
		for _, b := range bounds {
			if cut == b {
				atBoundary = true
			}
		}
		if atBoundary && err != io.EOF {
			t.Errorf("cut %d (boundary): err = %v, want io.EOF", cut, err)
		}
		if !atBoundary && !errors.Is(err, ErrTruncated) {
			t.Errorf("cut %d (mid-record): err = %v, want ErrTruncated", cut, err)
		}
	}
}

func TestCRCFlippedByte(t *testing.T) {
	data := crcStream(t, "only-record-here")
	for i := range data {
		bad := bytes.Clone(data)
		bad[i] ^= 0x01
		r := NewCRCReader(bytes.NewReader(bad))
		_, err := r.Next()
		if err == nil {
			t.Fatalf("flip at %d: corrupt record read back cleanly", i)
		}
		// A flip in the uvarint length can also present as a truncated
		// stream (declared length now exceeds the bytes present); either
		// way the record must not decode.
		if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTruncated) {
			t.Errorf("flip at %d: err = %v", i, err)
		}
	}
}

func TestCRCInsaneLength(t *testing.T) {
	var buf bytes.Buffer
	lenBuf := make([]byte, binary.MaxVarintLen64)
	n := binary.PutUvarint(lenBuf, uint64(MaxRecordSize)+1)
	buf.Write(lenBuf[:n])
	buf.Write([]byte{0, 0, 0, 0, 'x'})
	if _, err := NewCRCReader(&buf).Next(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

// TestCRCAppendRejectsOversizedRecord pins the write-side bound: a record
// the reader would reject as corrupt must never be writable, or an
// appender could produce a stream that can't be read back.
func TestCRCAppendRejectsOversizedRecord(t *testing.T) {
	var buf bytes.Buffer
	w := NewCRCWriter(&buf)
	if err := w.Append(make([]byte, MaxRecordSize+1)); err == nil {
		t.Fatal("oversized record appended cleanly")
	}
	if buf.Len() != 0 || w.Bytes() != 0 {
		t.Fatalf("rejected append left %d bytes, counted %d", buf.Len(), w.Bytes())
	}
}

// crcErrClass names the terminal condition a CRC reader reported.
func crcErrClass(err error) string {
	switch {
	case err == io.EOF:
		return "EOF"
	case errors.Is(err, ErrTruncated):
		return "truncated"
	case errors.Is(err, ErrCorrupt):
		return "corrupt"
	}
	return fmt.Sprintf("untyped error %v", err)
}

// FuzzCRCFrames: on any byte stream, CRCReader.Next and NextCRCRecord
// neither panic nor disagree — the same records in the same order, then
// the same terminal condition: io.EOF, ErrTruncated or ErrCorrupt.
func FuzzCRCFrames(f *testing.F) {
	good := crcStream(f, "alpha", "", "a much longer record with some bytes in it", "z")
	f.Add(good)
	f.Add([]byte{})
	// TestCRCTornTail's cuts, TestCRCFlippedByte's flips, TestCRCInsaneLength.
	for _, cut := range []int{1, 5, 9, len(good) - 1} {
		f.Add(good[:cut])
	}
	for _, at := range []int{0, 2, 6} {
		bad := bytes.Clone(good)
		bad[at] ^= 0x01
		f.Add(bad)
	}
	f.Add(append(binary.AppendUvarint(nil, MaxRecordSize+1), 0, 0, 0, 0, 'x'))
	// A length prefix that never ends: corrupt, however many bytes follow.
	f.Add(bytes.Repeat([]byte{0xFF}, binary.MaxVarintLen64))
	f.Fuzz(func(t *testing.T, data []byte) {
		var streamed [][]byte
		r := NewCRCReader(bytes.NewReader(data))
		var streamErr error
		for {
			rec, err := r.Next()
			if err != nil {
				streamErr = err
				break
			}
			streamed = append(streamed, bytes.Clone(rec))
		}
		var inPlace [][]byte
		var inPlaceErr error
		for rest := data; ; {
			rec, next, err := NextCRCRecord(rest)
			if err != nil {
				inPlaceErr = err
				break
			}
			inPlace = append(inPlace, rec)
			rest = next
		}
		sc, pc := crcErrClass(streamErr), crcErrClass(inPlaceErr)
		if sc != pc {
			t.Fatalf("Next ends with %s (%v), NextCRCRecord with %s (%v)", sc, streamErr, pc, inPlaceErr)
		}
		if strings.HasPrefix(sc, "untyped") {
			t.Fatalf("readers end with an %s", sc)
		}
		if len(streamed) != len(inPlace) {
			t.Fatalf("Next read %d records, NextCRCRecord %d", len(streamed), len(inPlace))
		}
		for i := range streamed {
			if !bytes.Equal(streamed[i], inPlace[i]) {
				t.Fatalf("record %d: Next %q, NextCRCRecord %q", i, streamed[i], inPlace[i])
			}
		}
	})
}
