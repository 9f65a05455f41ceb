package realtime

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"reflect"
	"slices"
	"strings"
	"testing"

	"unilog/internal/events"
	"unilog/internal/geo"
	"unilog/internal/recordio"
)

// flakySink is a segment file whose writes fail while fail is set.
type flakySink struct {
	buf  bytes.Buffer
	fail bool
}

func (s *flakySink) Write(p []byte) (int, error) {
	if s.fail {
		return 0, errors.New("disk full")
	}
	return s.buf.Write(p)
}

// walGolden is the segment the v4 encoder writes for walGoldenBatches, a
// country logged as its geo index. Re-pin it only with a record format
// change, which bumps walRecordVersion.
const walGolden = `
6070ee52e60402297765623a686f6d653a74696d656c696e653a73747265616d3a74776565743a696d70
72657373696f6e256970686f6e653a7365617263683a726573756c74733a63656c6c3a74776565743a6f
70656e03e8e2d80a0000010106020003005b1c867f060402247765623a70726f66696c653a6865616465
723a636172643a666f6c6c6f773a636c69636b25616e64726f69643a646d3a7468726561643a636f6d70
6f7365723a73656e643a636c69636b03ede2d80a0200100301030107071485d58f83040004f1e2d80a00
0006020001030110018e0603`

// countryOf is code's geo index, len(geo.Countries) for geo.Unknown.
func countryOf(code string) uint8 { return uint8(geo.CountryIndex(geo.IPFor(code, 1))) }

// walGoldenBatches is four batches over four names and four countries,
// geo.Unknown among them: the first numbers two of the names, the second
// (the one TestWALBytesUnchanged fails) the other two, and the third and
// fourth reference all of them.
func walGoldenBatches(t *testing.T) [][]Observation {
	names := map[byte]*events.NameEntry{}
	for k, full := range map[byte]string{
		'A': "web:home:timeline:stream:tweet:impression",
		'B': "iphone:search:results:cell:tweet:open",
		'C': "android:dm:thread:composer:send:click",
		'D': "web:profile:header:card:follow:click",
	} {
		e, err := events.Lookup(full)
		if err != nil {
			t.Fatal(err)
		}
		names[k] = e
	}
	base := t0.Unix() / 60
	o := func(name byte, dm int64, country string, in bool) Observation {
		return Observation{Name: names[name], Minute: base + dm, Country: countryOf(country), LoggedIn: in}
	}
	return [][]Observation{
		{o('A', 0, "us", true), o('B', 3, "jp", false), o('A', -2, "us", false)},
		{o('C', 1, "br", true), o('A', 0, "unknown", false), o('D', 70, "us", true)},
		{o('D', 5, "unknown", false), o('C', 4, "jp", true), o('B', 1, "br", true)},
		{o('A', 9, "br", false), o('D', 9, "us", true), o('C', 8, "unknown", false), o('B', 400, "jp", true)},
	}
}

// TestWALBytesUnchanged appends walGoldenBatches to one segment, the second
// append failing at the flush, reads the segment back and holds it to
// walGolden byte for byte. The failed append must roll its dictionary
// entries back: the third record has to carry them again, or it refers to
// names no record in the file defines.
func TestWALBytesUnchanged(t *testing.T) {
	sink := &flakySink{}
	w := &walWriter{}
	w.bw = bufio.NewWriter(sink)
	w.cw = recordio.NewCRCWriter(w.bw)
	batches := walGoldenBatches(t)
	for i, b := range batches {
		sink.fail = i == 1
		_, _, err := w.append(b, 1<<30)
		if (err != nil) != sink.fail {
			t.Fatalf("batch %d: append error %v, want one only on batch 1", i, err)
		}
		if err != nil {
			sink.fail = false
			w.bw.Reset(sink) // drop the failed record, as a reopened file would
		}
	}
	var read []Observation
	dec := &walDecoder{}
	for r := recordio.NewCRCReader(bytes.NewReader(sink.buf.Bytes())); ; {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err == nil {
			err = dec.decodeBatch(rec, func(o Observation, _ int64) error { read = append(read, o); return nil })
		}
		if err != nil {
			t.Fatalf("segment record %d: %v", len(read), err)
		}
	}
	if logged := slices.Concat(batches[0], batches[2], batches[3]); !reflect.DeepEqual(read, logged) {
		t.Fatalf("segment reads back as\n%+v\nwant batches 0, 2 and 3:\n%+v", read, logged)
	}
	want, err := hex.DecodeString(strings.ReplaceAll(walGolden, "\n", ""))
	if err != nil {
		t.Fatal(err)
	}
	if got := sink.buf.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("segment bytes changed:\n got %x\nwant %x", got, want)
	}
}
