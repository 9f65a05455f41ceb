package realtime

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"errors"
	"strings"
	"testing"

	"unilog/internal/events"
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

// walGolden is the segment the encoder wrote for walGoldenBatches before its
// dictionaries were dense slices (when they were maps keyed by process ID).
const walGolden = `
67ace211e50202297765623a686f6d653a74696d656c696e653a73747265616d3a74776565743a696d
7072657373696f6e256970686f6e653a7365617263683a726573756c74733a63656c6c3a7477656574
3a6f70656e02027573026a7003e8e2d80a000001010602000300675e40c7450202247765623a70726f
66696c653a6865616465723a636172643a666f6c6c6f773a636c69636b25616e64726f69643a646d3a
7468726561643a636f6d706f7365723a73656e643a636c69636b0207756e6b6e6f776e02627203ede2
d80a0200040301030107071567196c5902000004f1e2d80a000006020001030104018e0603`

// walGoldenBatches is four batches over four names and four countries: the
// first numbers two of each, the second (the one TestWALBytesUnchanged
// fails) the other two, and the third and fourth reference all of them.
func walGoldenBatches(t *testing.T, tab *symtab) [][]obs {
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
	o := func(name byte, dm int64, country string, in bool) obs {
		return obs{minute: base + dm, name: names[name], country: tab.country(country), loggedIn: in}
	}
	return [][]obs{
		{o('A', 0, "us", true), o('B', 3, "jp", false), o('A', -2, "us", false)},
		{o('C', 1, "br", true), o('A', 0, "unknown", false), o('D', 70, "us", true)},
		{o('D', 5, "unknown", false), o('C', 4, "jp", true), o('B', 1, "br", true)},
		{o('A', 9, "br", false), o('D', 9, "us", true), o('C', 8, "unknown", false), o('B', 400, "jp", true)},
	}
}

// TestWALBytesUnchanged appends walGoldenBatches to one segment, the second
// append failing at the flush, and holds the segment to walGolden byte for
// byte. The failed append must roll its dictionary entries back: the third
// record has to carry them again, or it refers to names and countries no
// record in the file defines.
func TestWALBytesUnchanged(t *testing.T) {
	tab := newSymtab()
	sink := &flakySink{}
	w := &walWriter{}
	w.bw = bufio.NewWriter(sink)
	w.cw = recordio.NewCRCWriter(w.bw)
	for i, b := range walGoldenBatches(t, tab) {
		sink.fail = i == 1
		_, _, err := w.append(b, 1<<30, tab)
		if (err != nil) != sink.fail {
			t.Fatalf("batch %d: append error %v, want one only on batch 1", i, err)
		}
		if err != nil {
			sink.fail = false
			w.bw.Reset(sink) // drop the failed record, as a reopened file would
		}
	}
	want, err := hex.DecodeString(strings.ReplaceAll(walGolden, "\n", ""))
	if err != nil {
		t.Fatal(err)
	}
	if got := sink.buf.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("segment bytes changed:\n got %x\nwant %x", got, want)
	}
}
