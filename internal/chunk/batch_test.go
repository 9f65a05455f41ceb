package chunk

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"strings"
	"testing"

	"unilog/internal/events"
	"unilog/internal/hdfs"
	"unilog/internal/recordio"
)

const rowDir = "/logs/client_events/2012/08/21/01"

// writeRowFile writes recs as one gzipped row file at path.
func writeRowFile(tb testing.TB, fs *hdfs.FS, path string, recs ...[]byte) {
	tb.Helper()
	var buf bytes.Buffer
	w := recordio.NewGzipWriter(&buf)
	for _, rec := range recs {
		if err := w.Append(rec); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	if err := fs.WriteFile(path, buf.Bytes()); err != nil {
		tb.Fatal(err)
	}
}

// sameRows reports the first column whose rows differ between two batches
// of every column, comparing values, not dictionary numbering: a row file
// numbers its dictionaries in first-seen order, a chunk in sorted order.
func sameRows(a, b *Columns) string {
	if a.Rows != b.Rows {
		return "rows"
	}
	for row := 0; row < a.Rows; row++ {
		switch {
		case a.Initiator[row] != b.Initiator[row]:
			return "initiator"
		case a.Name.At(row) != b.Name.At(row):
			return "name"
		case a.UserID[row] != b.UserID[row]:
			return "user_id"
		case a.SessionID.At(row) != b.SessionID.At(row):
			return "session_id"
		case a.IP.At(row) != b.IP.At(row):
			return "ip"
		case a.Timestamp[row] != b.Timestamp[row]:
			return "timestamp"
		case a.LoggedIn[row] != b.LoggedIn[row]:
			return "logged_in"
		case !reflect.DeepEqual(a.Details.At(row), b.Details.At(row)):
			return "details"
		}
	}
	return ""
}

// sealed seals recs as chunk 0 of testDir the way the columnar seal does,
// or returns the error the seal stops at.
func sealed(recs [][]byte) (*Columns, error) {
	var b Builder
	for _, rec := range recs {
		if err := b.AddRecord(rec); err != nil {
			return nil, err
		}
	}
	if b.Rows() == 0 {
		return &Columns{}, nil
	}
	fs := hdfs.New(0)
	if _, err := writeChunk(&b, fs, testDir, 0); err != nil {
		return nil, err
	}
	batch, err := loadChunk(fs, testChunk, All)
	if err != nil {
		return nil, err
	}
	return &batch.Columns, nil
}

// TestReadHourSealedAndRows: one hour read through the day reader gives the
// same rows whether it is sealed into several chunks or left as row files,
// and a row batch widens to further columns as a chunk does.
func TestReadHourSealedAndRows(t *testing.T) {
	evs := testEvents(500)
	fs := hdfs.New(0)
	var recs [][]byte
	for _, e := range evs {
		recs = append(recs, e.Marshal())
	}
	writeRowFile(t, fs, rowDir+"/part-00000.gz", recs[:200]...)
	writeRowFile(t, fs, rowDir+"/part-00001.gz", recs[200:]...)
	read := func() []*Batch {
		t.Helper()
		var out []*Batch
		if err := ReadHour(fs, rowDir, Name|Timestamp, func(b *Batch) error {
			out = append(out, b)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	rows := read()
	if len(rows) != 2 || rows[0].Rows != 200 || rows[1].Rows != 300 || rows[0].UserID != nil || rows[0].Details.vals != nil {
		t.Fatalf("row batches: %d, first %d rows", len(rows), rows[0].Rows)
	}
	for _, b := range rows {
		if err := b.Widen(All); err != nil {
			t.Fatal(err)
		}
	}

	var bld Builder
	var metas []Meta
	for i, rec := range recs {
		if err := bld.AddRecord(rec); err != nil {
			t.Fatal(err)
		}
		if bld.Rows() == 150 || i == len(recs)-1 {
			m, err := writeChunk(&bld, fs, rowDir, i/150)
			if err != nil {
				t.Fatal(err)
			}
			metas = append(metas, m)
		}
	}
	if err := WriteSealed(fs, rowDir, metas); err != nil {
		t.Fatal(err)
	}
	chunks := read()
	if len(chunks) != 4 || chunks[0].Path != Path(rowDir, 0) || chunks[0].rowFile || !rows[0].rowFile {
		t.Fatalf("%d chunk batches", len(chunks))
	}
	var fromRows, fromChunks []events.ClientEvent
	for _, set := range []struct {
		batches []*Batch
		out     *[]events.ClientEvent
	}{{rows, &fromRows}, {chunks, &fromChunks}} {
		for _, b := range set.batches {
			if err := b.Widen(All); err != nil {
				t.Fatal(err)
			}
			for row := 0; row < b.Rows; row++ {
				e, err := b.Event(row)
				if err != nil {
					t.Fatal(err)
				}
				*set.out = append(*set.out, e)
			}
		}
	}
	if len(fromRows) != len(evs) || !reflect.DeepEqual(fromRows, fromChunks) {
		t.Fatalf("%d events from rows, %d from chunks, or they differ", len(fromRows), len(fromChunks))
	}
}

// TestRowFileErrorsNameTheFile: a damaged row file and a record the header
// walk cannot read fail with the file's path, the damage as ErrCorrupt.
func TestRowFileErrorsNameTheFile(t *testing.T) {
	fs := hdfs.New(0)
	name := "web:home:timeline:stream:tweet:impression"
	good := wireMessage(&name, 5)
	writeRowFile(t, fs, rowDir+"/part-00000.gz", good, good, good)
	data, err := fs.ReadFile(rowDir + "/part-00000.gz")
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-6] ^= 0xff // inside the trailer's CRC-32
	path := rowDir + "/part-00001.gz"
	if err := fs.WriteFile(path, data); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadRowFile(fs, path, Name); !errors.Is(err, recordio.ErrCorrupt) || !strings.Contains(err.Error(), path) {
		t.Fatalf("damaged row file: %v", err)
	}
	bad := "web:home"
	path = rowDir + "/part-00002.gz"
	writeRowFile(t, fs, path, good, wireMessage(&bad, 6))
	if _, err := ReadRowFile(fs, path, Timestamp); err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("invalid name, not projected: %v", err)
	}
}

// typeEdges are lists of records whose details sit at the edges of the
// details column's encodings: values each encoding must refuse, values it
// must take, a repeated key, a key in some rows only, and a key whose values
// mix encodings.
func typeEdges() [][][]byte {
	name := "web:home:timeline:stream:tweet:impression"
	msg := func(details ...[2]string) []byte { return wireMessage(&name, 1, details...) }
	column := func(key string, vals ...string) [][]byte {
		recs := make([][]byte, len(vals))
		for i, v := range vals {
			recs[i] = msg([2]string{key, v})
		}
		return recs
	}
	return [][][]byte{
		column("h", "ABCD", "abcd"), // uppercase hex
		column("h", "abc", "ab"),    // odd-length hex
		column("h", "0f", "00ff", "deadbeef"),
		column("n", "0", "00"),                   // a leading zero
		column("n", "0123", "123"),               // a leading zero
		column("n", "0", "7", "1000"),            // decimal, "0" itself
		column("n", "18446744073709551615", "1"), // MaxUint64
		column("n", "18446744073709551616", "1"), // 20 digits above MaxUint64
		column("n", "99999999999999999999"),
		column("n", "-1", "1"),
		column("n", "+1"),
		column("e", "", "x", ""),                  // the empty value
		column("b", "\xff\xfe", "\xff\xfe", "ok"), // not UTF-8
		column("", "empty key"),
		{msg([2]string{"k", "1"}, [2]string{"k", "zz"}, [2]string{"k", "2"})}, // a repeated key: last wins
		{msg([2]string{"a", "1"}), wireMessage(&name, 2), msg([2]string{"b", "ff"}), msg([2]string{"a", "2"}, [2]string{"b", "x"})},
		column("m", "00ff", "not hex", "ab12"), // hex and not
		column("m", "12", "ab", "12"),          // decimal, hex, and one dictionary
		column("d", "en", "en", "en", "en", "en", "fr"),
	}
}

// FuzzRowBatchMatchesSeal: a list of records read as a row file by the day
// reader and sealed by the Builder, then loaded back, gives the same value
// in every column of every row — or both refuse it — and each row's details
// are the map a full decode of its record makes, nil when it is empty.
func FuzzRowBatchMatchesSeal(f *testing.F) {
	name, zero, bad := "web:home:timeline:stream:tweet:impression", zeroName, "Web:home"
	other := "iphone:profile:header:bio:link:click"
	seeds := [][][]byte{
		{},
		{wireMessage(&name, 5, [2]string{"rank", "first"}, [2]string{"lang", "en"}, [2]string{"rank", "last"})},
		{wireMessage(nil, 1), wireMessage(&name, 2), wireMessage(nil, 3), wireMessage(&other, -4, [2]string{"a", ""})},
		{wireMessage(&name, 1), wireMessage(&zero, 2)},
		{wireMessage(&bad, 1)},
		{wireMessage(&name, 1)[:5]},
	}
	seeds = append(seeds, typeEdges()...)
	for _, e := range testEvents(6) {
		seeds = append(seeds, [][]byte{e.Marshal()})
	}
	for _, recs := range seeds {
		var in []byte
		for _, rec := range recs {
			in = binary.AppendUvarint(in, uint64(len(rec)))
			in = append(in, rec...)
		}
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		var recs [][]byte
		for len(in) > 0 {
			n, k := binary.Uvarint(in)
			if k <= 0 || n > uint64(len(in)-k) {
				break
			}
			recs = append(recs, in[k:k+int(n)])
			in = in[k+int(n):]
		}
		want, sealErr := sealed(recs)
		fs := hdfs.New(0)
		path := rowDir + "/part-00000.gz"
		writeRowFile(t, fs, path, recs...)
		got, err := ReadRowFile(fs, path, All)
		if (err != nil) != (sealErr != nil) {
			t.Fatalf("row batch error %v, seal error %v", err, sealErr)
		}
		if err != nil {
			if !strings.Contains(err.Error(), path) {
				t.Fatalf("row batch error %v does not name the file", err)
			}
			return
		}
		if want.Rows == 0 {
			if got.Rows != 0 {
				t.Fatalf("row batch has %d rows, the seal none", got.Rows)
			}
			return
		}
		if col := sameRows(&got.Columns, want); col != "" {
			t.Fatalf("column %s differs between the row batch and the seal", col)
		}
		for row, rec := range recs {
			var e events.ClientEvent
			if err := e.Unmarshal(rec); err != nil {
				t.Fatalf("record %d was sealed but does not decode: %v", row, err)
			}
			if len(e.Details) == 0 {
				e.Details = nil
			}
			if got := want.Details.At(row); !reflect.DeepEqual(got, e.Details) {
				t.Fatalf("row %d details = %q, decoded %q", row, got, e.Details)
			}
		}
	})
}
