package dataflow

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"reflect"
	"testing"

	"unilog/internal/hdfs"
	"unilog/internal/recordio"
)

func TestTupleCodecRoundTrip(t *testing.T) {
	in := Tuple{
		nil,
		int64(-42),
		int32(7),
		int(123456),
		3.14159,
		true,
		false,
		"hello",
		[]byte{1, 2, 3},
		map[string]string{"b": "2", "a": "1"},
		"",
	}
	buf, err := appendTuple(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := decodeTuple(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip:\n in:  %#v\n out: %#v", in, out)
	}
	// Concrete types must survive — reducers type-assert on them.
	if _, ok := out[1].(int64); !ok {
		t.Fatalf("int64 came back %T", out[1])
	}
	if _, ok := out[2].(int32); !ok {
		t.Fatalf("int32 came back %T", out[2])
	}
	if _, ok := out[3].(int); !ok {
		t.Fatalf("int came back %T", out[3])
	}
}

func TestTupleCodecDeterministicMaps(t *testing.T) {
	m := map[string]string{"x": "1", "y": "2", "z": "3", "a": "0"}
	a, err := appendTuple(nil, Tuple{m})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		b, err := appendTuple(nil, Tuple{map[string]string{"y": "2", "a": "0", "z": "3", "x": "1"}})
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Fatal("map encoding not deterministic")
		}
	}
}

func TestTupleCodecRejectsUnknownTypes(t *testing.T) {
	type custom struct{ n int }
	if _, err := appendTuple(nil, Tuple{custom{1}}); err == nil {
		t.Fatal("encoded an unknown type")
	}
}

func TestTupleCodecCorruption(t *testing.T) {
	buf, err := appendTuple(nil, Tuple{"hello", int64(1)})
	if err != nil {
		t.Fatal(err)
	}
	// Truncated mid-value.
	if _, err := decodeTuple(buf[:len(buf)-2]); !errors.Is(err, recordio.ErrCorrupt) {
		t.Fatalf("truncated decode err = %v", err)
	}
	// Unknown tag.
	bad := append([]byte(nil), buf...)
	bad[1] = 0xee
	if _, err := decodeTuple(bad); !errors.Is(err, recordio.ErrCorrupt) {
		t.Fatalf("bad tag decode err = %v", err)
	}
	// Trailing garbage after a well-formed tuple.
	if _, err := decodeTuple(append(buf, 0)); !errors.Is(err, recordio.ErrCorrupt) {
		t.Fatalf("trailing bytes decode err = %v", err)
	}
	// Empty record: even a zero-arity tuple carries its arity byte.
	if _, err := decodeTuple(nil); !errors.Is(err, recordio.ErrCorrupt) {
		t.Fatalf("empty record decode err = %v", err)
	}
}

// spillRecordSeeds writes a real spill file — GroupBy under a tiny budget
// over tuples holding every codec tag — and cuts it into seeds: each run
// record, the record cut short and with one bit flipped, and each record
// still in its CRC frame.
func spillRecordSeeds(f *testing.F) [][]byte {
	j := NewJob("fuzz-seed", hdfs.New(0))
	j.MemoryBudget = 64
	j.SpillDir = f.TempDir()
	tuples := make([]Tuple, 6)
	for i := range tuples {
		tuples[i] = Tuple{
			fmt.Sprintf("k%d", i%3), nil, int64(-i), int32(i), i << 40, float64(i) / 3,
			false, true, "s\x00", []byte{byte(i), 0}, map[string]string{"a": "b", "c": fmt.Sprint(i)},
		}
	}
	g, err := NewDataset(j, Schema{"k", "nil", "i64", "i32", "int", "f", "no", "yes", "s", "b", "m"}, tuples).GroupBy("k")
	if err != nil {
		f.Fatal(err)
	}
	defer g.Close()
	if len(g.st.runs) == 0 {
		f.Fatal("fixture spilled no runs")
	}
	data, err := os.ReadFile(g.st.runs[0].path)
	if err != nil {
		f.Fatal(err)
	}
	var seeds [][]byte
	for rest := data; len(rest) > 0; {
		rec, next, err := recordio.NextCRCRecord(rest)
		if err != nil {
			f.Fatal(err)
		}
		frame := rest[:len(rest)-len(next)]
		flipped := append([]byte(nil), rec...)
		flipped[len(flipped)/2] ^= 0x10
		seeds = append(seeds, append([]byte(nil), rec...), rec[:len(rec)/2], flipped, append([]byte(nil), frame...))
		rest = next
	}
	return seeds
}

// readRunRecord reads rec the way a merge does: framed in one valid CRC
// frame, through a fileRun over a section reader claiming one record. It
// returns the record's key, sequence and tuple, or the decode error.
func readRunRecord(t *testing.T, rec []byte) ([]byte, uint64, Tuple, error) {
	var framed bytes.Buffer
	if err := recordio.NewCRCWriter(&framed).Append(rec); err != nil {
		t.Skip(err) // over MaxRecordSize: no frame can carry it
	}
	sec := io.NewSectionReader(bytes.NewReader(framed.Bytes()), 0, int64(framed.Len()))
	run := &fileRun{path: "fuzz", r: recordio.NewCRCReader(sec), remaining: 1}
	if err := run.advance(); err != nil {
		return nil, 0, nil, err
	}
	if err := run.advance(); err != io.EOF {
		t.Fatalf("one-record run did not end after its record: %v", err)
	}
	return run.key(), run.seq(), run.tuple(), nil
}

// FuzzSpillRecord holds the spill-run decoders to their contract on any
// bytes: the CRC frame reader and, behind a valid frame, the run-record
// decoder never panic and fail only with recordio.ErrCorrupt or
// ErrTruncated, and a record they accept re-encodes to bytes that decode
// and re-encode byte-identically. (Encodings are compared, not values, so
// NaNs and map order cannot fool the check.)
func FuzzSpillRecord(f *testing.F) {
	for _, seed := range spillRecordSeeds(f) {
		f.Add(seed)
	}
	typed := func(err error) bool {
		return errors.Is(err, recordio.ErrCorrupt) || errors.Is(err, recordio.ErrTruncated)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := recordio.NewCRCReader(bytes.NewReader(data))
		for {
			_, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				if !typed(err) {
					t.Fatalf("frame reader: untyped error %v", err)
				}
				break
			}
		}

		key, seq, tup, err := readRunRecord(t, data)
		if err != nil {
			if !typed(err) {
				t.Fatalf("run record: untyped error %v", err)
			}
			return
		}
		enc, err := appendRunRec(nil, key, seq, tup)
		if err != nil {
			t.Fatalf("accepted record does not re-encode: %v", err)
		}
		key, seq, tup, err = readRunRecord(t, enc)
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v", err)
		}
		again, err := appendRunRec(nil, key, seq, tup)
		if err != nil || !bytes.Equal(again, enc) {
			t.Fatalf("re-encoding is not stable (%v):\n%x\n%x", err, enc, again)
		}
	})
}

// decodeTuple parses one whole record as a tuple; the merge path reads
// records through decodeTupleFrom after the run header.
func decodeTuple(rec []byte) (Tuple, error) {
	return decodeTupleFrom(recordio.NewCursor(rec))
}
