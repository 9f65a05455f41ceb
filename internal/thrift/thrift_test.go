package thrift

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

// testStruct exercises every wire type including nesting.
type testStruct struct {
	B   bool
	I8  int8
	I16 int16
	I32 int32
	I64 int64
	F   float64
	S   string
	Bin []byte
	M   map[string]int64
	L   []string
	Sub *testStruct
}

func (t *testStruct) Encode(e *CompactEncoder) {
	e.WriteStructBegin()
	e.WriteFieldBegin(BOOL, 1)
	e.WriteBool(t.B)
	e.WriteFieldBegin(BYTE, 2)
	e.WriteI8(t.I8)
	e.WriteFieldBegin(I16, 3)
	e.WriteI32(int32(t.I16)) // an i16 is an i32's zigzag varint on the wire
	e.WriteFieldBegin(I32, 4)
	e.WriteI32(t.I32)
	e.WriteFieldBegin(I64, 5)
	e.WriteI64(t.I64)
	e.WriteFieldBegin(DOUBLE, 6)
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(t.F))
	e.WriteFieldBegin(STRING, 7)
	e.WriteString(t.S)
	e.WriteFieldBegin(STRING, 8)
	e.WriteBinary(t.Bin)
	e.WriteFieldBegin(MAP, 9)
	e.WriteMapBegin(STRING, I64, len(t.M))
	for k, v := range t.M {
		e.WriteString(k)
		e.WriteI64(v)
	}
	e.WriteFieldBegin(LIST, 10)
	e.WriteListBegin(STRING, len(t.L))
	for _, s := range t.L {
		e.WriteString(s)
	}
	if t.Sub != nil {
		e.WriteFieldBegin(STRUCT, 11)
		t.Sub.Encode(e)
	}
	e.WriteFieldStop()
	e.WriteStructEnd()
}

func (t *testStruct) Decode(d *CompactDecoder) error {
	if err := d.ReadStructBegin(); err != nil {
		return err
	}
	for {
		ft, id, err := d.ReadFieldBegin()
		if err != nil {
			return err
		}
		if ft == STOP {
			break
		}
		switch id {
		case 1:
			t.B, err = d.ReadBool()
		case 2:
			t.I8, err = d.ReadI8()
		case 3:
			t.I16, err = d.ReadI16()
		case 4:
			t.I32, err = d.ReadI32()
		case 5:
			t.I64, err = d.ReadI64()
		case 6:
			t.F, err = d.ReadDouble()
		case 7:
			t.S, err = d.ReadString()
		case 8:
			var b []byte
			b, err = d.ReadBinary()
			t.Bin = make([]byte, len(b))
			copy(t.Bin, b)
		case 9:
			var n int
			if _, _, n, err = d.ReadMapBegin(); err == nil {
				t.M = make(map[string]int64, n)
				for i := 0; i < n; i++ {
					var k string
					var v int64
					if k, err = d.ReadString(); err != nil {
						return err
					}
					if v, err = d.ReadI64(); err != nil {
						return err
					}
					t.M[k] = v
				}
			}
		case 10:
			var n int
			if _, n, err = d.ReadListBegin(); err == nil {
				t.L = make([]string, 0, n)
				for i := 0; i < n; i++ {
					var s string
					if s, err = d.ReadString(); err != nil {
						return err
					}
					t.L = append(t.L, s)
				}
			}
		case 11:
			t.Sub = &testStruct{}
			err = t.Sub.Decode(d)
		default:
			err = d.Skip(ft)
		}
		if err != nil {
			return err
		}
	}
	return d.ReadStructEnd()
}

func sample() *testStruct {
	return &testStruct{
		B: true, I8: -7, I16: -12345, I32: 1 << 30, I64: -(1 << 60),
		F: 3.14159, S: "web:home:mentions:stream:avatar:profile_click",
		Bin: []byte{0, 1, 2, 255},
		M:   map[string]int64{"rank": 3, "url_id": 991},
		L:   []string{"a", "b", "c"},
		Sub: &testStruct{S: "nested", I64: 42, M: map[string]int64{}, Bin: []byte{}, L: []string{}},
	}
}

func TestCompactRoundTrip(t *testing.T) {
	in := sample()
	var out testStruct
	if err := DecodeCompact(EncodeCompact(in), &out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(in, &out) {
		t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v", in, &out)
	}
}

// v2Struct is testStruct plus extra fields an old reader has never seen.
type v2Struct struct {
	testStruct
	Extra     string
	ExtraList []int64
	ExtraSub  *testStruct
}

func (v *v2Struct) Encode(e *CompactEncoder) {
	e.WriteStructBegin()
	e.WriteFieldBegin(BOOL, 1)
	e.WriteBool(v.B)
	e.WriteFieldBegin(STRING, 7)
	e.WriteString(v.S)
	// New fields unknown to v1 readers, deliberately interleaved.
	e.WriteFieldBegin(STRING, 20)
	e.WriteString(v.Extra)
	e.WriteFieldBegin(LIST, 21)
	e.WriteListBegin(I64, len(v.ExtraList))
	for _, x := range v.ExtraList {
		e.WriteI64(x)
	}
	if v.ExtraSub != nil {
		e.WriteFieldBegin(STRUCT, 22)
		v.ExtraSub.Encode(e)
	}
	e.WriteFieldBegin(I64, 5)
	e.WriteI64(v.I64)
	e.WriteFieldStop()
	e.WriteStructEnd()
}

func (v *v2Struct) Decode(d *CompactDecoder) error { return v.testStruct.Decode(d) }

// TestSchemaEvolution verifies the paper's backwards-compatibility property:
// messages "can be augmented with additional fields in a completely
// transparent way" (§3) — a v1 reader must skip v2 fields.
func TestSchemaEvolution(t *testing.T) {
	v2 := &v2Struct{
		testStruct: testStruct{B: true, S: "hello", I64: 99},
		Extra:      "new-field",
		ExtraList:  []int64{1, 2, 3},
		ExtraSub:   &testStruct{S: "deep", M: map[string]int64{}},
	}
	var v1 testStruct
	if err := DecodeCompact(EncodeCompact(v2), &v1); err != nil {
		t.Fatalf("v1 reader failed on v2 message: %v", err)
	}
	if !v1.B || v1.S != "hello" || v1.I64 != 99 {
		t.Fatalf("v1 fields corrupted: %+v", v1)
	}
}

func TestZigZag(t *testing.T) {
	for _, v := range []int64{0, -1, 1, -2, 2, math.MaxInt64, math.MinInt64, 12345, -12345} {
		if got := unzigzag64(zigzag64(v)); got != v {
			t.Errorf("zigzag64(%d) round trip = %d", v, got)
		}
	}
	for _, v := range []int32{0, -1, 1, math.MaxInt32, math.MinInt32} {
		if got := unzigzag32(zigzag32(v)); got != v {
			t.Errorf("zigzag32(%d) round trip = %d", v, got)
		}
	}
}

func TestZigZagProperty(t *testing.T) {
	f := func(v int64) bool { return unzigzag64(zigzag64(v)) == v }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	g := func(v int32) bool {
		// Small magnitudes must encode small: |v| <= 63 fits one varint byte.
		if v > -64 && v < 64 {
			return zigzag32(v) < 128
		}
		return true
	}
	if err := quick.Check(g, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRoundTripProperty fuzzes struct contents through the protocol.
func TestRoundTripProperty(t *testing.T) {
	f := func(b bool, i8 int8, i16 int16, i32 int32, i64 int64, fl float64, s string, bin []byte, l []string) bool {
		if math.IsNaN(fl) {
			return true // NaN != NaN; skip.
		}
		if bin == nil {
			bin = []byte{}
		}
		if l == nil {
			l = []string{}
		}
		in := &testStruct{B: b, I8: i8, I16: i16, I32: i32, I64: i64, F: fl, S: s, Bin: bin, L: l, M: map[string]int64{}}
		var out testStruct
		if err := DecodeCompact(EncodeCompact(in), &out); err != nil {
			return false
		}
		return reflect.DeepEqual(in, &out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTruncatedInput(t *testing.T) {
	// A strict prefix lacks the STOP byte, so every cut must fail.
	data := EncodeCompact(sample())
	for cut := 0; cut < len(data); cut += 7 {
		var out testStruct
		if err := DecodeCompact(data[:cut], &out); err == nil && cut < len(data)-1 {
			t.Fatalf("no error decoding %d/%d byte prefix", cut, len(data))
		}
	}
}

func TestMaliciousSizes(t *testing.T) {
	// A declared list of 2^31-1 strings in 8 bytes of input must not OOM.
	e := NewCompactEncoder()
	e.WriteStructBegin()
	e.WriteFieldBegin(LIST, 10)
	e.WriteListBegin(STRING, math.MaxInt32)
	e.WriteFieldStop()
	e.WriteStructEnd()
	var out testStruct
	if err := DecodeCompact(e.Bytes(), &out); !errors.Is(err, ErrSizeLimit) {
		t.Fatalf("absurd list size: err = %v, want ErrSizeLimit", err)
	}
}

func TestSkipDepthLimit(t *testing.T) {
	// 100 nested structs exceeds maxSkipDepth when skipped as unknown.
	e := NewCompactEncoder()
	e.WriteStructBegin()
	for i := 0; i < 100; i++ {
		e.WriteFieldBegin(STRUCT, 30)
		e.WriteStructBegin()
	}
	for i := 0; i < 100; i++ {
		e.WriteFieldStop()
		e.WriteStructEnd()
	}
	e.WriteFieldStop()
	e.WriteStructEnd()
	var out testStruct
	if err := DecodeCompact(e.Bytes(), &out); !errors.Is(err, ErrDepthLimit) {
		t.Fatalf("100 nested structs: err = %v, want ErrDepthLimit", err)
	}
}

func TestEncoderReset(t *testing.T) {
	e := NewCompactEncoder()
	sample().Encode(e)
	n := e.Len()
	e.Reset()
	if e.Len() != 0 {
		t.Fatalf("Len after Reset = %d", e.Len())
	}
	sample().Encode(e)
	if e.Len() != n {
		t.Fatalf("re-encode after Reset: %d bytes, want %d", e.Len(), n)
	}
}

func TestRemaining(t *testing.T) {
	d := NewCompactDecoder(EncodeCompact(sample()))
	var out testStruct
	if err := out.Decode(d); err != nil {
		t.Fatal(err)
	}
	if d.Remaining() != 0 {
		t.Fatalf("Remaining = %d after full decode", d.Remaining())
	}
}

func TestFieldIDDeltaAcrossNesting(t *testing.T) {
	// Compact field-id deltas must be scoped per struct: after a nested
	// struct with high field ids, the outer struct's delta context resumes.
	in := sample()
	in.Sub = &testStruct{S: "x", M: map[string]int64{}, Sub: &testStruct{I64: 7, M: map[string]int64{}}}
	var out testStruct
	if err := DecodeCompact(EncodeCompact(in), &out); err != nil {
		t.Fatal(err)
	}
	if out.Sub == nil || out.Sub.Sub == nil || out.Sub.Sub.I64 != 7 {
		t.Fatalf("nested decode mismatch: %+v", out.Sub)
	}
}

// TestShortPathsMatchGeneral holds each read's one-byte short path to the
// general code it falls back to, on every lead byte, after every tail
// length, from a decoder with and without a pending bool: same value, same
// error text, same decoder state after the read.
func TestShortPathsMatchGeneral(t *testing.T) {
	reads := []struct {
		name        string
		short, slow func(d *CompactDecoder) (any, error)
	}{
		{"field header",
			func(d *CompactDecoder) (any, error) { ft, id, err := d.ReadFieldBegin(); return [2]any{ft, id}, err },
			func(d *CompactDecoder) (any, error) { ft, id, err := d.readFieldBegin(); return [2]any{ft, id}, err }},
		{"binary",
			func(d *CompactDecoder) (any, error) { return d.ReadBinary() },
			func(d *CompactDecoder) (any, error) { return d.readBinary() }},
		{"uvarint",
			func(d *CompactDecoder) (any, error) { return d.readUvarint() },
			func(d *CompactDecoder) (any, error) { return d.readUvarintSlow() }},
		{"i64",
			func(d *CompactDecoder) (any, error) { return d.ReadI64() },
			func(d *CompactDecoder) (any, error) { v, err := d.readUvarintSlow(); return unzigzag64(v), err }},
	}
	tail := []byte{0x05, 0x80, 0x01, 'a', 'b', 'c'}
	for _, r := range reads {
		for lead := 0; lead < 256; lead++ {
			for n := 0; n <= len(tail); n++ {
				for _, pending := range []bool{false, true} {
					data := append([]byte{0x11, byte(lead)}, tail[:n]...)
					var short CompactDecoder
					short.Reset(data)
					short.pos, short.lastFieldID = 1, 3
					short.pendingBool, short.hasPendingBool = pending, pending
					slow := short
					sv, serr := r.short(&short)
					gv, gerr := r.slow(&slow)
					if fmt.Sprint(serr) != fmt.Sprint(gerr) || !reflect.DeepEqual(sv, gv) || !reflect.DeepEqual(short, slow) {
						t.Fatalf("%s on %x: short path %v, %v, %+v; general %v, %v, %+v",
							r.name, data[1:], sv, serr, short, gv, gerr, slow)
					}
				}
			}
		}
	}
}

// TestMistypedBoolFieldLeavesItsBool: a BOOL field header read by a
// decoder that then reads the field as another type leaves its bool
// pending, and the next ReadBool — here the first element of a skipped
// list<bool> — takes it without reading a byte. 0x30 is then the list's
// second element, and the next 0x30 a field header of no type.
func TestMistypedBoolFieldLeavesItsBool(t *testing.T) {
	d := NewCompactDecoder([]byte{0x61, 0x30, 0x39, 0x21, 0x30, 0x30})
	if ft, id, err := d.ReadFieldBegin(); ft != BOOL || id != 6 || err != nil {
		t.Fatalf("first header = %v %d %v", ft, id, err)
	}
	if v, err := d.ReadI64(); v != 24 || err != nil {
		t.Fatalf("i64 under the bool header = %d, %v", v, err)
	}
	if ft, id, err := d.ReadFieldBegin(); ft != LIST || id != 9 || err != nil {
		t.Fatalf("second header = %v %d %v", ft, id, err)
	}
	if err := d.Skip(LIST); err != nil {
		t.Fatalf("skip list<bool>: %v", err)
	}
	if _, _, err := d.ReadFieldBegin(); !errors.Is(err, ErrInvalidType) {
		t.Fatalf("third header: err = %v, want ErrInvalidType", err)
	}
}
