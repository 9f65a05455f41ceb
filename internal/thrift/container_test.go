package thrift

import "testing"

// boolListStruct exercises bools inside containers, where the compact
// protocol encodes them as standalone bytes instead of field-header nibbles.
type boolListStruct struct {
	Flags []bool
	M     map[string]bool
}

func (s *boolListStruct) Encode(e *CompactEncoder) {
	e.WriteStructBegin()
	e.WriteFieldBegin(LIST, 1)
	e.WriteListBegin(BOOL, len(s.Flags))
	for _, b := range s.Flags {
		e.WriteBool(b)
	}
	e.WriteFieldBegin(MAP, 2)
	e.WriteMapBegin(STRING, BOOL, len(s.M))
	for k, v := range s.M {
		e.WriteString(k)
		e.WriteBool(v)
	}
	e.WriteFieldStop()
	e.WriteStructEnd()
}

func (s *boolListStruct) Decode(d *CompactDecoder) error {
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
			et, n, err := d.ReadListBegin()
			if err != nil {
				return err
			}
			if et != BOOL {
				return ErrInvalidType
			}
			s.Flags = make([]bool, 0, n)
			for i := 0; i < n; i++ {
				b, err := d.ReadBool()
				if err != nil {
					return err
				}
				s.Flags = append(s.Flags, b)
			}
		case 2:
			_, _, n, err := d.ReadMapBegin()
			if err != nil {
				return err
			}
			s.M = make(map[string]bool, n)
			for i := 0; i < n; i++ {
				k, err := d.ReadString()
				if err != nil {
					return err
				}
				v, err := d.ReadBool()
				if err != nil {
					return err
				}
				s.M[k] = v
			}
		default:
			if err := d.Skip(ft); err != nil {
				return err
			}
		}
	}
	return d.ReadStructEnd()
}

func TestBoolsInContainers(t *testing.T) {
	in := &boolListStruct{
		Flags: []bool{true, false, true, true, false},
		M:     map[string]bool{"a": true, "b": false},
	}
	var out boolListStruct
	if err := DecodeCompact(EncodeCompact(in), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Flags) != len(in.Flags) {
		t.Fatalf("flags = %v", out.Flags)
	}
	for i := range in.Flags {
		if out.Flags[i] != in.Flags[i] {
			t.Fatalf("flags[%d] = %v", i, out.Flags[i])
		}
	}
	if out.M["a"] != true || out.M["b"] != false {
		t.Fatalf("map = %v", out.M)
	}
}

// TestBoolContainerSkipped: a reader that doesn't know the field skips
// bool containers correctly.
func TestBoolContainerSkipped(t *testing.T) {
	in := &boolListStruct{Flags: []bool{true, false}, M: map[string]bool{"x": true}}
	var sink skipAll
	if err := DecodeCompact(EncodeCompact(in), &sink); err != nil {
		t.Fatalf("skip: %v", err)
	}
}

type skipAll struct{}

func (skipAll) Encode(e *CompactEncoder) {
	e.WriteStructBegin()
	e.WriteFieldStop()
	e.WriteStructEnd()
}
func (s *skipAll) Decode(d *CompactDecoder) error {
	if err := d.ReadStructBegin(); err != nil {
		return err
	}
	for {
		ft, _, err := d.ReadFieldBegin()
		if err != nil {
			return err
		}
		if ft == STOP {
			break
		}
		if err := d.Skip(ft); err != nil {
			return err
		}
	}
	return d.ReadStructEnd()
}

func TestTypeStrings(t *testing.T) {
	want := map[Type]string{
		STOP: "stop", BOOL: "bool", BYTE: "byte", DOUBLE: "double",
		I16: "i16", I32: "i32", I64: "i64", STRING: "string",
		STRUCT: "struct", MAP: "map", SET: "set", LIST: "list",
	}
	for typ, s := range want {
		if typ.String() != s {
			t.Errorf("%d.String() = %q, want %q", typ, typ.String(), s)
		}
	}
	if Type(99).String() == "" {
		t.Error("unknown type has empty String")
	}
}
