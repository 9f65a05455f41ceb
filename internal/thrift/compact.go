package thrift

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Compact-protocol wire type nibbles. They differ from the Type IDs;
// booleans in field headers carry their value in the type nibble.
const (
	ctStop        = 0x00
	ctBoolTrue    = 0x01
	ctBoolFalse   = 0x02
	ctByte        = 0x03
	ctI16         = 0x04
	ctI32         = 0x05
	ctI64         = 0x06
	ctDouble      = 0x07
	ctBinary      = 0x08
	ctList        = 0x09
	ctSet         = 0x0A
	ctMap         = 0x0B
	ctStruct      = 0x0C
	ctBoolGeneric = ctBoolTrue // element type used for bools inside containers
)

func toCompactType(t Type) byte {
	switch t {
	case BOOL:
		return ctBoolGeneric
	case BYTE:
		return ctByte
	case I16:
		return ctI16
	case I32:
		return ctI32
	case I64:
		return ctI64
	case DOUBLE:
		return ctDouble
	case STRING:
		return ctBinary
	case LIST:
		return ctList
	case SET:
		return ctSet
	case MAP:
		return ctMap
	case STRUCT:
		return ctStruct
	}
	return ctStop
}

// compactTypes maps a compact type nibble to its Type; STOP marks a nibble
// that names none (0, which only ends a struct, and 13-15).
var compactTypes = [16]Type{
	ctBoolTrue: BOOL, ctBoolFalse: BOOL, ctByte: BYTE, ctI16: I16, ctI32: I32,
	ctI64: I64, ctDouble: DOUBLE, ctBinary: STRING, ctList: LIST, ctSet: SET,
	ctMap: MAP, ctStruct: STRUCT,
}

func fromCompactType(ct byte) (Type, error) {
	if t := compactTypes[ct&0x0F]; t != STOP {
		return t, nil
	}
	return STOP, fmt.Errorf("%w: compact type 0x%02x", ErrInvalidType, ct)
}

func zigzag32(v int32) uint32 { return uint32(v<<1) ^ uint32(v>>31) }
func zigzag64(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag32(v uint32) int32 {
	return int32(v>>1) ^ -int32(v&1)
}
func unzigzag64(v uint64) int64 {
	return int64(v>>1) ^ -int64(v&1)
}

// CompactEncoder implements the Thrift compact protocol: varint/zigzag
// integers, delta-encoded field ids, and single-byte bool fields.
type CompactEncoder struct {
	buf []byte
	// lastFieldID tracks the previous field id of the struct currently being
	// written so ids can be delta-encoded; idStack saves it across nesting.
	lastFieldID int16
	idStack     []int16
	// pendingBoolField holds the field id of a BOOL field whose header is
	// deferred until WriteBool supplies the value.
	pendingBoolField int16
	boolPending      bool
}

// NewCompactEncoder returns an empty compact-protocol encoder.
func NewCompactEncoder() *CompactEncoder { return &CompactEncoder{} }

func (e *CompactEncoder) varint(v uint64) {
	e.buf = binary.AppendUvarint(e.buf, v)
}

// WriteStructBegin saves the field-id delta context of the enclosing struct.
func (e *CompactEncoder) WriteStructBegin() {
	e.idStack = append(e.idStack, e.lastFieldID)
	e.lastFieldID = 0
}

// WriteStructEnd restores the enclosing struct's field-id delta context.
func (e *CompactEncoder) WriteStructEnd() {
	if n := len(e.idStack); n > 0 {
		e.lastFieldID = e.idStack[n-1]
		e.idStack = e.idStack[:n-1]
	}
}

func (e *CompactEncoder) writeFieldHeader(ct byte, id int16) {
	delta := int(id) - int(e.lastFieldID)
	if delta > 0 && delta <= 15 {
		e.buf = append(e.buf, byte(delta)<<4|ct)
	} else {
		e.buf = append(e.buf, ct)
		e.varint(uint64(zigzag32(int32(id))))
	}
	e.lastFieldID = id
}

// WriteFieldBegin writes a field header. For BOOL fields the header is
// deferred: the value itself is packed into the type nibble by WriteBool.
func (e *CompactEncoder) WriteFieldBegin(t Type, id int16) {
	if t == BOOL {
		e.pendingBoolField = id
		e.boolPending = true
		return
	}
	e.writeFieldHeader(toCompactType(t), id)
}

// WriteFieldStop terminates the current struct's field list.
func (e *CompactEncoder) WriteFieldStop() { e.buf = append(e.buf, ctStop) }

// WriteBool writes a bool. As a field it is encoded entirely in the deferred
// field header; inside a container it is a single byte.
func (e *CompactEncoder) WriteBool(v bool) {
	ct := byte(ctBoolFalse)
	if v {
		ct = ctBoolTrue
	}
	if e.boolPending {
		e.writeFieldHeader(ct, e.pendingBoolField)
		e.boolPending = false
		return
	}
	e.buf = append(e.buf, ct)
}

// WriteI8 writes a raw byte.
func (e *CompactEncoder) WriteI8(v int8) { e.buf = append(e.buf, byte(v)) }

// WriteI32 writes a zigzag varint.
func (e *CompactEncoder) WriteI32(v int32) { e.varint(uint64(zigzag32(v))) }

// WriteI64 writes a zigzag varint.
func (e *CompactEncoder) WriteI64(v int64) { e.varint(zigzag64(v)) }

// WriteString writes a varint length followed by the UTF-8 bytes.
func (e *CompactEncoder) WriteString(v string) {
	e.varint(uint64(len(v)))
	e.buf = append(e.buf, v...)
}

// WriteBinary writes a varint length followed by the raw bytes.
func (e *CompactEncoder) WriteBinary(v []byte) {
	e.varint(uint64(len(v)))
	e.buf = append(e.buf, v...)
}

// WriteMapBegin writes a map header: empty maps are a single zero byte,
// otherwise a varint size followed by a packed key/value type byte.
func (e *CompactEncoder) WriteMapBegin(k, v Type, size int) {
	if size == 0 {
		e.buf = append(e.buf, 0)
		return
	}
	e.varint(uint64(size))
	e.buf = append(e.buf, toCompactType(k)<<4|toCompactType(v))
}

// WriteListBegin writes a list or set header: sizes below 15 pack into the
// type byte, larger sizes follow as a varint.
func (e *CompactEncoder) WriteListBegin(elem Type, size int) {
	if size < 15 {
		e.buf = append(e.buf, byte(size)<<4|toCompactType(elem))
		return
	}
	e.buf = append(e.buf, 0xF0|toCompactType(elem))
	e.varint(uint64(size))
}

// Bytes returns the encoded bytes accumulated so far.
func (e *CompactEncoder) Bytes() []byte { return e.buf }

// Len reports the number of encoded bytes so far.
func (e *CompactEncoder) Len() int { return len(e.buf) }

// Reset discards buffered output and all delta-encoding state.
func (e *CompactEncoder) Reset() {
	e.buf = e.buf[:0]
	e.lastFieldID = 0
	e.idStack = e.idStack[:0]
	e.boolPending = false
}

// CompactDecoder decodes messages produced by CompactEncoder.
type CompactDecoder struct {
	data        []byte
	pos         int
	lastFieldID int16
	idStack     []int16
	// pendingBool carries a bool value read from a field-header type nibble
	// to the following ReadBool call.
	pendingBool    bool
	hasPendingBool bool
}

// NewCompactDecoder returns a decoder consuming data.
func NewCompactDecoder(data []byte) *CompactDecoder { return &CompactDecoder{data: data} }

// Reset points the decoder at a new message, keeping its field-id stack's
// backing array, so one decoder walks a whole batch of messages without
// allocating. It sets the fields one by one: a composite literal builds
// the whole struct in a zeroed temporary and copies it in, through
// runtime.wbMove while the collector marks, once per message.
func (d *CompactDecoder) Reset(data []byte) {
	d.data, d.pos, d.lastFieldID = data, 0, 0
	d.idStack = d.idStack[:0]
	d.pendingBool, d.hasPendingBool = false, false
}

func (d *CompactDecoder) readByte() (byte, error) {
	if d.pos >= len(d.data) {
		return 0, ErrTruncated
	}
	b := d.data[d.pos]
	d.pos++
	return b, nil
}

// readUvarint reads a varint, a one-byte one without a further call.
func (d *CompactDecoder) readUvarint() (uint64, error) {
	if d.pos < len(d.data) && d.data[d.pos] < 0x80 {
		d.pos++
		return uint64(d.data[d.pos-1]), nil
	}
	return d.readUvarintSlow()
}

func (d *CompactDecoder) readUvarintSlow() (uint64, error) {
	v, n := binary.Uvarint(d.data[d.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad varint at offset %d", ErrTruncated, d.pos)
	}
	d.pos += n
	return v, nil
}

// ReadStructBegin saves the enclosing struct's field-id delta context.
func (d *CompactDecoder) ReadStructBegin() error {
	d.idStack = append(d.idStack, d.lastFieldID)
	d.lastFieldID = 0
	return nil
}

// ReadStructEnd restores the enclosing struct's field-id delta context.
func (d *CompactDecoder) ReadStructEnd() error {
	if n := len(d.idStack); n > 0 {
		d.lastFieldID = d.idStack[n-1]
		d.idStack = d.idStack[:n-1]
	}
	return nil
}

// ReadFieldBegin reads the next field header, resolving field-id deltas. For
// BOOL fields the value is stashed for the following ReadBool. A header
// with a short id delta and any other type is read without a further call.
func (d *CompactDecoder) ReadFieldBegin() (Type, int16, error) {
	if d.pos < len(d.data) {
		b := d.data[d.pos]
		if t := compactTypes[b&0x0F]; b > 0x0F && t != STOP && t != BOOL {
			d.pos++
			d.lastFieldID += int16(b >> 4)
			return t, d.lastFieldID, nil
		}
	}
	return d.readFieldBegin()
}

func (d *CompactDecoder) readFieldBegin() (Type, int16, error) {
	b, err := d.readByte()
	if err != nil {
		return STOP, 0, err
	}
	if b == ctStop {
		return STOP, 0, nil
	}
	ct := b & 0x0F
	delta := int16(b >> 4)
	var id int16
	if delta != 0 {
		id = d.lastFieldID + delta
	} else {
		raw, err := d.readUvarint()
		if err != nil {
			return STOP, 0, err
		}
		id = int16(unzigzag32(uint32(raw)))
	}
	d.lastFieldID = id
	t, err := fromCompactType(ct)
	if err != nil {
		return STOP, 0, err
	}
	if t == BOOL {
		d.pendingBool = ct == ctBoolTrue
		d.hasPendingBool = true
	}
	return t, id, nil
}

// ReadBool returns a bool from a pending field header or a container byte.
func (d *CompactDecoder) ReadBool() (bool, error) {
	if d.hasPendingBool {
		d.hasPendingBool = false
		return d.pendingBool, nil
	}
	b, err := d.readByte()
	if err != nil {
		return false, err
	}
	return b == ctBoolTrue, nil
}

// ReadI8 reads a raw byte.
func (d *CompactDecoder) ReadI8() (int8, error) {
	b, err := d.readByte()
	return int8(b), err
}

// ReadI16 reads a zigzag varint.
func (d *CompactDecoder) ReadI16() (int16, error) {
	v, err := d.readUvarint()
	return int16(unzigzag32(uint32(v))), err
}

// ReadI32 reads a zigzag varint.
func (d *CompactDecoder) ReadI32() (int32, error) {
	v, err := d.readUvarint()
	return unzigzag32(uint32(v)), err
}

// ReadI64 reads a zigzag varint, a one-byte one without a further call.
func (d *CompactDecoder) ReadI64() (int64, error) {
	if d.pos < len(d.data) && d.data[d.pos] < 0x80 {
		d.pos++
		return unzigzag64(uint64(d.data[d.pos-1])), nil
	}
	v, err := d.readUvarintSlow()
	return unzigzag64(v), err
}

// ReadDouble reads a little-endian IEEE-754 double.
func (d *CompactDecoder) ReadDouble() (float64, error) {
	if d.pos+8 > len(d.data) {
		return 0, ErrTruncated
	}
	v := binary.LittleEndian.Uint64(d.data[d.pos:])
	d.pos += 8
	return math.Float64frombits(v), nil
}

// ReadString reads a varint-length-prefixed UTF-8 string.
func (d *CompactDecoder) ReadString() (string, error) {
	b, err := d.ReadBinary()
	return string(b), err
}

// ReadBinary reads a varint-length-prefixed byte slice. The returned slice
// aliases the decoder's input. One shorter than 128 bytes is read without
// a further call.
func (d *CompactDecoder) ReadBinary() ([]byte, error) {
	if p := d.pos; p < len(d.data) {
		if n := int(d.data[p]); n < 0x80 && n < len(d.data)-p {
			d.pos = p + 1 + n
			return d.data[p+1 : d.pos], nil
		}
	}
	return d.readBinary()
}

func (d *CompactDecoder) readBinary() ([]byte, error) {
	n, err := d.readUvarintSlow()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(d.data)-d.pos) {
		return nil, fmt.Errorf("%w: binary of %d bytes", ErrSizeLimit, n)
	}
	v := d.data[d.pos : d.pos+int(n)]
	d.pos += int(n)
	return v, nil
}

// ReadMapBegin reads a map header.
func (d *CompactDecoder) ReadMapBegin() (Type, Type, int, error) {
	n, err := d.readUvarint()
	if err != nil {
		return STOP, STOP, 0, err
	}
	if n == 0 {
		return STOP, STOP, 0, nil
	}
	if n > uint64(len(d.data)-d.pos) {
		return STOP, STOP, 0, fmt.Errorf("%w: map of %d entries", ErrSizeLimit, n)
	}
	kv, err := d.readByte()
	if err != nil {
		return STOP, STOP, 0, err
	}
	kt, err := fromCompactType(kv >> 4)
	if err != nil {
		return STOP, STOP, 0, err
	}
	vt, err := fromCompactType(kv & 0x0F)
	if err != nil {
		return STOP, STOP, 0, err
	}
	return kt, vt, int(n), nil
}

// ReadListBegin reads a list or set header.
func (d *CompactDecoder) ReadListBegin() (Type, int, error) {
	b, err := d.readByte()
	if err != nil {
		return STOP, 0, err
	}
	et, err := fromCompactType(b & 0x0F)
	if err != nil {
		return STOP, 0, err
	}
	n := uint64(b >> 4)
	if n == 15 {
		n, err = d.readUvarint()
		if err != nil {
			return STOP, 0, err
		}
	}
	if n > uint64(len(d.data)-d.pos) {
		return STOP, 0, fmt.Errorf("%w: list of %d elements", ErrSizeLimit, n)
	}
	return et, int(n), nil
}

// Skip discards a value of type t, recursing into containers and structs.
// It is how a decoder tolerates unknown fields.
func (d *CompactDecoder) Skip(t Type) error { return d.skip(t, 0) }

func (d *CompactDecoder) skip(t Type, depth int) error {
	if depth > maxSkipDepth {
		return ErrDepthLimit
	}
	switch t {
	case BOOL:
		_, err := d.ReadBool()
		return err
	case BYTE:
		_, err := d.ReadI8()
		return err
	case DOUBLE:
		_, err := d.ReadDouble()
		return err
	case I16:
		_, err := d.ReadI16()
		return err
	case I32:
		_, err := d.ReadI32()
		return err
	case I64:
		_, err := d.ReadI64()
		return err
	case STRING:
		_, err := d.ReadBinary()
		return err
	case STRUCT:
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
			if err := d.skip(ft, depth+1); err != nil {
				return err
			}
		}
		return d.ReadStructEnd()
	case MAP:
		kt, vt, n, err := d.ReadMapBegin()
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			if err := d.skip(kt, depth+1); err != nil {
				return err
			}
			if err := d.skip(vt, depth+1); err != nil {
				return err
			}
		}
		return nil
	case SET, LIST:
		et, n, err := d.ReadListBegin() // a set header is a list header
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			if err := d.skip(et, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("%w: cannot skip %v", ErrInvalidType, t)
}

// Remaining reports undecoded bytes left in the input.
func (d *CompactDecoder) Remaining() int { return len(d.data) - d.pos }
