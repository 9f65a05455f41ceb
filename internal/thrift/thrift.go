// Package thrift implements the Apache Thrift compact wire protocol from
// scratch, sufficient for the "client events" log format and its schema
// evolution guarantees (unknown fields are skipped on decode).
//
// The paper serializes every log message as a Thrift struct (§3); this
// package is the substrate that plays Thrift's role. One protocol is
// provided, the compact one: zigzag varints and field-id delta encoding.
//
// Encoders append to an internal buffer and never fail; decoders consume a
// byte slice and return errors for malformed or truncated input. A type that
// implements Struct is round-tripped with EncodeCompact/DecodeCompact.
package thrift

import (
	"errors"
	"fmt"
)

// Type identifies a Thrift wire type. The values are Apache Thrift's
// protocol-independent type IDs.
type Type byte

// Wire types.
const (
	STOP   Type = 0
	BOOL   Type = 2
	BYTE   Type = 3
	DOUBLE Type = 4
	I16    Type = 6
	I32    Type = 8
	I64    Type = 10
	STRING Type = 11
	STRUCT Type = 12
	MAP    Type = 13
	SET    Type = 14
	LIST   Type = 15
)

// String returns the conventional lowercase name of the type.
func (t Type) String() string {
	switch t {
	case STOP:
		return "stop"
	case BOOL:
		return "bool"
	case BYTE:
		return "byte"
	case DOUBLE:
		return "double"
	case I16:
		return "i16"
	case I32:
		return "i32"
	case I64:
		return "i64"
	case STRING:
		return "string"
	case STRUCT:
		return "struct"
	case MAP:
		return "map"
	case SET:
		return "set"
	case LIST:
		return "list"
	}
	return fmt.Sprintf("type(%d)", byte(t))
}

// Errors shared by the decoders.
var (
	ErrTruncated   = errors.New("thrift: truncated input")
	ErrInvalidType = errors.New("thrift: invalid wire type")
	// ErrDepthLimit guards Skip against adversarial deeply-nested input.
	ErrDepthLimit = errors.New("thrift: nesting depth limit exceeded")
	// ErrSizeLimit guards container and string decoding against absurd sizes.
	ErrSizeLimit = errors.New("thrift: declared size exceeds input")
)

// maxSkipDepth bounds recursion in Skip.
const maxSkipDepth = 64

// Encoder is the write half of a protocol. Encoders buffer internally and
// cannot fail; call Bytes to obtain the encoded message.
type Encoder interface {
	WriteStructBegin()
	WriteStructEnd()
	// WriteFieldBegin starts a struct field with the given type and id.
	WriteFieldBegin(t Type, id int16)
	// WriteFieldStop terminates the field list of the current struct.
	WriteFieldStop()
	WriteBool(v bool)
	WriteI8(v int8)
	WriteI16(v int16)
	WriteI32(v int32)
	WriteI64(v int64)
	WriteDouble(v float64)
	WriteString(v string)
	WriteBinary(v []byte)
	WriteMapBegin(k, v Type, size int)
	WriteListBegin(elem Type, size int)
	WriteSetBegin(elem Type, size int)
	// Bytes returns the encoded message. The returned slice aliases the
	// encoder's internal buffer and is valid until the next Write call.
	Bytes() []byte
	// Len reports the number of encoded bytes so far.
	Len() int
	// Reset discards the buffered output so the encoder can be reused.
	Reset()
}

// Decoder is the read half of a protocol.
type Decoder interface {
	ReadStructBegin() error
	ReadStructEnd() error
	// ReadFieldBegin returns the next field's type and id. A returned type
	// of STOP signals the end of the current struct.
	ReadFieldBegin() (Type, int16, error)
	ReadBool() (bool, error)
	ReadI8() (int8, error)
	ReadI16() (int16, error)
	ReadI32() (int32, error)
	ReadI64() (int64, error)
	ReadDouble() (float64, error)
	ReadString() (string, error)
	ReadBinary() ([]byte, error)
	ReadMapBegin() (k, v Type, size int, err error)
	ReadListBegin() (elem Type, size int, err error)
	ReadSetBegin() (elem Type, size int, err error)
	// Skip consumes and discards a value of the given type, recursing into
	// containers and structs. It is how decoders tolerate unknown fields.
	Skip(t Type) error
	// Remaining reports how many undecoded bytes are left.
	Remaining() int
}

// Struct is a message that knows how to serialize itself. Encode must write
// WriteStructBegin, the fields, WriteFieldStop, and WriteStructEnd; Decode
// must mirror it and Skip unknown fields so old readers accept new messages.
type Struct interface {
	Encode(e Encoder)
	Decode(d Decoder) error
}

// EncodeCompact serializes s with the compact protocol.
func EncodeCompact(s Struct) []byte {
	e := NewCompactEncoder()
	s.Encode(e)
	out := make([]byte, e.Len())
	copy(out, e.Bytes())
	return out
}

// DecodeCompact deserializes data into s with the compact protocol.
func DecodeCompact(data []byte, s Struct) error {
	return s.Decode(NewCompactDecoder(data))
}

// skipValue implements Skip generically in terms of the Decoder interface.
func skipValue(d Decoder, t Type, depth int) error {
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
			if err := skipValue(d, ft, depth+1); err != nil {
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
			if err := skipValue(d, kt, depth+1); err != nil {
				return err
			}
			if err := skipValue(d, vt, depth+1); err != nil {
				return err
			}
		}
		return nil
	case SET, LIST:
		var et Type
		var n int
		var err error
		if t == SET {
			et, n, err = d.ReadSetBegin()
		} else {
			et, n, err = d.ReadListBegin()
		}
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			if err := skipValue(d, et, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("%w: cannot skip %v", ErrInvalidType, t)
}
