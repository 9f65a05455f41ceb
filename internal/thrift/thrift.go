// Package thrift implements the Apache Thrift compact wire protocol from
// scratch, sufficient for the "client events" log format and its schema
// evolution guarantees (unknown fields are skipped on decode).
//
// The paper serializes every log message as a Thrift struct (§3); this
// package is the substrate that plays Thrift's role. It has one protocol,
// the compact one (zigzag varints and field-id delta encoding), and no
// protocol interface: CompactEncoder and CompactDecoder are concrete types,
// and a message's Encode and Decode take them. Every consumer of a client
// event walks it field by field, so the decoder's common reads — a field
// header with a short id delta, a string shorter than 128 bytes, a one-byte
// varint — are small enough for the compiler to inline at the call site;
// anything else falls back to the general code, which gives every error.
//
// The encoder appends to an internal buffer and never fails; the decoder
// consumes a byte slice and returns errors for malformed or truncated
// input. A type that implements Struct is round-tripped with
// EncodeCompact/DecodeCompact.
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

// Struct is a message that knows how to serialize itself. Encode must write
// WriteStructBegin, the fields, WriteFieldStop, and WriteStructEnd; Decode
// must mirror it and Skip unknown fields so old readers accept new messages.
type Struct interface {
	Encode(e *CompactEncoder)
	Decode(d *CompactDecoder) error
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
