package recordio

import (
	"encoding/binary"
	"fmt"
)

// Cursor decodes the varint wire idiom shared by every binary format in
// the repository — WAL records, snapshot records, and dataflow spill
// tuples: uvarints, zig-zag varints, and length-prefixed strings/bytes,
// all with bounds checks. It replaces the hand-rolled decode closures
// that used to be copied between decoders, so a bounds-check fix lands
// once.
//
// The cursor is sticky: the first malformed read marks it corrupt, every
// later read returns a zero value, and Err reports the first failing
// field. Decoders therefore read a whole region optimistically and check
// Err (or Ok) once before acting on the values.
type Cursor struct {
	buf  []byte
	bad  bool
	what string // first failing field, for the error message
}

// NewCursor returns a cursor over buf. The cursor reads buf in place and
// never mutates it; String copies, Bytes aliases.
func NewCursor(buf []byte) *Cursor { return &Cursor{buf: buf} }

// fail marks the cursor corrupt at the named field. The first failure
// wins; it also empties the remaining buffer so every later read fails
// without touching stale bytes.
func (c *Cursor) fail(what string) {
	if !c.bad {
		c.bad = true
		c.what = what
	}
	c.buf = nil
}

// Ok reports whether every read so far was in bounds.
func (c *Cursor) Ok() bool { return !c.bad }

// Err returns nil, or ErrCorrupt wrapped with the first failing field.
func (c *Cursor) Err() error {
	if !c.bad {
		return nil
	}
	return fmt.Errorf("%w: %s", ErrCorrupt, c.what)
}

// Remaining returns the number of unread bytes.
func (c *Cursor) Remaining() int { return len(c.buf) }

// Empty reports whether the cursor has been fully consumed.
func (c *Cursor) Empty() bool { return len(c.buf) == 0 }

// Uvarint reads one unsigned varint.
func (c *Cursor) Uvarint(what string) uint64 {
	v, n := binary.Uvarint(c.buf)
	if n <= 0 {
		c.fail(what)
		return 0
	}
	c.buf = c.buf[n:]
	return v
}

// Varint reads one zig-zag signed varint.
func (c *Cursor) Varint(what string) int64 {
	v, n := binary.Varint(c.buf)
	if n <= 0 {
		c.fail(what)
		return 0
	}
	c.buf = c.buf[n:]
	return v
}

// Byte reads one raw byte.
func (c *Cursor) Byte(what string) byte {
	if len(c.buf) < 1 {
		c.fail(what)
		return 0
	}
	b := c.buf[0]
	c.buf = c.buf[1:]
	return b
}

// Bytes reads a uvarint length followed by that many bytes. The returned
// slice aliases the cursor's buffer; copy it to retain it past the
// buffer's lifetime.
func (c *Cursor) Bytes(what string) []byte {
	l, n := binary.Uvarint(c.buf)
	if n <= 0 || uint64(len(c.buf)-n) < l {
		c.fail(what)
		return nil
	}
	b := c.buf[n : n+int(l)]
	c.buf = c.buf[n+int(l):]
	return b
}

// String reads a uvarint length followed by that many bytes, copied into
// a string.
func (c *Cursor) String(what string) string { return string(c.Bytes(what)) }

// Count reads a uvarint element count and bounds it by the remaining
// bytes: every element of a length-prefixed sequence costs at least one
// byte, so a count beyond the remainder is corruption — rejecting it here
// keeps a decoder's preallocation from ballooning on a lying length.
func (c *Cursor) Count(what string) int {
	v, n := binary.Uvarint(c.buf)
	if n <= 0 || v > uint64(len(c.buf)-n) {
		c.fail(what)
		return 0
	}
	c.buf = c.buf[n:]
	return int(v)
}
