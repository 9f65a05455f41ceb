package dataflow

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"unilog/internal/recordio"
)

// The spill codec serializes one tuple per CRC-framed recordio record so
// external operators can stage sorted runs on disk and read them back with
// their concrete Go types intact (an int64 column must come back int64 —
// downstream reducers type-assert). The wire form is a uvarint arity
// followed by tagged values; decoding runs on the shared recordio.Cursor,
// so bounds-check behavior is identical to the WAL and snapshot decoders.

// Spill value tags.
const (
	valNil byte = iota
	valInt64
	valInt32
	valInt
	valFloat64
	valFalse
	valTrue
	valString
	valBytes
	valMap
)

// appendTuple appends the wire form of t to buf. Values outside the
// codec's vocabulary are an error, not a panic: the caller surfaces it as
// a clean spill failure.
func appendTuple(buf []byte, t Tuple) ([]byte, error) {
	buf = binary.AppendUvarint(buf, uint64(len(t)))
	for _, v := range t {
		var err error
		buf, err = appendValue(buf, v)
		if err != nil {
			return nil, err
		}
	}
	return buf, nil
}

func appendValue(buf []byte, v Value) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		buf = append(buf, valNil)
	case int64:
		buf = append(buf, valInt64)
		buf = binary.AppendVarint(buf, x)
	case int32:
		buf = append(buf, valInt32)
		buf = binary.AppendVarint(buf, int64(x))
	case int:
		buf = append(buf, valInt)
		buf = binary.AppendVarint(buf, int64(x))
	case float64:
		buf = append(buf, valFloat64)
		buf = binary.AppendUvarint(buf, math.Float64bits(x))
	case bool:
		if x {
			buf = append(buf, valTrue)
		} else {
			buf = append(buf, valFalse)
		}
	case string:
		buf = append(buf, valString)
		buf = binary.AppendUvarint(buf, uint64(len(x)))
		buf = append(buf, x...)
	case []byte:
		buf = append(buf, valBytes)
		buf = binary.AppendUvarint(buf, uint64(len(x)))
		buf = append(buf, x...)
	case map[string]string:
		// Sorted keys keep the encoding deterministic, so identical
		// tuples spill to identical bytes.
		buf = append(buf, valMap)
		buf = binary.AppendUvarint(buf, uint64(len(x)))
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			buf = binary.AppendUvarint(buf, uint64(len(k)))
			buf = append(buf, k...)
			buf = binary.AppendUvarint(buf, uint64(len(x[k])))
			buf = append(buf, x[k]...)
		}
	default:
		return nil, fmt.Errorf("dataflow: cannot spill value of type %T", v)
	}
	return buf, nil
}

// appendRunRec appends the wire form of one sorted-run record: the
// rendered group key and insertion sequence the merge orders by, then the
// tuple. Prefixing the key means the reduce-side merge compares bytes
// without re-rendering key columns per comparison.
func appendRunRec(buf, key []byte, seq uint64, t Tuple) ([]byte, error) {
	buf = binary.AppendUvarint(buf, uint64(len(key)))
	buf = append(buf, key...)
	buf = binary.AppendUvarint(buf, seq)
	return appendTuple(buf, t)
}

// decodeTupleFrom parses a tuple from the cursor's remaining bytes, which
// it must consume exactly.
func decodeTupleFrom(c *recordio.Cursor) (Tuple, error) {
	n := c.Count("tuple arity")
	t := make(Tuple, 0, n)
	for i := 0; i < n && c.Ok(); i++ {
		v, err := decodeValue(c)
		if err != nil {
			return nil, fmt.Errorf("dataflow: spill tuple: %w", err)
		}
		t = append(t, v)
	}
	if err := c.Err(); err != nil {
		return nil, fmt.Errorf("dataflow: spill tuple: %w", err)
	}
	if !c.Empty() {
		return nil, fmt.Errorf("dataflow: spill tuple: %w: %d trailing bytes", recordio.ErrCorrupt, c.Remaining())
	}
	return t, nil
}

func decodeValue(c *recordio.Cursor) (Value, error) {
	switch tag := c.Byte("value tag"); tag {
	case valNil:
		return nil, nil
	case valInt64:
		return c.Varint("int64 value"), nil
	case valInt32:
		return int32(c.Varint("int32 value")), nil
	case valInt:
		return int(c.Varint("int value")), nil
	case valFloat64:
		return math.Float64frombits(c.Uvarint("float64 value")), nil
	case valFalse:
		return false, nil
	case valTrue:
		return true, nil
	case valString:
		return c.String("string value"), nil
	case valBytes:
		b := c.Bytes("bytes value")
		cp := make([]byte, len(b))
		copy(cp, b)
		return cp, nil
	case valMap:
		n := c.Count("map size")
		m := make(map[string]string, n)
		for i := 0; i < n && c.Ok(); i++ {
			k := c.String("map key")
			m[k] = c.String("map value")
		}
		return m, nil
	default:
		if !c.Ok() {
			return nil, nil // cursor already failed reading the tag; Err reports it
		}
		return nil, fmt.Errorf("%w: unknown spill value tag %d", recordio.ErrCorrupt, tag)
	}
}
