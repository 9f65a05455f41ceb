package chunk

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/maphash"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"strings"

	"unilog/internal/events"
	"unilog/internal/recordio"
)

// The details column is stored one sub-column per key. Its file's first
// record is the chunk's key dictionary, sorted; then each key, in that
// order, has one record:
//
//	tag       byte: how the values are encoded (encRaw, encDict, encHex, encUvarint)
//	count     uvarint: the rows that hold the key, at least one
//	presence  length-prefixed bitmap, bit r%8 of byte r/8 set for each row r
//	          that holds the key; empty when every row does
//	values    count values in row order:
//	            raw      length-prefixed bytes
//	            dict     a dictionary (uvarint size, sorted length-prefixed
//	                     values), then one uvarint ID per value
//	            hex      length-prefixed bytes; the value is their lowercase hex
//	            uvarint  one uvarint; the value is its decimal
//
// Each key takes the smallest encoding that admits every one of its values
// in the chunk, so a value that is not canonical hex or decimal puts its key
// back in raw and reads back exactly as it was written. The column keeps the
// meaning ClientEvent.Decode gives a message's pairs: one value per key and
// row, the last one a row repeats, and a row that holds no key reads back as
// a nil map.

// The encodings of a key's values.
const (
	encRaw byte = iota
	encDict
	encHex
	encUvarint
)

// absent marks a row that does not hold a key.
const absent = ^uint32(0)

// detailsBuilder accumulates the details column: every key the chunk has
// met, with the rows that hold it and their values.
type detailsBuilder struct {
	rows int
	slot map[string]int // a key's index in keys
	keys []keyValues

	// Scratch of records and of the dictionary dictSmaller measures.
	order   []int
	recEnds []int
	table   []uint32 // dictSmaller's hash table
	ids     []uint32 // each value's first-seen dictionary ID
	first   []int    // the value that numbered each first-seen ID
	byVal   []uint32 // first-seen IDs in sorted order of their values
	rank    []uint32 // the sorted position of each first-seen ID
}

// keyValues is one key's share of the column.
type keyValues struct {
	key  string
	rows []uint32 // the rows that hold the key, ascending
	ends []uint32 // where each of their values ends in vals
	vals []byte
}

// value returns the key's i-th value.
func (k *keyValues) value(i int) []byte {
	start := uint32(0)
	if i > 0 {
		start = k.ends[i-1]
	}
	return k.vals[start:k.ends[i]]
}

// add appends one row's pairs, in wire order: a key the row repeats keeps
// its last value.
func (d *detailsBuilder) add(pairs []events.Pair) {
	row := uint32(d.rows)
	d.rows++
	for _, p := range pairs {
		k := d.key(p.K)
		if n := len(k.rows); n > 0 && k.rows[n-1] == row {
			k.vals = k.vals[:len(k.vals)-len(k.value(n-1))]
			k.rows, k.ends = k.rows[:n-1], k.ends[:n-1]
		}
		k.vals = append(k.vals, p.V...)
		k.rows = append(k.rows, row)
		k.ends = append(k.ends, uint32(len(k.vals)))
	}
}

// key returns the accumulator of key k, starting one if the chunk has not
// met the key yet.
func (d *detailsBuilder) key(k []byte) *keyValues {
	if i, ok := d.slot[string(k)]; ok {
		return &d.keys[i]
	}
	if d.slot == nil {
		d.slot = make(map[string]int)
	}
	key := string(k)
	d.slot[key] = len(d.keys)
	d.keys = append(d.keys, keyValues{key: key})
	return &d.keys[len(d.keys)-1]
}

// reset empties the builder for the next chunk. A key the chunk held keeps
// its accumulator, so the next chunk appends to buffers already grown;
// the others are dropped.
func (d *detailsBuilder) reset() {
	d.rows = 0
	clear(d.slot)
	kept := d.keys[:0]
	for _, k := range d.keys {
		if len(k.rows) > 0 {
			d.slot[k.key] = len(kept)
			k.rows, k.ends, k.vals = k.rows[:0], k.ends[:0], k.vals[:0]
			kept = append(kept, k)
		}
	}
	clear(d.keys[len(kept):]) // release the dropped keys' buffers
	d.keys = kept
}

// records appends the column's records to buf[:0] — the sorted key
// dictionary, then one record per key in that order — and returns them in
// recs[:0], with the grown buffer.
func (d *detailsBuilder) records(buf []byte, recs [][]byte) ([][]byte, []byte) {
	d.order = d.order[:0]
	for i := range d.keys {
		if len(d.keys[i].rows) > 0 { // a key kept from the last chunk may have none
			d.order = append(d.order, i)
		}
	}
	slices.SortFunc(d.order, func(a, b int) int { return strings.Compare(d.keys[a].key, d.keys[b].key) })
	buf = binary.AppendUvarint(buf[:0], uint64(len(d.order)))
	for _, i := range d.order {
		buf = appendString(buf, d.keys[i].key)
	}
	d.recEnds = append(d.recEnds[:0], len(buf))
	for _, i := range d.order {
		buf = d.appendKey(buf, &d.keys[i])
		d.recEnds = append(d.recEnds, len(buf))
	}
	recs, start := recs[:0], 0
	for _, end := range d.recEnds {
		recs = append(recs, buf[start:end:end])
		start = end
	}
	return recs, buf
}

// appendKey appends the record of one key.
func (d *detailsBuilder) appendKey(buf []byte, k *keyValues) []byte {
	n := len(k.rows)
	tag := d.choose(k)
	buf = append(buf, tag)
	buf = binary.AppendUvarint(buf, uint64(n))
	if n == d.rows {
		buf = append(buf, 0)
	} else {
		size := (d.rows + 7) / 8
		buf = binary.AppendUvarint(buf, uint64(size))
		buf = append(buf, make([]byte, size)...)
		present := buf[len(buf)-size:]
		for _, row := range k.rows {
			present[row/8] |= 1 << (row % 8)
		}
	}
	switch tag {
	case encRaw:
		for i := range n {
			buf = appendString(buf, k.value(i))
		}
	case encHex:
		for i := range n {
			v := k.value(i)
			buf = binary.AppendUvarint(buf, uint64(len(v)/2))
			buf, _ = hex.AppendDecode(buf, v) // choose checked v
		}
	case encUvarint:
		for i := range n {
			x, _ := decimal(k.value(i))
			buf = binary.AppendUvarint(buf, x)
		}
	case encDict:
		buf = binary.AppendUvarint(buf, uint64(len(d.byVal)))
		for _, id := range d.byVal {
			buf = appendString(buf, k.value(d.first[id]))
		}
		for _, id := range d.ids {
			buf = binary.AppendUvarint(buf, uint64(d.rank[id]))
		}
	}
	return buf
}

// choose returns the tag of the smallest encoding that admits every value
// of k. A tie goes to uvarint, then hex, then raw; a dictionary has to be
// strictly smaller, and when it is, its numbering is left in d's scratch.
func (d *detailsBuilder) choose(k *keyValues) byte {
	rawSize, hexSize, uvSize := 0, 0, 0
	isHex, isUv := true, true
	for i := range k.rows {
		v := k.value(i)
		rawSize += uvlen(uint64(len(v))) + len(v)
		if !isHex && !isUv {
			continue
		}
		class := byte(classHex | classDigit)
		for _, c := range v {
			class &= byteClass[c]
		}
		if isHex = isHex && class&classHex != 0 && len(v) > 0 && len(v)%2 == 0; isHex {
			hexSize += uvlen(uint64(len(v)/2)) + len(v)/2
		}
		if isUv = isUv && class&classDigit != 0; isUv {
			var x uint64
			if x, isUv = decimal(v); isUv {
				uvSize += uvlen(x)
			}
		}
	}
	tag, best := encRaw, rawSize
	if isHex && hexSize <= best {
		tag, best = encHex, hexSize
	}
	if isUv && uvSize <= best {
		tag, best = encUvarint, uvSize
	}
	if d.dictSmaller(k, best) {
		return encDict
	}
	return tag
}

// dictSmaller numbers k's distinct values and reports whether a value
// dictionary holds them in fewer than best bytes. It stops as soon as the
// bytes it has counted — every ID and the dictionary's size at one byte
// each, and the entries seen so far — reach best, so a key of unique values
// is not numbered to the end.
func (d *detailsBuilder) dictSmaller(k *keyValues, best int) bool {
	n := len(k.rows)
	size := n + 1
	if size >= best {
		return false
	}
	// An open-addressing table of first occurrences, value index + 1, at
	// most half full, so numbering copies no value.
	slots := 1 << bits.Len(uint(2*n-1))
	d.table = slices.Grow(d.table[:0], slots)[:slots]
	clear(d.table)
	mask := uint64(slots - 1)
	d.ids, d.first = d.ids[:0], d.first[:0]
	for i := range n {
		v := k.value(i)
		slot := maphash.Bytes(hashSeed, v) & mask
		for d.table[slot] != 0 && !bytes.Equal(k.value(int(d.table[slot]-1)), v) {
			slot = (slot + 1) & mask
		}
		if d.table[slot] == 0 {
			if size += uvlen(uint64(len(v))) + len(v); size >= best {
				return false
			}
			d.table[slot] = uint32(i + 1)
			d.first = append(d.first, i)
		}
		if first := int(d.table[slot] - 1); first < i {
			d.ids = append(d.ids, d.ids[first])
		} else {
			d.ids = append(d.ids, uint32(len(d.first)-1))
		}
	}
	d.byVal = d.byVal[:0]
	for id := range d.first {
		d.byVal = append(d.byVal, uint32(id))
	}
	slices.SortFunc(d.byVal, func(a, b uint32) int {
		return bytes.Compare(k.value(d.first[a]), k.value(d.first[b]))
	})
	d.rank = slices.Grow(d.rank[:0], len(d.byVal))[:len(d.byVal)]
	for pos, id := range d.byVal {
		d.rank[id] = uint32(pos)
	}
	size += uvlen(uint64(len(d.byVal))) - 1 - n
	for _, id := range d.ids {
		size += uvlen(uint64(d.rank[id]))
	}
	return size < best
}

// hashSeed seeds dictSmaller's table; the numbering it finds does not
// depend on it.
var hashSeed = maphash.MakeSeed()

// uvlen is the length of x as a uvarint.
func uvlen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// The classes of a byte: a lowercase hex digit, a decimal digit.
const (
	classHex = 1 << iota
	classDigit
)

var byteClass = func() (t [256]byte) {
	for c := '0'; c <= '9'; c++ {
		t[c] = classHex | classDigit
	}
	for c := 'a'; c <= 'f'; c++ {
		t[c] = classHex
	}
	return t
}()

// decimal parses v as a uint64 in the form strconv.FormatUint writes: digits
// only, no leading zero but in "0" itself, no overflow.
func decimal(v []byte) (uint64, bool) {
	if len(v) == 0 || len(v) > 20 || v[0] == '0' && len(v) > 1 {
		return 0, false
	}
	var x uint64
	for i, c := range v {
		c -= '0'
		if c > 9 || i == 19 && x > (math.MaxUint64-uint64(c))/10 {
			return 0, false
		}
		x = x*10 + uint64(c)
	}
	return x, true
}

// DetailsColumn is a decoded details column: the chunk's keys and, per key,
// where each row's value lies, all checked when the column was decoded but
// none rendered — a map is built only for the rows a consumer asks for.
type DetailsColumn struct {
	keys []string
	vals []keyColumn
}

// keyColumn is one decoded key. at[row] is the row's dictionary ID under
// encDict, else where its value starts in rec, or absent.
type keyColumn struct {
	tag  byte
	rec  string
	dict []string
	at   []uint32
}

// At returns one row's details; a row with zero pairs is a nil map, whether
// its message carried an empty details field or none (the thrift decoder
// tells those apart; the column keeps only the pairs), so a row file's
// batch reads both as nil too.
func (d DetailsColumn) At(row int) map[string]string {
	n := 0
	for i := range d.vals {
		if d.vals[i].at[row] != absent {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	m := make(map[string]string, n)
	for i := range d.vals {
		if kc := &d.vals[i]; kc.at[row] != absent {
			m[d.keys[i]] = kc.value(kc.at[row])
		}
	}
	return m
}

// value renders the value at a row's at entry.
func (kc *keyColumn) value(at uint32) string {
	if kc.tag == encDict {
		return kc.dict[at]
	}
	x, off := uvarintIn(kc.rec, int(at))
	switch kc.tag {
	case encUvarint:
		return strconv.FormatUint(x, 10)
	case encHex:
		const digits = "0123456789abcdef"
		var sb strings.Builder
		sb.Grow(2 * int(x))
		for _, c := range []byte(kc.rec[off : off+int(x)]) {
			sb.WriteByte(digits[c>>4])
			sb.WriteByte(digits[c&15])
		}
		return sb.String()
	}
	return kc.rec[off : off+int(x)]
}

// uvarintIn decodes the uvarint at s[off:], which the decode has checked,
// and returns it with the offset after it.
func uvarintIn(s string, off int) (uint64, int) {
	var x uint64
	for shift := uint(0); ; shift += 7 {
		c := s[off]
		off++
		x |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return x, off
		}
	}
}

// decodeDetails checks and indexes a details column file image.
func decodeDetails(path string, data []byte, rows int) (DetailsColumn, error) {
	recs, err := records(path, data, -1)
	if err != nil {
		return DetailsColumn{}, err
	}
	return decodeDetailsRecords(path, recs, rows)
}

// decodeDetailsRecords checks the records of a details column — the key
// dictionary sorted and one record per key, every count, length, bitmap
// and ID in bounds, rows rows, nothing after them — and indexes their rows.
func decodeDetailsRecords(path string, recs [][]byte, rows int) (DetailsColumn, error) {
	if len(recs) == 0 {
		return DetailsColumn{}, fmt.Errorf("chunk: %s: %w: no key dictionary", path, recordio.ErrCorrupt)
	}
	c := recordio.NewCursor(recs[0])
	n := c.Count("details keys")
	if c.Ok() && n != len(recs)-1 {
		return DetailsColumn{}, fmt.Errorf("chunk: %s: %w: %d keys, %d key records", path, recordio.ErrCorrupt, n, len(recs)-1)
	}
	blob := string(recs[0])
	d := DetailsColumn{keys: make([]string, n), vals: make([]keyColumn, n)}
	for i := range d.keys {
		l := len(c.Bytes("details key"))
		end := len(blob) - c.Remaining()
		d.keys[i] = blob[end-l : end]
		if c.Ok() && i > 0 && d.keys[i] <= d.keys[i-1] {
			return DetailsColumn{}, fmt.Errorf("chunk: %s: %w: details keys out of order", path, recordio.ErrCorrupt)
		}
	}
	if err := c.Err(); err != nil {
		return DetailsColumn{}, fmt.Errorf("chunk: %s: %w", path, err)
	}
	if !c.Empty() {
		return DetailsColumn{}, fmt.Errorf("chunk: %s: %w: trailing bytes after the details keys", path, recordio.ErrCorrupt)
	}
	for i := range d.vals {
		if err := d.vals[i].decode(recs[i+1], rows); err != nil {
			return DetailsColumn{}, fmt.Errorf("chunk: %s: details key %q: %w", path, d.keys[i], err)
		}
	}
	return d, nil
}

// decode checks one key's record and indexes its rows.
func (kc *keyColumn) decode(rec []byte, rows int) error {
	c := recordio.NewCursor(rec)
	kc.tag = c.Byte("details tag")
	n := c.Count("details count")
	present := c.Bytes("details presence")
	if err := c.Err(); err != nil {
		return err
	}
	if kc.tag > encUvarint {
		return fmt.Errorf("%w: unknown details encoding %d", recordio.ErrCorrupt, kc.tag)
	}
	if n == 0 {
		return fmt.Errorf("%w: a details key in no row", recordio.ErrCorrupt)
	}
	if len(present) == 0 {
		if n != rows {
			return fmt.Errorf("%w: %d values for %d rows", recordio.ErrCorrupt, n, rows)
		}
	} else if len(present) != (rows+7)/8 || rows%8 != 0 && present[len(present)-1]>>(rows%8) != 0 {
		return fmt.Errorf("%w: presence bitmap of %d bytes for %d rows", recordio.ErrCorrupt, len(present), rows)
	} else if ones := popcount(present); n != ones {
		return fmt.Errorf("%w: %d values for %d rows present", recordio.ErrCorrupt, n, ones)
	}
	// n values at a byte each at least, or a bitmap of rows bits, are in
	// rec, so neither count sizes an allocation beyond the record's.
	kc.rec = string(rec)
	kc.at = make([]uint32, rows)
	if kc.tag == encDict {
		size := c.Count("details dict size")
		kc.dict = make([]string, size)
		for i := range kc.dict {
			l := len(c.Bytes("details dict entry"))
			end := len(kc.rec) - c.Remaining()
			kc.dict[i] = kc.rec[end-l : end]
		}
	}
	for row := range kc.at {
		if len(present) > 0 && present[row/8]>>(row%8)&1 == 0 {
			kc.at[row] = absent
			continue
		}
		kc.at[row] = uint32(len(rec) - c.Remaining())
		switch kc.tag {
		case encRaw, encHex:
			c.Bytes("details value")
		case encUvarint:
			c.Uvarint("details value")
		case encDict:
			id := c.Uvarint("details dict id")
			if c.Ok() && id >= uint64(len(kc.dict)) {
				return fmt.Errorf("%w: details dict id %d of %d", recordio.ErrCorrupt, id, len(kc.dict))
			}
			kc.at[row] = uint32(id)
		}
	}
	if err := c.Err(); err != nil {
		return err
	}
	if !c.Empty() {
		return fmt.Errorf("%w: %d trailing bytes after %d values", recordio.ErrCorrupt, c.Remaining(), n)
	}
	return nil
}

// popcount counts the set bits of a bitmap.
func popcount(b []byte) int {
	n := 0
	for _, c := range b {
		n += bits.OnesCount8(c)
	}
	return n
}
