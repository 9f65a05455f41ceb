package chunk

import (
	"bytes"
	"cmp"
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

// The details column is stored one sub-column per key. Its section's first
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
//
// The builder holds each key's values typed, in the narrowest of three
// forms that holds them all: as numbers while every value is canonical
// decimal, as the bytes they spell while every value is canonical lowercase
// hex of even length, and as their text otherwise. Beside them it keeps
// exact running counts — the bytes the raw, hex and uvarint encodings would
// take and the values each does not admit — so choosing a key's encoding
// reads the counts and writing it reads the typed values. A value a row
// repeats is dropped from the counts as from the values. The re-chunk
// (addColumn) appends a decoded key column by its tag: a uvarint as its
// number and a hex value as its bytes, never through their text, and a
// dictionary's entries are classified once each. None of this reaches the
// disk: a key's record is the one above, whatever form its values were
// held in.

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

	// Scratch of addColumn: a value copied out of its record, and a
	// dictionary's entries, copied and classified.
	text     []byte
	dictText []byte
	entries  []value
}

// keyValues is one key's share of the column: the rows that hold it, their
// values in one form, and the counts choose reads.
type keyValues struct {
	key  string
	rows []uint32 // the rows that hold the key, ascending

	form byte     // how the values are held: encUvarint in uvs, else in vals
	uvs  []uint64 // under encUvarint, each value's number
	ends []uint32 // else where each value ends in vals
	vals []byte   // under encHex the bytes each value spells, under encRaw its text

	// Over the values held: the bytes the raw encoding takes for them, the
	// bytes the hex and uvarint encodings take for those they admit, and
	// how many values each does not admit.
	rawSize, hexSize, uvSize int
	notHex, notUv            int
}

// A value is one details value, classified, in the form its source holds
// it: its text, the bytes its hex text spells, or its decimal's number.
type value struct {
	src byte   // encRaw: b is the text; encHex: b is the bytes; encUvarint: x
	b   []byte // under encRaw or encHex
	x   uint64 // the number, when uv
	n   int    // the length of the text
	hex bool   // the text is canonical lowercase hex: even length, not empty
	uv  bool   // the text is canonical decimal, as decimal accepts it
}

// textValue classifies a value held as its text.
func textValue(v []byte) value {
	class := byte(classHex | classDigit)
	for _, c := range v {
		if class &= byteClass[c]; class == 0 {
			break
		}
	}
	t := value{src: encRaw, b: v, n: len(v), hex: class&classHex != 0 && len(v) > 0 && len(v)%2 == 0}
	if class&classDigit != 0 {
		t.x, t.uv = decimal(v)
	}
	return t
}

// uvValue classifies a value held as its decimal's number.
func uvValue(x uint64) value {
	n := decimalLen(x)
	return value{src: encUvarint, x: x, n: n, hex: n%2 == 0, uv: true}
}

// hexValue classifies a value held as the bytes its hex text spells. No
// bytes spell the empty text, which is not hex.
func hexValue(b []byte) value {
	if len(b) == 0 {
		return textValue(nil)
	}
	t := value{src: encHex, b: b, n: 2 * len(b), hex: true}
	if len(b) <= 10 { // a decimal has 20 digits at most
		var text [20]byte
		t.x, t.uv = decimal(hex.AppendEncode(text[:0], b))
	}
	return t
}

// appendText appends v's text to dst.
func (v *value) appendText(dst []byte) []byte {
	switch v.src {
	case encUvarint:
		return strconv.AppendUint(dst, v.x, 10)
	case encHex:
		return hex.AppendEncode(dst, v.b)
	}
	return append(dst, v.b...)
}

// appendBytes appends the bytes v's text spells as hex to dst; v.hex holds.
func (v *value) appendBytes(dst []byte) []byte {
	switch v.src {
	case encUvarint:
		var text [20]byte
		dst, _ = hex.AppendDecode(dst, strconv.AppendUint(text[:0], v.x, 10))
		return dst
	case encRaw:
		dst, _ = hex.AppendDecode(dst, v.b)
		return dst
	}
	return append(dst, v.b...)
}

// bytes returns the key's i-th value as vals holds it, under encHex or
// encRaw.
func (k *keyValues) bytes(i int) []byte {
	start := uint32(0)
	if i > 0 {
		start = k.ends[i-1]
	}
	return k.vals[start:k.ends[i]]
}

// at returns the key's i-th value, classified.
func (k *keyValues) at(i int) value {
	switch k.form {
	case encUvarint:
		return uvValue(k.uvs[i])
	case encHex:
		return hexValue(k.bytes(i))
	}
	return textValue(k.bytes(i))
}

// add appends one row's value, widening the form of the values held when
// it does not hold v.
func (k *keyValues) add(row uint32, v *value) {
	switch {
	case k.form == encUvarint && v.uv:
	case v.hex && (k.form == encHex || k.form == encUvarint && k.notHex == 0):
		k.widen(encHex)
	default:
		k.widen(encRaw)
	}
	k.tally(v, 1)
	k.rows = append(k.rows, row)
	k.store(v)
}

// store appends v to the values in their form, which holds it.
func (k *keyValues) store(v *value) {
	switch k.form {
	case encUvarint:
		k.uvs = append(k.uvs, v.x)
		return
	case encHex:
		k.vals = v.appendBytes(k.vals)
	default:
		k.vals = v.appendText(k.vals)
	}
	k.ends = append(k.ends, uint32(len(k.vals)))
}

// widen moves the values held to form to, no narrower than theirs, which
// holds every one of them.
func (k *keyValues) widen(to byte) {
	switch from := k.form; {
	case from == to:
	case from == encUvarint:
		uvs := k.uvs
		k.form = to
		for _, x := range uvs {
			v := uvValue(x)
			k.store(&v)
		}
		k.uvs = uvs[:0]
	default: // from hex to text in place, two digits a byte, from the end
		n := len(k.vals)
		k.vals = slices.Grow(k.vals, n)[:2*n]
		for i := n - 1; i >= 0; i-- {
			c := k.vals[i]
			k.vals[2*i], k.vals[2*i+1] = hexDigits[c>>4], hexDigits[c&15]
		}
		for i := range k.ends {
			k.ends[i] *= 2
		}
		k.form = to
	}
}

// tally adds v to the counts, sign 1, or takes it out of them, sign -1.
func (k *keyValues) tally(v *value, sign int) {
	k.rawSize += sign * (uvlen(uint64(v.n)) + v.n)
	if v.hex {
		k.hexSize += sign * (uvlen(uint64(v.n/2)) + v.n/2)
	} else {
		k.notHex += sign
	}
	if v.uv {
		k.uvSize += sign * uvlen(v.x)
	} else {
		k.notUv += sign
	}
}

// pop drops the key's last row and its value, from the counts too.
func (k *keyValues) pop() {
	last := len(k.rows) - 1
	v := k.at(last)
	k.tally(&v, -1)
	k.rows = k.rows[:last]
	if k.form == encUvarint {
		k.uvs = k.uvs[:last]
		return
	}
	k.vals = k.vals[:len(k.vals)-len(v.b)]
	k.ends = k.ends[:last]
}

// add appends one row's pairs, in wire order: a key the row repeats keeps
// its last value.
func (d *detailsBuilder) add(pairs []events.Pair) {
	row := uint32(d.rows)
	d.rows++
	for _, p := range pairs {
		k := d.key(p.K)
		if n := len(k.rows); n > 0 && k.rows[n-1] == row {
			k.pop()
		}
		v := textValue(p.V)
		k.add(row, &v)
	}
}

// addColumn appends rows [lo, hi) of a decoded details column: each key
// looked up once, each value appended by its key column's tag — a uvarint
// as its number, a hex value as its bytes, a raw one as its text, a
// dictionary entry as it was classified once for the column. A column
// appended to values held in its own form goes in as it lies.
func (d *detailsBuilder) addColumn(col DetailsColumn, lo, hi int) {
	for i := range col.vals {
		kc := &col.vals[i]
		row := lo
		for row < hi && kc.at[row] == absent {
			row++
		}
		if row == hi {
			continue
		}
		k := d.keyOf(col.keys[i])
		if kc.tag == encDict {
			d.classify(kc.dict)
		}
		for ; row < hi; row++ {
			at := kc.at[row]
			if at == absent {
				continue
			}
			to := uint32(d.rows + row - lo)
			if kc.tag == encDict {
				k.add(to, &d.entries[at])
				continue
			}
			x, off := uvarintIn(kc.rec, int(at))
			switch {
			case kc.tag == encUvarint && k.form == encUvarint:
				v := uvValue(x)
				k.tally(&v, 1)
				k.rows = append(k.rows, to)
				k.uvs = append(k.uvs, x)
			case kc.tag == k.form && (kc.tag == encRaw || x > 0): // text, or hex bytes
				k.vals = append(k.vals, kc.rec[off:off+int(x)]...)
				k.ends = append(k.ends, uint32(len(k.vals)))
				k.rows = append(k.rows, to)
				v := k.at(len(k.rows) - 1)
				k.tally(&v, 1)
			default:
				v := d.valueAt(kc.tag, x, kc.rec[off:])
				k.add(to, &v)
			}
		}
	}
	d.rows += hi - lo
}

// classify classifies a decoded dictionary's entries into d.entries.
func (d *detailsBuilder) classify(dict []string) {
	d.dictText = d.dictText[:0]
	for _, s := range dict {
		d.dictText = append(d.dictText, s...)
	}
	d.entries = d.entries[:0]
	start := 0
	for _, s := range dict {
		end := start + len(s)
		d.entries = append(d.entries, textValue(d.dictText[start:end:end]))
		start = end
	}
}

// valueAt classifies one value of a raw, hex or uvarint key column, whose
// record holds x there: the number, or the length of the bytes that begin
// rest.
func (d *detailsBuilder) valueAt(tag byte, x uint64, rest string) value {
	if tag == encUvarint {
		return uvValue(x)
	}
	d.text = append(d.text[:0], rest[:x]...)
	if tag == encHex {
		return hexValue(d.text)
	}
	return textValue(d.text)
}

// key returns the accumulator of key k, starting one if the chunk has not
// met the key yet.
func (d *detailsBuilder) key(k []byte) *keyValues {
	if i, ok := d.slot[string(k)]; ok {
		return &d.keys[i]
	}
	return d.insert(string(k))
}

// keyOf is key for a key held as a string.
func (d *detailsBuilder) keyOf(k string) *keyValues {
	if i, ok := d.slot[k]; ok {
		return &d.keys[i]
	}
	return d.insert(k)
}

// insert starts the accumulator of a key the chunk has not met.
func (d *detailsBuilder) insert(key string) *keyValues {
	if d.slot == nil {
		d.slot = make(map[string]int)
	}
	d.slot[key] = len(d.keys)
	d.keys = append(d.keys, keyValues{key: key, form: encUvarint})
	return &d.keys[len(d.keys)-1]
}

// reset empties the builder for the next chunk. A key the chunk held keeps
// its accumulator, so the next chunk appends to buffers already grown;
// the others are dropped. Resetting an empty builder keeps every key, so
// a Sealer Reset for the next hour after its Close keeps them too.
func (d *detailsBuilder) reset() {
	if d.rows == 0 {
		return
	}
	d.rows = 0
	clear(d.slot)
	kept := d.keys[:0]
	for _, k := range d.keys {
		if len(k.rows) > 0 {
			d.slot[k.key] = len(kept)
			kept = append(kept, keyValues{key: k.key, form: encUvarint,
				rows: k.rows[:0], uvs: k.uvs[:0], ends: k.ends[:0], vals: k.vals[:0]})
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
	switch {
	case tag == encDict:
		buf = binary.AppendUvarint(buf, uint64(len(d.byVal)))
		for _, id := range d.byVal {
			buf = k.appendAs(buf, encRaw, d.first[id])
		}
		for _, id := range d.ids {
			buf = binary.AppendUvarint(buf, uint64(d.rank[id]))
		}
	case tag == k.form && tag == encUvarint:
		for _, x := range k.uvs {
			buf = binary.AppendUvarint(buf, x)
		}
	case tag == k.form: // bytes or text, length-prefixed as vals holds them
		for i := range n {
			buf = appendString(buf, k.bytes(i))
		}
	default: // a value a row repeated was the one that widened the form
		for i := range n {
			buf = k.appendAs(buf, tag, i)
		}
	}
	return buf
}

// appendAs appends the key's i-th value as tag encodes it; tag admits it.
func (k *keyValues) appendAs(buf []byte, tag byte, i int) []byte {
	v := k.at(i)
	switch tag {
	case encUvarint:
		return binary.AppendUvarint(buf, v.x)
	case encHex:
		buf = binary.AppendUvarint(buf, uint64(v.n/2))
		return v.appendBytes(buf)
	}
	buf = binary.AppendUvarint(buf, uint64(v.n))
	return v.appendText(buf)
}

// choose returns the tag of the smallest encoding that admits every value
// of k, read off its counts. A tie goes to uvarint, then hex, then raw; a
// dictionary has to be strictly smaller, and when it is, its numbering is
// left in d's scratch.
func (d *detailsBuilder) choose(k *keyValues) byte {
	tag, best := encRaw, k.rawSize
	if k.notHex == 0 && k.hexSize <= best {
		tag, best = encHex, k.hexSize
	}
	if k.notUv == 0 && k.uvSize <= best {
		tag, best = encUvarint, k.uvSize
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
// is not numbered to the end. A value equal to the one before it takes
// that one's ID unhashed; others are hashed and compared as they are held,
// numbers as numbers. The dictionary is ordered by their text.
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
		if i > 0 && k.same(i-1, i) {
			d.ids = append(d.ids, d.ids[i-1])
			continue
		}
		slot := k.hash(i) & mask
		for d.table[slot] != 0 && !k.same(int(d.table[slot]-1), i) {
			slot = (slot + 1) & mask
		}
		if d.table[slot] == 0 {
			l := k.textLen(i)
			if size += uvlen(uint64(l)) + l; size >= best {
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
	slices.SortFunc(d.byVal, func(a, b uint32) int { return k.compare(d.first[a], d.first[b]) })
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

// hash hashes the key's i-th value as it is held.
func (k *keyValues) hash(i int) uint64 {
	if k.form == encUvarint {
		h := k.uvs[i] * 0x9e3779b97f4a7c15
		return h ^ h>>32
	}
	return maphash.Bytes(hashSeed, k.bytes(i))
}

// same reports whether the key's i-th and j-th values are equal.
func (k *keyValues) same(i, j int) bool {
	if k.form == encUvarint {
		return k.uvs[i] == k.uvs[j]
	}
	return bytes.Equal(k.bytes(i), k.bytes(j))
}

// textLen is the length of the key's i-th value's text.
func (k *keyValues) textLen(i int) int {
	switch k.form {
	case encUvarint:
		return decimalLen(k.uvs[i])
	case encHex:
		return 2 * len(k.bytes(i))
	}
	return len(k.bytes(i))
}

// compare orders the key's i-th and j-th values by their text: numbers as
// their decimals, where "10" < "9", and bytes as their hex, which orders
// as they do.
func (k *keyValues) compare(i, j int) int {
	if k.form != encUvarint {
		return bytes.Compare(k.bytes(i), k.bytes(j))
	}
	x, y := k.uvs[i], k.uvs[j]
	if decimalLen(x) == decimalLen(y) {
		return cmp.Compare(x, y)
	}
	var a, b [20]byte
	return bytes.Compare(strconv.AppendUint(a[:0], x, 10), strconv.AppendUint(b[:0], y, 10))
}

// hexDigits are the lowercase hex digits.
const hexDigits = "0123456789abcdef"

// hashSeed seeds dictSmaller's table; the numbering it finds does not
// depend on it.
var hashSeed = maphash.MakeSeed()

// uvlen is the length of x as a uvarint.
func uvlen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// pow10[i] is 10 to the i.
var pow10 = func() (p [20]uint64) {
	p[0] = 1
	for i := 1; i < len(p); i++ {
		p[i] = p[i-1] * 10
	}
	return p
}()

// decimalLen is the length of x's decimal. Its bit length puts it at n or
// n+1 digits, n = ⌊bits·log10 2⌋ (1233/4096 ≈ log10 2). x|1 has as many
// digits as x, zero included, and is never below pow10[0].
func decimalLen(x uint64) int {
	x |= 1
	n := bits.Len64(x) * 1233 >> 12
	if x < pow10[n] {
		return n
	}
	return n + 1
}

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
		var sb strings.Builder
		sb.Grow(2 * int(x))
		for _, c := range []byte(kc.rec[off : off+int(x)]) {
			sb.WriteByte(hexDigits[c>>4])
			sb.WriteByte(hexDigits[c&15])
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

// decodeDetails checks and indexes a details column section, splitting
// it into v.recs and indexing its keys' rows in v.details.
func decodeDetails(path string, data []byte, rows int, v *vectors) (DetailsColumn, error) {
	var err error
	if v.recs, err = records(path, data, -1, v.recs); err != nil {
		return DetailsColumn{}, err
	}
	d, err := decodeDetailsRecords(path, v.recs, rows, v.details)
	v.details = d.vals
	return d, err
}

// decodeDetailsRecords checks the records of a details column — the key
// dictionary sorted and one record per key, every count, length, bitmap
// and ID in bounds, rows rows, nothing after them — and indexes their rows,
// reusing the key columns of vals and their row indexes.
func decodeDetailsRecords(path string, recs [][]byte, rows int, vals []keyColumn) (DetailsColumn, error) {
	if len(recs) == 0 {
		return DetailsColumn{}, fmt.Errorf("chunk: %s: %w: no key dictionary", path, recordio.ErrCorrupt)
	}
	c := recordio.NewCursor(recs[0])
	n := c.Count("details keys")
	if c.Ok() && n != len(recs)-1 {
		return DetailsColumn{}, fmt.Errorf("chunk: %s: %w: %d keys, %d key records", path, recordio.ErrCorrupt, n, len(recs)-1)
	}
	blob := string(recs[0])
	d := DetailsColumn{keys: make([]string, n), vals: slices.Grow(vals[:0], n)[:n]}
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
	kc.at = slices.Grow(kc.at[:0], rows)[:rows]
	kc.dict = kc.dict[:0]
	if kc.tag == encDict {
		size := c.Count("details dict size")
		kc.dict = slices.Grow(kc.dict, size)[:size]
		for i := range kc.dict {
			l := len(c.Bytes("details dict entry"))
			end := len(kc.rec) - c.Remaining()
			kc.dict[i] = kc.rec[end-l : end]
			// The encoder writes the entries strictly increasing, as
			// decodeDict requires of a column's dictionary.
			if c.Ok() && i > 0 && kc.dict[i] <= kc.dict[i-1] {
				return fmt.Errorf("%w: details dict entries out of order at %d", recordio.ErrCorrupt, i)
			}
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
