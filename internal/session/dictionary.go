// Package session implements the paper's session sequences (§4): compact,
// pre-materialized digests of user sessions.
//
// A session sequence is a unicode string in which each code point stands for
// one client event name. The dictionary assigns smaller code points to more
// frequent events, so the UTF-8 encoding of a sequence is a form of
// variable-length coding: the most common events cost one or two bytes.
// Sessions are reconstructed from the raw client event logs by grouping on
// (user id, session id), ordering by timestamp, and splitting on 30-minute
// inactivity gaps; the materialized relation is
//
//	user_id, session_id, ip, session_sequence, duration
//
// exactly as in §4.2. Construction is the paper's two-pass daily job — pass
// one computes the event histogram (and samples for the catalog) and builds
// the dictionary, pass two reconstructs sessions and encodes them — run as
// two logical passes over one physical scan (BuildDay). The scan (dayScan)
// reads the day through internal/chunk's day reader — column batches of
// sealed chunks and of the row files of hours not yet sealed alike — and
// hands them to one sessionizer that works on interned IDs: names are
// counted by ID, events
// are kept as 16-byte {timestamp, name ID, IP ID} entries grouped by
// (user id, session-id ID), and strings reappear only at the edges — the
// histogram's keys, the dictionary, a record's session id and IP. When the
// scan ends the dictionary is built from the counts and the sessions are
// sorted, split and encoded out of the table, so the day is read once.
// Catalog samples widen a batch's read to its remaining columns only while
// its name dictionary holds a name short of its quota, and only the
// sampled rows become events. Builder is the same sessionizer behind an
// event-at-a-time interface: Add interns, then appends.
package session

import (
	"errors"
	"fmt"
	"sort"
	"unicode/utf8"

	"unilog/internal/recordio"
	"unilog/internal/thrift"
)

// Dictionary errors.
var (
	ErrUnknownEvent   = errors.New("session: event name not in dictionary")
	ErrUnknownSymbol  = errors.New("session: code point not in dictionary")
	ErrDictionaryFull = errors.New("session: alphabet exhausted")
)

// firstCodePoint is where symbol assignment starts. Control characters
// (U+0000–U+001F, U+007F) are skipped so sequences remain friendly to text
// tooling; the paper's example symbol ȵ sits in this range's
// neighbourhood.
const firstCodePoint rune = 0x20

// maxCodePoint is the last assignable unicode scalar value. "Unicode
// comprises 1.1 million available code points, and it is unlikely that the
// cardinality of our alphabet will exceed this" (§4.2).
const maxCodePoint rune = 0x10FFFF

// nextCodePoint returns the next valid symbol after r, skipping surrogates,
// the replacement character, and noncharacters.
func nextCodePoint(r rune) rune {
	r++
	for {
		switch {
		case r == 0x7F: // DEL
			r++
		case r >= 0xD800 && r <= 0xDFFF: // UTF-16 surrogates: not scalar values
			r = 0xE000
		case r == utf8.RuneError: // U+FFFD would be ambiguous with decode errors
			r++
		case r&0xFFFE == 0xFFFE: // noncharacters U+xxFFFE and U+xxFFFF
			r++
		case r >= 0xFDD0 && r <= 0xFDEF: // noncharacter block
			r = 0xFDF0
		default:
			return r
		}
	}
}

// Dictionary is the bijective mapping between event names and unicode code
// points (§4.2), with frequent events assigned smaller code points.
type Dictionary struct {
	// index maps an event name to its position in names, symbols and counts.
	index  map[string]int
	toName map[rune]string
	// names holds event names in assignment (descending frequency) order.
	names []string
	// symbols holds the assigned code points, aligned with names.
	symbols []rune
	// counts holds the histogram the dictionary was built from, aligned
	// with names.
	counts []int64
}

// Build constructs a dictionary from an event-count histogram. Names are
// assigned code points in descending count order (ties broken
// lexicographically so builds are deterministic).
func Build(histogram map[string]int64) (*Dictionary, error) {
	names := make([]string, 0, len(histogram))
	for name := range histogram {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		ci, cj := histogram[names[i]], histogram[names[j]]
		if ci != cj {
			return ci > cj
		}
		return names[i] < names[j]
	})
	d := &Dictionary{
		index:  make(map[string]int, len(names)),
		toName: make(map[rune]string, len(names)),
	}
	for _, name := range names {
		if err := d.assign(name, histogram[name]); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// assign gives name the next code point after the last one assigned.
func (d *Dictionary) assign(name string, count int64) error {
	r := firstCodePoint
	if n := len(d.symbols); n > 0 {
		r = nextCodePoint(d.symbols[n-1])
	}
	if r > maxCodePoint {
		return ErrDictionaryFull
	}
	d.index[name] = len(d.names)
	d.toName[r] = name
	d.names = append(d.names, name)
	d.symbols = append(d.symbols, r)
	d.counts = append(d.counts, count)
	return nil
}

// Len returns the alphabet size.
func (d *Dictionary) Len() int { return len(d.names) }

// Symbol returns the code point assigned to the event name.
func (d *Dictionary) Symbol(name string) (rune, bool) {
	i, ok := d.index[name]
	if !ok {
		return 0, false
	}
	return d.symbols[i], true
}

// Name returns the event name assigned to the code point.
func (d *Dictionary) Name(r rune) (string, bool) {
	n, ok := d.toName[r]
	return n, ok
}

// Names returns event names in assignment (descending frequency) order.
// The returned slice is shared; do not modify it.
func (d *Dictionary) Names() []string { return d.names }

// Count returns the histogram count the name had at build time.
func (d *Dictionary) Count(name string) int64 {
	if i, ok := d.index[name]; ok {
		return d.counts[i]
	}
	return 0
}

// Encode translates a sequence of event names into a session-sequence
// string.
func (d *Dictionary) Encode(names []string) (string, error) {
	buf := make([]rune, len(names))
	for i, n := range names {
		r, ok := d.Symbol(n)
		if !ok {
			return "", fmt.Errorf("%w: %q", ErrUnknownEvent, n)
		}
		buf[i] = r
	}
	return string(buf), nil
}

// Decode translates a session-sequence string back into event names.
func (d *Dictionary) Decode(seq string) ([]string, error) {
	out := make([]string, 0, len(seq))
	for _, r := range seq {
		n, ok := d.toName[r]
		if !ok {
			return nil, fmt.Errorf("%w: %U", ErrUnknownSymbol, r)
		}
		out = append(out, n)
	}
	return out, nil
}

// SymbolsWhere returns the code points of every event name accepted by the
// predicate. This is the dictionary-expansion step behind the paper's UDFs:
// "an arbitrary regular expression can be supplied which is automatically
// expanded to include all matching events" (§5.2).
func (d *Dictionary) SymbolsWhere(pred func(name string) bool) []rune {
	var out []rune
	for i, name := range d.names {
		if pred(name) {
			out = append(out, d.symbols[i])
		}
	}
	return out
}

// Marshal serializes the dictionary as a gzipped record stream of
// (name, count) entries in assignment order.
func (d *Dictionary) Marshal() ([]byte, error) {
	buf := &sliceBuf{}
	w := recordio.NewGzipWriter(buf)
	enc := thrift.NewCompactEncoder()
	for i, name := range d.names {
		enc.Reset()
		enc.WriteStructBegin()
		enc.WriteFieldBegin(thrift.STRING, 1)
		enc.WriteString(name)
		enc.WriteFieldBegin(thrift.I64, 2)
		enc.WriteI64(d.counts[i])
		enc.WriteFieldStop()
		enc.WriteStructEnd()
		if err := w.Append(enc.Bytes()); err != nil {
			return nil, err
		}
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.data, nil
}

// Unmarshal reconstructs a dictionary serialized by Marshal. Assignment
// order is preserved, so symbols are identical to the original's.
func Unmarshal(data []byte) (*Dictionary, error) {
	d := &Dictionary{
		index:  make(map[string]int),
		toName: make(map[rune]string),
	}
	err := recordio.ScanGzipFile(data, func(rec []byte) error {
		dec := thrift.NewCompactDecoder(rec)
		var name string
		var count int64
		if err := dec.ReadStructBegin(); err != nil {
			return err
		}
		for {
			ft, id, err := dec.ReadFieldBegin()
			if err != nil {
				return err
			}
			if ft == thrift.STOP {
				break
			}
			switch id {
			case 1:
				name, err = dec.ReadString()
			case 2:
				count, err = dec.ReadI64()
			default:
				err = dec.Skip(ft)
			}
			if err != nil {
				return err
			}
		}
		return d.assign(name, count)
	})
	if err != nil {
		return nil, err
	}
	return d, nil
}

type sliceBuf struct{ data []byte }

func (b *sliceBuf) Write(p []byte) (int, error) {
	b.data = append(b.data, p...)
	return len(p), nil
}
