// Package chunk is the column-chunk codec: the on-disk layout of a sealed
// warehouse hour, its encoder, a typed reader, and the day reader built on
// it (batch.go), which reads any warehouse hour — sealed chunks, or the row
// files of an hour not yet sealed — as batches of column vectors. It sits
// below dataflow — it knows events, hdfs, recordio and the warehouse
// layout, nothing of dataflow — so the tuple scan (dataflow.ClientEventFormat,
// which builds its tuples from these batches), the batch folds of the
// day-scale jobs (analytics.Rollups, the raw-log queries) and the
// ID-consuming daily job (session.BuildDay) all decode through the same
// checks.
//
// The encoder is Builder, and it is the only one: rows go in as wire
// records — walked to a header and details pairs that still alias the
// message — and come out as one chunk image (AppendImage), with no
// ClientEvent in between. An aggregator stages that image and the columnar
// seal stores it as it is: it is the one layout of a chunk.
//
// A sealed hour directory holds, beside any row files, one image file per
// chunk of events (_col-00000.col on, in warehouse scan order) and the
// _col-SEALED marker, which is the hour's manifest (manifest.go, version 3):
// every chunk's zone map and section table, in one CRC record. An image is
// a section table — one CRC record of the image magic, the format version,
// the section count and each section's length — and then the sections,
// back to back:
//
//	meta        zone map: row count, min/max timestamp, min/max name, column names
//	initiator   run-length pairs (initiator byte, run)
//	name        sorted per-chunk dictionary + uvarint IDs
//	user_id     zig-zag varints
//	session_id  sorted per-chunk dictionary + uvarint IDs
//	ip          sorted per-chunk dictionary + uvarint IDs
//	timestamp   zig-zag varint deltas from the previous row
//	logged_in   run-length pairs (bool byte, run)
//	details     sorted key dictionary + one typed sub-column per key (details.go)
//
// Every section is framed with the repository's recordio CRC discipline,
// so a torn tail reads back as recordio.ErrTruncated and a flipped bit as
// recordio.ErrCorrupt, and every decode error names the file and the
// section, as path#meta or path#<column>. A reader of a sealed hour plans
// from its manifest alone (ReadManifest): it prunes chunks on their zone
// maps without opening one, and reads of a kept chunk only the sections of
// the columns it needs (LoadChunk), one ranged read each, located by the
// manifest's copy of the chunk's table. A stored image keeps its own table
// and meta section all the same: it is the one layout of a chunk, the
// bytes an aggregator stages, and a staged image has no manifest, so the
// log mover reads it whole (ReadImage) and checks it against them; the
// meta section costs about 120 bytes a chunk, and no reader of a sealed
// hour reads it.
//
// The reader's contract is the ID vector. A dictionary column decodes to
// Dict — the chunk's distinct values, strictly increasing: the encoder
// writes them sorted, and the decoder checks it, failing a dictionary out
// of order with recordio.ErrCorrupt naming path#<column> — and IDs, one
// uint32 per row, every one checked to be below len(Dict). A consumer that
// works on IDs (remap chunk-local to day-global once per Dict entry,
// evaluate a predicate once per Dict entry, or over the range of entries
// a binary search finds, as the selective scan does for a name prefix)
// never pays a string per row; a consumer that wants strings indexes Dict.
// The entries of one Dict share a single backing allocation.
//
// A batch of the day reader, chunk or row file, owns its vectors until
// Batch.Release hands them back to a pool, from which a later batch decodes
// or walks into them instead of allocating its own: the ID, varint and
// run-length vectors, each details key's row index, and for a chunk the
// buffer its sections are read into. Nothing read from a batch may be used
// after its Release but strings — dictionary entries and rendered details
// are copies. A batch that is never released keeps its vectors and is
// garbage collected.
package chunk

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"unilog/internal/events"
	"unilog/internal/recordio"
	"unilog/internal/thrift"
)

// Set is a set of chunk columns.
type Set uint8

// The chunk columns, in file and dataflow.ClientEventSchema order. The
// derived logged_in flag is materialized as its own (cheap, run-length)
// column so a projected scan never decodes user_id just to re-derive it.
const (
	Initiator Set = 1 << iota
	Name
	UserID
	SessionID
	IP
	Timestamp
	LoggedIn
	Details

	All Set = 1<<iota - 1
)

// ColumnNames is the column order of a chunk: ColumnNames[i] is the section
// and schema name of column Set(1)<<i.
var ColumnNames = [...]string{"initiator", "name", "user_id", "session_id", "ip", "timestamp", "logged_in", "details"}

// ColumnOf returns the Set bit of a column name, or 0 for an unknown one.
func ColumnOf(name string) Set {
	for i, col := range ColumnNames {
		if col == name {
			return 1 << i
		}
	}
	return 0
}

const (
	metaMagic   = 0x636f6c // "col"
	sealedMagic = 0x73656c // "sel"
	imageMagic  = 0x696d67 // "img"
	metaVersion = 2        // 2: the details column is typed per key
	// 3: the marker lists every chunk's zone map and section table; 2
	// counted the chunks, and no reader of it is kept.
	manifestVersion = 3
)

// Path returns the image file of chunk i >= 0 in dir: what fmt's
// "%s/_col-%05d.col" writes, without fmt, since a scan forms one per chunk.
func Path(dir string, i int) string {
	var buf [20]byte
	n := strconv.AppendUint(buf[:0], uint64(i), 10)
	return dir + "/_col-" + "0000"[:max(0, 5-len(n))] + string(n) + ".col"
}

// SealedPath returns the hour-level completion marker of dir, which is the
// hour's manifest (manifest.go).
func SealedPath(dir string) string { return dir + "/_col-SEALED" }

// frame wraps payload records in CRC frames.
func frame(recs ...[]byte) []byte {
	var buf bytes.Buffer
	w := recordio.NewCRCWriter(&buf)
	for _, rec := range recs {
		w.Append(rec)
	}
	return buf.Bytes()
}

// zeroName is what a message without the name field seals as: the zero
// EventName rendered, which is what decoding and re-rendering it gave.
const zeroName = ":::::"

// dictBuilder accumulates one dictionary column: every distinct value once,
// numbered in first-seen order, and one such number per row. records
// renumbers to sorted order, so the section is the one a sort-first encoder
// writes.
type dictBuilder struct {
	ids  map[string]uint32
	vals []string // first-seen order; vals[ids[v]] == v
	rows []uint32 // first-seen id of each row

	order []uint32 // scratch: first-seen ids in sorted order of their values
	rank  []uint32 // scratch: sorted position of each first-seen id
}

// lookup returns v's first-seen id, if it has one. The conversion in the
// index expression does not allocate.
func (d *dictBuilder) lookup(v []byte) (uint32, bool) {
	id, ok := d.ids[string(v)]
	return id, ok
}

// insert numbers a value lookup did not find, a string already copied out
// of the message.
func (d *dictBuilder) insert(s string) uint32 {
	if d.ids == nil {
		d.ids = make(map[string]uint32)
	}
	id := uint32(len(d.vals))
	d.ids[s] = id
	d.vals = append(d.vals, s)
	return id
}

// add appends one row, probing the map once.
func (d *dictBuilder) add(v []byte) {
	d.rows = append(d.rows, d.id(v))
}

// id returns v's first-seen id, numbering it if it is new.
func (d *dictBuilder) id(v []byte) uint32 {
	id, seen := d.lookup(v)
	if !seen {
		id = d.insert(string(v))
	}
	return id
}

// nameID returns the id of a message's name field, numbering it if it is
// new. A message without the field is the zero name; a name the dictionary
// has not seen yet must pass events.ParseName — the acceptance a full decode
// of every row applies, paid once per distinct value, on the one copy the
// dictionary keeps — and one that fails is not numbered.
func (d *dictBuilder) nameID(wire []byte) (uint32, error) {
	if wire == nil {
		return d.id([]byte(zeroName)), nil
	}
	// zeroName in the dictionary came from a message without the field; on
	// the wire it is a name with no client, and fails.
	if id, seen := d.lookup(wire); seen && string(wire) != zeroName {
		return id, nil
	}
	name := string(wire)
	if _, err := events.ParseName(name); err != nil {
		return 0, err
	}
	return d.insert(name), nil
}

// addColumn appends rows [lo, hi) of a decoded dictionary column, numbering
// each entry those rows use on its first use; remap is scratch, returned
// grown. The entries kept are col's own strings, which outlive its batch.
func (d *dictBuilder) addColumn(col DictColumn, lo, hi int, remap []uint32) []uint32 {
	remap = slices.Grow(remap[:0], len(col.Dict))[:len(col.Dict)]
	for i := range remap {
		remap[i] = absent
	}
	for _, id := range col.IDs[lo:hi] {
		to := remap[id]
		if to == absent {
			var seen bool
			if to, seen = d.ids[col.Dict[id]]; !seen {
				to = d.insert(col.Dict[id])
			}
			remap[id] = to
		}
		d.rows = append(d.rows, to)
	}
	return remap
}

// records appends the column's two records to buf[:0] — the dictionary in
// sorted order, then one uvarint ID per row, renumbered to that order — and
// returns them with the grown buffer.
func (d *dictBuilder) records(buf []byte) (dict, ids, grown []byte) {
	d.order = d.order[:0]
	for id := range d.vals {
		d.order = append(d.order, uint32(id))
	}
	slices.SortFunc(d.order, func(a, b uint32) int { return strings.Compare(d.vals[a], d.vals[b]) })
	d.rank = slices.Grow(d.rank[:0], len(d.order))[:len(d.order)]
	buf = binary.AppendUvarint(buf[:0], uint64(len(d.order)))
	for pos, id := range d.order {
		d.rank[id] = uint32(pos)
		buf = appendString(buf, d.vals[id])
	}
	n := len(buf)
	for _, id := range d.rows {
		buf = binary.AppendUvarint(buf, uint64(d.rank[id]))
	}
	return buf[:n:n], buf[n:], buf
}

func (d *dictBuilder) reset() {
	clear(d.ids)
	d.vals = d.vals[:0]
	d.rows = d.rows[:0]
}

// Builder is the chunk encoder: rows go in as they lie on the wire — a
// decoded header and the details pairs, all slices of the message — and
// are appended straight to the column accumulators, so sealing an hour
// builds no ClientEvent, renders no name and sorts no map. A Builder is
// reusable: after AppendImage it is empty and keeps its buffers.
// The zero value is ready to use; it is not safe for concurrent use.
type Builder struct {
	rows         int
	initiator    []byte // one byte per row, run-length-coded in the image
	loggedIn     []byte // likewise
	name         dictBuilder
	sessionID    dictBuilder
	ip           dictBuilder
	userID       []byte // zig-zag varints, as the section holds them
	timestamp    []byte // zig-zag varint deltas from the previous row
	prevTs       int64
	minTs, maxTs int64
	details      detailsBuilder

	dec     thrift.CompactDecoder // AddRecord's walk over the current record
	header  events.Header         // what that walk fills
	wire    []events.Pair         // and its details, in wire order
	payload []byte                // scratch: a column's payload records
	recs    [][]byte              // scratch: the details column's records
	image   bytes.Buffer          // scratch: the framed sections of an image
	ends    []int                 // and where each of them ends
	remap   []uint32              // scratch: AddColumns' dictionary remap
}

// Rows returns the number of rows added since the builder was last emptied.
func (b *Builder) Rows() int { return b.rows }

// AddRecord appends the row one compact-protocol client event holds: a
// header walk over rec (events.Header.DecodePairs), then Add. rec is not
// kept. A record the walk cannot read fails with its thrift error and, like
// a name that fails validation, leaves the builder as it was.
func (b *Builder) AddRecord(rec []byte) error {
	b.dec.Reset(rec)
	var err error
	if b.wire, err = b.header.DecodePairs(&b.dec, b.wire); err != nil {
		return err
	}
	return b.Add(&b.header, b.wire)
}

// Add appends one row. h and pairs are read, never kept: everything the
// chunk needs is copied out before Add returns, so both may alias a buffer
// the caller is about to reuse. A message without a name seals as the zero
// name; a name the chunk has not seen yet must pass events.ParseName — the
// acceptance a full decode of every row applies, paid once per distinct
// value — and a row that fails it is not added: the builder is as it was.
// Details keep the meaning ClientEvent.Decode gives them: one value per
// key, a repeated key keeping its last value. Each details value is
// classified once, here — decimal, hex or text — and held in that form.
func (b *Builder) Add(h *events.Header, pairs []events.Pair) error {
	nameID, err := b.name.nameID(h.Name)
	if err != nil {
		return err
	}
	b.name.rows = append(b.name.rows, nameID)
	b.sessionID.add(h.SessionID)
	b.ip.add(h.IP)

	b.initiator = append(b.initiator, byte(h.Initiator))
	b.loggedIn = append(b.loggedIn, loggedIn(h))
	b.userID = binary.AppendVarint(b.userID, h.UserID)
	b.timestamp = binary.AppendVarint(b.timestamp, h.Timestamp-b.prevTs)
	b.prevTs = h.Timestamp
	if b.rows == 0 {
		b.minTs, b.maxTs = h.Timestamp, h.Timestamp
	} else {
		b.minTs, b.maxTs = min(b.minTs, h.Timestamp), max(b.maxTs, h.Timestamp)
	}
	b.details.add(pairs)
	b.rows++
	return nil
}

// AddColumns appends rows [lo, hi) of cc — a chunk loaded whole, or a
// staged image read back (ReadImage) — as AddRecord appends the records
// they were sealed from, so a chunk cut from them is the bytes a one-pass
// seal of those records writes. It walks no record: each dictionary entry
// the rows use is numbered once, not once per row, and each details key
// column is merged by its tag into the builder's typed store (details.go)
// without rendering a value to text — a uvarint as its number, a hex value
// as its bytes, a details dictionary entry classified once and appended
// by ID. The derived logged_in is derived again.
// A name the builder has not seen must pass events.ParseName, as in Add;
// if one of cc's names fails, nothing is added and the error comes back.
func (b *Builder) AddColumns(cc *Columns, lo, hi int) error {
	if cc.have != All {
		return fmt.Errorf("chunk: AddColumns needs every column, have %#x", cc.have)
	}
	for _, s := range cc.Name.Dict {
		if _, seen := b.name.ids[s]; !seen && s != zeroName {
			if _, err := events.ParseName(s); err != nil {
				return err
			}
		}
	}
	b.remap = b.name.addColumn(cc.Name, lo, hi, b.remap)
	b.remap = b.sessionID.addColumn(cc.SessionID, lo, hi, b.remap)
	b.remap = b.ip.addColumn(cc.IP, lo, hi, b.remap)
	b.initiator = append(b.initiator, cc.Initiator[lo:hi]...)
	for row := lo; row < hi; row++ {
		uid, ts := cc.UserID[row], cc.Timestamp[row]
		b.loggedIn = append(b.loggedIn, loggedIn(&events.Header{UserID: uid}))
		b.userID = binary.AppendVarint(b.userID, uid)
		b.timestamp = binary.AppendVarint(b.timestamp, ts-b.prevTs)
		b.prevTs = ts
		if b.rows == 0 && row == lo {
			b.minTs, b.maxTs = ts, ts
		} else {
			b.minTs, b.maxTs = min(b.minTs, ts), max(b.maxTs, ts)
		}
	}
	b.details.addColumn(cc.Details, lo, hi)
	b.rows += hi - lo
	return nil
}

// loggedIn is the derived logged_in column's byte for one row.
func loggedIn(h *events.Header) byte {
	if h.LoggedIn() {
		return 1
	}
	return 0
}

// AppendImage appends the rows added so far to dst as one chunk image,
// empties the builder and returns the grown dst and the image's zone map,
// which locates its sections: the entry a seal lists in its hour's
// manifest (WriteSealed). The image is a CRC-framed section table — the
// image magic, the format version, the section count and each section's
// length — and then the sections, the meta first and the columns in
// ColumnNames order. ReadImage reads it back from memory, LoadChunk from a
// file (Path) under that zone map. With no rows it appends nothing.
func (b *Builder) AppendImage(dst []byte) ([]byte, Meta, error) {
	if b.rows == 0 {
		return dst, Meta{}, nil
	}
	m := Meta{Rows: b.rows, MinTs: b.minTs, MaxTs: b.maxTs, MinName: slices.Min(b.name.vals), MaxName: slices.Max(b.name.vals)}
	if err := b.sections(&m); err != nil {
		return dst, Meta{}, err
	}
	table := binary.AppendUvarint(b.payload[:0], imageMagic)
	table = binary.AppendUvarint(table, metaVersion)
	table = binary.AppendUvarint(table, uint64(len(b.ends)))
	start := 0
	for _, end := range b.ends {
		table = binary.AppendUvarint(table, uint64(end-start))
		start = end
	}
	b.payload = table
	framed := frame(table)
	m.at[0] = len(framed)
	for s, end := range b.ends {
		m.at[1+s] = len(framed) + end
	}
	dst = slices.Grow(dst, len(framed)+b.image.Len())
	dst = append(dst, framed...)
	dst = append(dst, b.image.Bytes()...)
	b.Reset()
	return dst, m, nil
}

// sections frames the rows added so far as the image's sections into
// b.image, the meta — zone map m — first and the columns in ColumnNames
// order, and records where each ends in b.ends.
func (b *Builder) sections(m *Meta) error {
	b.image.Reset()
	b.ends = b.ends[:0]
	if err := b.frameSection("meta", b.meta(m)); err != nil {
		return err
	}
	for i, col := range ColumnNames {
		var recs [][]byte
		switch Set(1) << i {
		case Initiator:
			recs = [][]byte{b.runLengths(b.initiator)}
		case Name:
			recs = b.dictRecords(&b.name)
		case UserID:
			recs = [][]byte{b.userID}
		case SessionID:
			recs = b.dictRecords(&b.sessionID)
		case IP:
			recs = b.dictRecords(&b.ip)
		case Timestamp:
			recs = [][]byte{b.timestamp}
		case LoggedIn:
			recs = [][]byte{b.runLengths(b.loggedIn)}
		case Details:
			b.recs, b.payload = b.details.records(b.payload, b.recs)
			recs = b.recs
		}
		if err := b.frameSection(col, recs...); err != nil {
			return err
		}
	}
	return nil
}

// frameSection appends recs to b.image in CRC frames, as section name.
func (b *Builder) frameSection(name string, recs ...[]byte) error {
	w := recordio.NewCRCWriter(&b.image)
	for _, rec := range recs {
		if err := w.Append(rec); err != nil {
			return fmt.Errorf("chunk: encode the %s section: %w", name, err)
		}
	}
	b.ends = append(b.ends, b.image.Len())
	return nil
}

// dictRecords returns a dictionary column's two records.
func (b *Builder) dictRecords(d *dictBuilder) [][]byte {
	var dict, ids []byte
	dict, ids, b.payload = d.records(b.payload)
	b.recs = append(b.recs[:0], dict, ids)
	return b.recs
}

// Reset empties the builder, as AppendImage leaves it, keeping the buffers
// its columns have grown.
func (b *Builder) Reset() {
	b.rows = 0
	b.initiator, b.loggedIn = b.initiator[:0], b.loggedIn[:0]
	b.name.reset()
	b.sessionID.reset()
	b.ip.reset()
	b.userID, b.timestamp = b.userID[:0], b.timestamp[:0]
	b.details.reset()
	b.prevTs = 0
}

// meta builds the meta section's record of zone map m: the row count, the
// timestamp range, and the lexical name range of the chunk, taken over its
// dictionary.
func (b *Builder) meta(m *Meta) []byte {
	rec := binary.AppendUvarint(b.payload[:0], metaMagic)
	rec = binary.AppendUvarint(rec, metaVersion)
	rec = binary.AppendUvarint(rec, uint64(m.Rows))
	rec = binary.AppendVarint(rec, m.MinTs)
	rec = binary.AppendVarint(rec, m.MaxTs)
	rec = appendString(rec, m.MinName)
	rec = appendString(rec, m.MaxName)
	rec = binary.AppendUvarint(rec, uint64(len(ColumnNames)))
	for _, col := range ColumnNames {
		rec = appendString(rec, col)
	}
	b.payload = rec
	return rec
}

// runLengths encodes one byte-valued column — the initiator and the derived
// logged_in flag, a handful of distinct values with long runs — as (value,
// run-length) pairs.
func (b *Builder) runLengths(vals []byte) []byte {
	rec := b.payload[:0]
	for i := 0; i < len(vals); {
		j := i + 1
		for j < len(vals) && vals[j] == vals[i] {
			j++
		}
		rec = append(rec, vals[i])
		rec = binary.AppendUvarint(rec, uint64(j-i))
		i = j
	}
	b.payload = rec
	return rec
}

// appendString appends a uvarint length-prefixed string.
func appendString[S string | []byte](b []byte, s S) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}
