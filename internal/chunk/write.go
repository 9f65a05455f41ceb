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
// message — and come out as the column files below, with no ClientEvent in
// between.
//
// A sealed hour directory holds, beside its row files, one group of column
// files per chunk of events (in warehouse scan order):
//
//	_col-00000.meta        zone map: row count, min/max timestamp, min/max name
//	_col-00000.initiator   run-length pairs (initiator byte, run)
//	_col-00000.name        sorted per-chunk dictionary + uvarint IDs
//	_col-00000.user_id     zig-zag varints
//	_col-00000.session_id  sorted per-chunk dictionary + uvarint IDs
//	_col-00000.ip          sorted per-chunk dictionary + uvarint IDs
//	_col-00000.timestamp   zig-zag varint deltas from the previous row
//	_col-00000.logged_in   run-length pairs (bool byte, run)
//	_col-00000.details     sorted key dictionary + one typed sub-column per key (details.go)
//	_col-SEALED            hour-level completion marker: total chunk count
//
// Every file is framed with the repository's recordio CRC discipline, so
// a torn tail reads back as recordio.ErrTruncated and a flipped bit as
// recordio.ErrCorrupt, and every decode error names the file.
//
// The reader's contract is the ID vector. A dictionary column decodes to
// Dict — the chunk's distinct values in file order, which the encoder
// writes sorted — and IDs, one uint32 per row, every one checked to be
// below len(Dict). A consumer that works on IDs (remap chunk-local to
// day-global once per Dict entry, evaluate a predicate once per Dict entry)
// never pays a string per row; a consumer that wants strings indexes Dict.
// The entries of one Dict share a single backing allocation.
package chunk

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"

	"unilog/internal/events"
	"unilog/internal/hdfs"
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

// ColumnNames is the column order of a chunk: ColumnNames[i] is the file
// extension and schema name of column Set(1)<<i.
var ColumnNames = []string{"initiator", "name", "user_id", "session_id", "ip", "timestamp", "logged_in", "details"}

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
	metaVersion = 2        // 2: the details column is typed per key
)

// Base returns the path prefix of chunk i in dir, without extension.
func Base(dir string, i int) string {
	return fmt.Sprintf("%s/_col-%05d", dir, i)
}

// MetaPath returns the zone-map file of chunk i in dir.
func MetaPath(dir string, i int) string { return Base(dir, i) + ".meta" }

// SealedPath returns the hour-level completion marker of dir.
func SealedPath(dir string) string { return dir + "/_col-SEALED" }

// Sealed reports whether dir carries the completion marker. Chunk files
// without it — a seal that died mid-hour — do not count: the hour keeps
// scanning through its row files until a re-seal finishes the job.
func Sealed(fs *hdfs.FS, dir string) bool {
	return fs.Exists(SealedPath(dir))
}

// WriteSealed writes dir's completion marker: one CRC record naming the
// chunk count of the sealed hour.
func WriteSealed(fs *hdfs.FS, dir string, chunks int) error {
	var rec []byte
	rec = binary.AppendUvarint(rec, sealedMagic)
	rec = binary.AppendUvarint(rec, metaVersion)
	rec = binary.AppendUvarint(rec, uint64(chunks))
	if err := fs.WriteFile(SealedPath(dir), frame(rec)); err != nil {
		return fmt.Errorf("chunk: write seal marker %s: %w", SealedPath(dir), err)
	}
	return nil
}

// SealedChunks reads the completion marker's chunk count.
func SealedChunks(fs *hdfs.FS, dir string) (int, error) {
	path := SealedPath(dir)
	data, err := readFile(fs, path)
	if err != nil {
		return 0, err
	}
	rec, err := oneRecord(path, data)
	if err != nil {
		return 0, err
	}
	c := recordio.NewCursor(rec)
	if magic := c.Uvarint("magic"); c.Ok() && magic != sealedMagic {
		return 0, fmt.Errorf("chunk: %s: %w: bad magic %#x", path, recordio.ErrCorrupt, magic)
	}
	if v := c.Uvarint("version"); c.Ok() && v != metaVersion {
		return 0, fmt.Errorf("chunk: %s: %w: unsupported seal version %d", path, recordio.ErrCorrupt, v)
	}
	n := int(c.Uvarint("chunks"))
	if err := c.Err(); err != nil {
		return 0, fmt.Errorf("chunk: %s: %w", path, err)
	}
	return n, nil
}

// frame wraps column payload records in one CRC-framed file image.
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
// numbered in first-seen order, and one such number per row. Flush renumbers
// to sorted order, so the file is the one a sort-first encoder writes.
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
// reusable: after Flush it is empty and keeps its buffers. The zero value
// is ready to use; it is not safe for concurrent use.
type Builder struct {
	rows         int
	initiator    []byte // one byte per row, run-length-coded at Flush
	loggedIn     []byte // likewise
	name         dictBuilder
	sessionID    dictBuilder
	ip           dictBuilder
	userID       []byte // zig-zag varints, as the file holds them
	timestamp    []byte // zig-zag varint deltas from the previous row
	prevTs       int64
	minTs, maxTs int64
	details      detailsBuilder

	dec     thrift.CompactDecoder // AddRecord's walk over the current record
	header  events.Header         // what that walk fills
	wire    []events.Pair         // and its details, in wire order
	payload []byte                // scratch: a column's payload records
	recs    [][]byte              // scratch: the details column's records
	file    bytes.Buffer          // scratch: a file image being framed
	written int                   // bytes of the files the current Flush wrote
}

// Rows returns the number of rows added since the last Flush.
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
// key, a repeated key keeping its last value.
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

// loggedIn is the derived logged_in column's byte for one row.
func loggedIn(h *events.Header) byte {
	if h.LoggedIn() {
		return 1
	}
	return 0
}

// Flush writes the rows added so far as chunk idx of dir — column files
// first, the meta file last, so a torn seal never claims a chunk it did not
// finish — empties the builder and returns the bytes of the files it
// wrote. With no rows it writes nothing.
func (b *Builder) Flush(fs *hdfs.FS, dir string, idx int) (int, error) {
	if b.rows == 0 {
		return 0, nil
	}
	b.written = 0
	base := Base(dir, idx)
	for i, col := range ColumnNames {
		path := base + "." + col
		var err error
		switch Set(1) << i {
		case Initiator:
			err = b.writeFile(fs, path, b.runLengths(b.initiator))
		case Name:
			err = b.writeDict(fs, path, &b.name)
		case UserID:
			err = b.writeFile(fs, path, b.userID)
		case SessionID:
			err = b.writeDict(fs, path, &b.sessionID)
		case IP:
			err = b.writeDict(fs, path, &b.ip)
		case Timestamp:
			err = b.writeFile(fs, path, b.timestamp)
		case LoggedIn:
			err = b.writeFile(fs, path, b.runLengths(b.loggedIn))
		case Details:
			b.recs, b.payload = b.details.records(b.payload, b.recs)
			err = b.writeFile(fs, path, b.recs...)
		}
		if err != nil {
			return 0, err
		}
	}
	if err := b.writeFile(fs, base+".meta", b.meta()); err != nil {
		return 0, err
	}
	b.reset()
	return b.written, nil
}

// writeFile frames recs as one CRC-framed file image and writes it.
func (b *Builder) writeFile(fs *hdfs.FS, path string, recs ...[]byte) error {
	b.file.Reset()
	w := recordio.NewCRCWriter(&b.file)
	for _, rec := range recs {
		if err := w.Append(rec); err != nil {
			return fmt.Errorf("chunk: write chunk %s: %w", path, err)
		}
	}
	if err := fs.WriteFile(path, b.file.Bytes()); err != nil {
		return fmt.Errorf("chunk: write chunk %s: %w", path, err)
	}
	b.written += b.file.Len()
	return nil
}

func (b *Builder) writeDict(fs *hdfs.FS, path string, d *dictBuilder) error {
	var dict, ids []byte
	dict, ids, b.payload = d.records(b.payload)
	return b.writeFile(fs, path, dict, ids)
}

func (b *Builder) reset() {
	b.rows = 0
	b.initiator, b.loggedIn = b.initiator[:0], b.loggedIn[:0]
	b.name.reset()
	b.sessionID.reset()
	b.ip.reset()
	b.userID, b.timestamp = b.userID[:0], b.timestamp[:0]
	b.details.reset()
	b.prevTs = 0
}

// meta builds the zone-map record: the row count, the timestamp range, and
// the lexical name range of the chunk, taken over its dictionary.
func (b *Builder) meta() []byte {
	rec := binary.AppendUvarint(b.payload[:0], metaMagic)
	rec = binary.AppendUvarint(rec, metaVersion)
	rec = binary.AppendUvarint(rec, uint64(b.rows))
	rec = binary.AppendVarint(rec, b.minTs)
	rec = binary.AppendVarint(rec, b.maxTs)
	rec = appendString(rec, slices.Min(b.name.vals))
	rec = appendString(rec, slices.Max(b.name.vals))
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
