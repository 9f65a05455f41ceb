package chunk

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"sync"

	"unilog/internal/events"
	"unilog/internal/hdfs"
	"unilog/internal/recordio"
)

// Meta is a decoded zone map: everything pruning needs. A sealed hour's
// manifest holds one per chunk, with the chunk's section table, so a chunk
// pruned on it costs nothing past the manifest; the image's own meta
// section holds the same zone map for a reader of the image alone
// (ReadImage).
type Meta struct {
	Rows             int
	MinTs, MaxTs     int64
	MinName, MaxName string

	at table // where the chunk's sections lie in its image
}

// Size returns the length of the chunk's image, as its section table
// gives it.
func (m *Meta) Size() int64 { return int64(m.at[len(m.at)-1]) }

// table locates the sections of a chunk image: section s spans
// [t[s], t[s+1]), section 0 is the meta and section 1+i column i, and the
// last entry is the image's length.
type table [2 + len(ColumnNames)]int

// maxTable bounds the framed section table of any image a reader accepts:
// a frame length and 12 uvarints of at most 10 bytes each, and a 4-byte
// CRC. ReadImage takes the table from the first maxTable bytes.
const maxTable = (5+len(ColumnNames))*binary.MaxVarintLen64 + 4

// imageSections reads the section table of a chunk image of size bytes from
// head, a prefix of the image holding at least its first maxTable bytes.
// The sections must tile the rest of the image exactly.
func imageSections(path string, head []byte, size int) (table, error) {
	var t table
	rec, rest, err := recordio.NextCRCRecord(head)
	if err == io.EOF {
		err = fmt.Errorf("%w: empty image", recordio.ErrTruncated)
	}
	if err != nil {
		return t, fmt.Errorf("chunk: %s: %w", path, err)
	}
	c := recordio.NewCursor(rec)
	if magic := c.Uvarint("magic"); c.Ok() && magic != imageMagic {
		return t, fmt.Errorf("chunk: %s: %w: bad image magic %#x", path, recordio.ErrCorrupt, magic)
	}
	if v := c.Uvarint("version"); c.Ok() && v != metaVersion {
		return t, fmt.Errorf("chunk: %s: %w: unsupported image version %d", path, recordio.ErrCorrupt, v)
	}
	if n := c.Uvarint("sections"); c.Ok() && n != uint64(len(t)-1) {
		return t, fmt.Errorf("chunk: %s: %w: %d sections", path, recordio.ErrCorrupt, n)
	}
	t[0] = len(head) - len(rest)
	for s := 1; s < len(t) && c.Ok(); s++ {
		n := c.Uvarint("section length") // 0 once the cursor fails
		if left := size - t[s-1]; n > uint64(left) {
			return t, fmt.Errorf("chunk: %s: %w: a section of %d bytes, %d left", path, recordio.ErrTruncated, n, left)
		}
		t[s] = t[s-1] + int(n)
	}
	if err := c.Err(); err != nil {
		return t, fmt.Errorf("chunk: %s: %w", path, err)
	}
	if end := t[len(t)-1]; !c.Empty() || end != size {
		return t, fmt.Errorf("chunk: %s: %w: %d bytes after the sections", path, recordio.ErrCorrupt, size-end+c.Remaining())
	}
	return t, nil
}

// records splits a file image into exactly want CRC records, in place, or
// into as many as it holds when want is negative, appending them to
// recs[:0]. Terminal framing errors (ErrTruncated, ErrCorrupt) propagate
// with the path attached.
func records(path string, data []byte, want int, recs [][]byte) ([][]byte, error) {
	recs = recs[:0]
	for {
		rec, rest, err := recordio.NextCRCRecord(data)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("chunk: %s: %w", path, err)
		}
		recs = append(recs, rec)
		data = rest
	}
	if want >= 0 && len(recs) != want {
		return nil, fmt.Errorf("chunk: %s: %w: want %d records, have %d", path, recordio.ErrCorrupt, want, len(recs))
	}
	return recs, nil
}

// oneRecord parses a file image expected to hold exactly one CRC record.
func oneRecord(path string, data []byte) ([]byte, error) {
	var one [1][]byte
	recs, err := records(path, data, 1, one[:0])
	if err != nil {
		return nil, err
	}
	return recs[0], nil
}

// trailing is the error of a column record that holds more than rows rows,
// left bytes past the last.
func trailing(path string, left, rows int) error {
	return fmt.Errorf("chunk: %s: %w: %d trailing bytes after %d rows", path, recordio.ErrCorrupt, left, rows)
}

// short is the error of a column record that cannot hold its chunk's rows:
// every encoding but run-length spends at least a byte per row, so the
// check also keeps a lying row count from sizing an allocation.
func short(path string) error {
	return fmt.Errorf("chunk: %s: %w: short column", path, recordio.ErrCorrupt)
}

// source fills p from offset off of a chunk image.
type source func(p []byte, off int) error

// fileSource reads the chunk image in the file at path; a file shorter
// than a read is a truncated image.
func fileSource(fs *hdfs.FS, path string) source {
	return func(p []byte, off int) error {
		_, err := fs.ReadAt(path, int64(off), p)
		if err == io.EOF {
			err = fmt.Errorf("%w: the image ends before byte %d", recordio.ErrTruncated, off+len(p))
		}
		if err != nil {
			return fmt.Errorf("chunk: %s: %w", path, err)
		}
		return nil
	}
}

// readMeta decodes the zone map and section table of a chunk image of size
// bytes: it reads the first maxTable bytes for the section table, then
// whatever of the meta section they did not hold, from where the first
// read ended.
func readMeta(path string, size int, src source) (Meta, error) {
	buf := make([]byte, min(size, maxTable))
	if err := src(buf, 0); err != nil {
		return Meta{}, err
	}
	t, err := imageSections(path, buf, size)
	if err != nil {
		return Meta{}, err
	}
	if n := len(buf); t[1] > n {
		buf = slices.Grow(buf, t[1]-n)[:t[1]]
		if err := src(buf[n:], n); err != nil {
			return Meta{}, err
		}
	}
	m, err := decodeMeta(path+"#meta", buf[t[0]:t[1]])
	m.at = t
	return m, err
}

// decodeMeta decodes a meta section. The chunk must list every column.
func decodeMeta(path string, data []byte) (Meta, error) {
	rec, err := oneRecord(path, data)
	if err != nil {
		return Meta{}, err
	}
	c := recordio.NewCursor(rec)
	if magic := c.Uvarint("magic"); c.Ok() && magic != metaMagic {
		return Meta{}, fmt.Errorf("chunk: %s: %w: bad magic %#x", path, recordio.ErrCorrupt, magic)
	}
	if v := c.Uvarint("version"); c.Ok() && v != metaVersion {
		return Meta{}, fmt.Errorf("chunk: %s: %w: unsupported chunk version %d", path, recordio.ErrCorrupt, v)
	}
	var m Meta
	rows := c.Uvarint("rows")
	if rows > recordio.MaxRecordSize {
		// Every varint column spends at least a byte per row inside one
		// record, so no readable chunk is longer than a record may be.
		return Meta{}, fmt.Errorf("chunk: %s: %w: row count %d", path, recordio.ErrCorrupt, rows)
	}
	m.Rows = int(rows)
	m.MinTs = c.Varint("min_ts")
	m.MaxTs = c.Varint("max_ts")
	m.MinName = c.String("min_name")
	m.MaxName = c.String("max_name")
	var cols Set
	n := c.Count("columns")
	for i := 0; i < n; i++ {
		cols |= ColumnOf(string(c.Bytes("column"))) // a column this reader does not know is one it never loads
	}
	if err := c.Err(); err != nil {
		return Meta{}, fmt.Errorf("chunk: %s: %w", path, err)
	}
	if cols != All {
		return Meta{}, fmt.Errorf("chunk: %s: %w: columns %#x, want all", path, recordio.ErrCorrupt, cols)
	}
	return m, nil
}

// DictColumn is a decoded dictionary column: the chunk's distinct values
// and one validated index into them per row.
type DictColumn struct {
	Dict []string
	IDs  []uint32
}

// At returns the value of one row.
func (d DictColumn) At(row int) string { return d.Dict[d.IDs[row]] }

// Interner numbers strings in first-seen order: a table that the dictionary
// IDs of many batches, or strings met one by one, map into, so a fold past
// the scan edge compares and stores integers. The zero value is empty and
// ready to use.
type Interner struct {
	ids map[string]uint32
	// Strs is the table: Strs[id] is the string numbered id.
	Strs []string
}

// ID returns the number of s, assigning the next one on first sight.
func (t *Interner) ID(s string) uint32 {
	if id, ok := t.ids[s]; ok {
		return id
	}
	if t.ids == nil {
		t.ids = make(map[string]uint32)
	}
	id := uint32(len(t.Strs))
	t.ids[s] = id
	t.Strs = append(t.Strs, s)
	return id
}

// Remap numbers every entry of a batch dictionary, returning batch ID ->
// table ID in buf.
func (t *Interner) Remap(dict []string, buf []uint32) []uint32 {
	buf = buf[:0]
	for _, s := range dict {
		buf = append(buf, t.ID(s))
	}
	return buf
}

// decodeDict decodes a dictionary column section, its IDs into ids[:0]. Its
// entries must be strictly increasing.
func decodeDict(path string, data []byte, rows int, ids []uint32) (DictColumn, error) {
	var two [2][]byte
	recs, err := records(path, data, 2, two[:0])
	if err != nil {
		return DictColumn{}, err
	}
	dc := recordio.NewCursor(recs[0])
	n := dc.Count("dict size")
	// One string backs every entry: a chunk with thousands of distinct
	// session ids costs one allocation, not one per id.
	blob := string(recs[0])
	dict := make([]string, n)
	for i := range dict {
		l := len(dc.Bytes("dict entry"))
		end := len(blob) - dc.Remaining()
		dict[i] = blob[end-l : end]
	}
	if err := dc.Err(); err != nil {
		return DictColumn{}, fmt.Errorf("chunk: %s: %w", path, err)
	}
	// The encoder writes the entries strictly increasing, and a reader may
	// search them (dataflow's name-range match): an image that breaks the
	// order is damaged.
	for i := 1; i < len(dict); i++ {
		if dict[i-1] >= dict[i] {
			return DictColumn{}, fmt.Errorf("chunk: %s: %w: dict entries out of order at %d", path, recordio.ErrCorrupt, i)
		}
	}
	if rows > len(recs[1]) {
		return DictColumn{}, short(path)
	}
	// The IDs are read in place, a one-byte one — any ID of a dictionary
	// under 128 entries — without a call.
	rec, p := recs[1], 0
	ids = slices.Grow(ids[:0], rows)[:rows]
	for i := range ids {
		id, n := uint64(0), 0
		if p < len(rec) && rec[p] < 0x80 {
			id, n = uint64(rec[p]), 1
		} else {
			id, n = binary.Uvarint(rec[p:])
		}
		if n <= 0 || id >= uint64(len(dict)) {
			return DictColumn{}, fmt.Errorf("chunk: %s: %w: dict id out of range", path, recordio.ErrCorrupt)
		}
		ids[i] = uint32(id)
		p += n
	}
	if p < len(rec) {
		return DictColumn{}, trailing(path, len(rec)-p, rows)
	}
	return DictColumn{Dict: dict, IDs: ids}, nil
}

// decodeVarints decodes a zig-zag varint column section into one int64
// per row in out[:0]; delta == true accumulates row-over-row deltas (the
// timestamp column).
func decodeVarints(path string, data []byte, rows int, delta bool, out []int64) ([]int64, error) {
	rec, err := oneRecord(path, data)
	if err != nil {
		return nil, err
	}
	if rows > len(rec) {
		return nil, short(path)
	}
	// The values are read in place. One of up to three bytes — a user ID
	// below 2^20, a timestamp delta of up to ~17 minutes — is read without a
	// call wherever the record holds three more bytes (a one-byte one
	// anywhere); a longer one, or one in the record's last two bytes, goes
	// through binary.Varint.
	out = slices.Grow(out[:0], rows)[:rows]
	prev, p := int64(0), 0
	for i := range out {
		var v int64
		switch r := rec[p:]; {
		case len(r) > 0 && r[0] < 0x80:
			v, p = unzigzag(uint64(r[0])), p+1
		case len(r) >= 3 && r[1] < 0x80:
			v, p = unzigzag(uint64(r[0]&0x7f)|uint64(r[1])<<7), p+2
		case len(r) >= 3 && r[2] < 0x80:
			v, p = unzigzag(uint64(r[0]&0x7f)|uint64(r[1]&0x7f)<<7|uint64(r[2])<<14), p+3
		default:
			var n int
			if v, n = binary.Varint(r); n <= 0 {
				return nil, fmt.Errorf("chunk: %s: %w: varint value", path, recordio.ErrCorrupt)
			}
			p += n
		}
		if delta {
			v += prev
			prev = v
		}
		out[i] = v
	}
	if p < len(rec) {
		return nil, trailing(path, len(rec)-p, rows)
	}
	return out, nil
}

// unzigzag decodes a zig-zag encoded value, as binary.Varint does.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// decodeRLE decodes a run-length byte column section into one byte per
// row in out[:0].
func decodeRLE(path string, data []byte, rows int, out []byte) ([]byte, error) {
	rec, err := oneRecord(path, data)
	if err != nil {
		return nil, err
	}
	c := recordio.NewCursor(rec)
	out = slices.Grow(out[:0], rows)
	for len(out) < rows && c.Ok() {
		v := c.Byte("rle value")
		run := c.Uvarint("rle run")
		if !c.Ok() || run == 0 || run > uint64(rows-len(out)) {
			return nil, fmt.Errorf("chunk: %s: %w: bad run length", path, recordio.ErrCorrupt)
		}
		for j := uint64(0); j < run; j++ {
			out = append(out, v)
		}
	}
	if err := c.Err(); err != nil {
		return nil, fmt.Errorf("chunk: %s: %w", path, err)
	}
	if len(out) != rows {
		return nil, short(path)
	}
	if !c.Empty() {
		return nil, trailing(path, c.Remaining(), rows)
	}
	return out, nil
}

// Columns holds the decoded column vectors of one chunk, or of one row file
// read into the same shape (ReadRowFile). Vectors that no load asked for
// stay nil and their sections stay unread.
type Columns struct {
	Rows      int // the length of every loaded vector
	Initiator []byte
	Name      DictColumn
	UserID    []int64
	SessionID DictColumn
	IP        DictColumn
	Timestamp []int64
	LoggedIn  []byte
	Details   DetailsColumn

	have Set
}

// vectors are the buffers one chunk batch decodes into: a vector per
// column, each details key's row index, and the buffer a chunk's sections
// are read into. A batch takes a set from vectorPool on its first load
// and Release hands it back, so a scan that releases each batch decodes
// into vectors already grown instead of allocating them chunk after chunk.
// Nothing else refers to them: every decoder copies the strings it keeps
// out of the image (a dictionary's blob, a details key's record).
type vectors struct {
	image               []byte
	initiator, loggedIn []byte
	name, sessionID, ip []uint32
	userID, timestamp   []int64
	details             []keyColumn
	recs                [][]byte
}

var vectorPool = sync.Pool{New: func() any { return new(vectors) }}

// load decodes into v's vectors the columns of need that cc does not hold
// yet, reading each one's section of the image of path, which m locates,
// into v's buffer: a consumer can start from the columns it always wants
// and widen only for the chunks that turn out to need more.
func (cc *Columns) load(path string, m *Meta, need Set, v *vectors, src source) error {
	for i, col := range ColumnNames {
		bit := Set(1) << i
		if need&^cc.have&bit == 0 {
			continue
		}
		lo, hi := m.at[1+i], m.at[2+i]
		v.image = slices.Grow(v.image[:0], hi-lo)[:hi-lo]
		if err := src(v.image, lo); err != nil {
			return err
		}
		if err := cc.decode(bit, path+"#"+col, v.image, m.Rows, v); err != nil {
			return err
		}
	}
	cc.Rows = m.Rows
	return nil
}

// decode decodes the section of column bit into v's vectors, which cc's
// column then is.
func (cc *Columns) decode(bit Set, path string, data []byte, rows int, v *vectors) error {
	var err error
	switch bit {
	case Initiator:
		v.initiator, err = decodeRLE(path, data, rows, v.initiator)
		cc.Initiator = v.initiator
	case Name:
		cc.Name, err = decodeDict(path, data, rows, v.name)
		v.name = cc.Name.IDs
	case UserID:
		v.userID, err = decodeVarints(path, data, rows, false, v.userID)
		cc.UserID = v.userID
	case SessionID:
		cc.SessionID, err = decodeDict(path, data, rows, v.sessionID)
		v.sessionID = cc.SessionID.IDs
	case IP:
		cc.IP, err = decodeDict(path, data, rows, v.ip)
		v.ip = cc.IP.IDs
	case Timestamp:
		v.timestamp, err = decodeVarints(path, data, rows, true, v.timestamp)
		cc.Timestamp = v.timestamp
	case LoggedIn:
		v.loggedIn, err = decodeRLE(path, data, rows, v.loggedIn)
		cc.LoggedIn = v.loggedIn
	case Details:
		cc.Details, err = decodeDetails(path, data, rows, v)
	}
	if err == nil {
		cc.have |= bit
	}
	return err
}

// Event materializes one row as the client event it was sealed from. Every
// column but the derived logged_in must be loaded. A row that sealed as the
// zero name came from a message without the field, and has the zero name.
func (cc *Columns) Event(row int) (events.ClientEvent, error) {
	var name events.EventName
	if s := cc.Name.At(row); s != zeroName {
		var err error
		if name, err = events.ParseName(s); err != nil {
			return events.ClientEvent{}, err
		}
	}
	return events.ClientEvent{
		Initiator: events.Initiator(cc.Initiator[row]),
		Name:      name,
		UserID:    cc.UserID[row],
		SessionID: cc.SessionID.At(row),
		IP:        cc.IP.At(row),
		Timestamp: cc.Timestamp[row],
		Details:   cc.Details.At(row),
	}, nil
}
