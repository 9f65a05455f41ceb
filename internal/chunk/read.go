package chunk

import (
	"fmt"
	"io"
	"slices"
	"sync"

	"unilog/internal/events"
	"unilog/internal/hdfs"
	"unilog/internal/recordio"
	"unilog/internal/telemetry"
)

// Meta is a decoded zone map: everything pruning needs, nothing a pruned
// chunk has to pay for beyond this one small file.
type Meta struct {
	Rows             int
	MinTs, MaxTs     int64
	MinName, MaxName string
	// Cols is the set of column files the chunk was written with.
	Cols Set
}

// readFile reads a chunk file whole into buf[:0], through the same metered
// Open and ReadFull as hdfs.ReadFile, and names the file in an error.
func readFile(fs *hdfs.FS, path string, buf []byte) ([]byte, error) {
	r, err := fs.Open(path)
	if err != nil {
		return nil, fmt.Errorf("chunk: %s: %w", path, err)
	}
	buf = slices.Grow(buf[:0], int(r.Size()))[:r.Size()]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("chunk: %s: %w", path, err)
	}
	return buf, nil
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

// trailing is the error of a column record that holds more than rows rows.
func trailing(path string, c *recordio.Cursor, rows int) error {
	return fmt.Errorf("chunk: %s: %w: %d trailing bytes after %d rows", path, recordio.ErrCorrupt, c.Remaining(), rows)
}

// short is the error of a column record that cannot hold its chunk's rows:
// every encoding but run-length spends at least a byte per row, so the
// check also keeps a lying row count from sizing an allocation.
func short(path string) error {
	return fmt.Errorf("chunk: %s: %w: short column", path, recordio.ErrCorrupt)
}

// tmMetaReads counts the zone-map files read: one per chunk a scan plans,
// prunes or loads, and one per chunk a row count taken from the metas
// reads.
var tmMetaReads = telemetry.GetCounter("chunk.meta.reads")

// ReadMeta reads and decodes a chunk's zone-map file.
func ReadMeta(fs *hdfs.FS, path string) (Meta, error) {
	data, err := readFile(fs, path, nil)
	if err != nil {
		return Meta{}, err
	}
	tmMetaReads.Inc()
	return decodeMeta(path, data)
}

// decodeMeta decodes a zone-map file image.
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
	n := c.Count("columns")
	for i := 0; i < n; i++ {
		m.Cols |= ColumnOf(string(c.Bytes("column"))) // a column this reader does not know is one it never loads
	}
	if err := c.Err(); err != nil {
		return Meta{}, fmt.Errorf("chunk: %s: %w", path, err)
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

// decodeDict decodes a dictionary column file image, its IDs into ids[:0].
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
	if rows > len(recs[1]) {
		return DictColumn{}, short(path)
	}
	ic := recordio.NewCursor(recs[1])
	ids = slices.Grow(ids[:0], rows)[:rows]
	for i := range ids {
		id := ic.Uvarint("dict id")
		if !ic.Ok() || id >= uint64(len(dict)) {
			return DictColumn{}, fmt.Errorf("chunk: %s: %w: dict id out of range", path, recordio.ErrCorrupt)
		}
		ids[i] = uint32(id)
	}
	if !ic.Empty() {
		return DictColumn{}, trailing(path, ic, rows)
	}
	return DictColumn{Dict: dict, IDs: ids}, nil
}

// decodeVarints decodes a zig-zag varint column file image into one int64
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
	c := recordio.NewCursor(rec)
	out = slices.Grow(out[:0], rows)[:rows]
	prev := int64(0)
	for i := range out {
		v := c.Varint("varint value")
		if delta {
			v += prev
			prev = v
		}
		out[i] = v
	}
	if err := c.Err(); err != nil {
		return nil, fmt.Errorf("chunk: %s: %w", path, err)
	}
	if !c.Empty() {
		return nil, trailing(path, c, rows)
	}
	return out, nil
}

// decodeRLE decodes a run-length byte column file image into one byte per
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
		return nil, trailing(path, c, rows)
	}
	return out, nil
}

// Columns holds the decoded column vectors of one chunk, or of one row file
// read into the same shape (ReadRowFile). Vectors that no Load asked for stay
// nil and their files stay unread.
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

// Load decodes the column files of chunk base (a meta path without its
// extension) that need names and no earlier Load on cc has read, so a
// consumer can start from the columns it always wants and widen only for
// the chunks that turn out to need more. The vectors are cc's own; a chunk
// batch decodes into recycled ones instead (Batch.Release).
func (cc *Columns) Load(fs *hdfs.FS, base string, m Meta, need Set) error {
	return cc.load(fs, base, m, need, new(vectors))
}

// vectors are the buffers one chunk batch decodes into: a vector per
// column, each details key's row index, and the image every column file is
// read into in turn. A batch takes a set from vectorPool on its first load
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

// load is Load decoding into v's vectors, which cc's columns then are.
func (cc *Columns) load(fs *hdfs.FS, base string, m Meta, need Set, v *vectors) error {
	for i, col := range ColumnNames {
		bit := Set(1) << i
		if need&^cc.have&bit == 0 {
			continue
		}
		path := base + "." + col
		if m.Cols&bit == 0 {
			return fmt.Errorf("chunk: %s: %w: column not listed in the chunk meta", path, recordio.ErrCorrupt)
		}
		data, err := readFile(fs, path, v.image)
		if err != nil {
			return err
		}
		v.image = data // the next column's read overwrites it
		switch bit {
		case Initiator:
			v.initiator, err = decodeRLE(path, data, m.Rows, v.initiator)
			cc.Initiator = v.initiator
		case Name:
			cc.Name, err = decodeDict(path, data, m.Rows, v.name)
			v.name = cc.Name.IDs
		case UserID:
			v.userID, err = decodeVarints(path, data, m.Rows, false, v.userID)
			cc.UserID = v.userID
		case SessionID:
			cc.SessionID, err = decodeDict(path, data, m.Rows, v.sessionID)
			v.sessionID = cc.SessionID.IDs
		case IP:
			cc.IP, err = decodeDict(path, data, m.Rows, v.ip)
			v.ip = cc.IP.IDs
		case Timestamp:
			v.timestamp, err = decodeVarints(path, data, m.Rows, true, v.timestamp)
			cc.Timestamp = v.timestamp
		case LoggedIn:
			v.loggedIn, err = decodeRLE(path, data, m.Rows, v.loggedIn)
			cc.LoggedIn = v.loggedIn
		case Details:
			cc.Details, err = decodeDetails(path, data, m.Rows, v)
		}
		if err != nil {
			return err
		}
		cc.have |= bit
	}
	cc.Rows = m.Rows
	return nil
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
