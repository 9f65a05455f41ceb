package chunk

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"

	"unilog/internal/events"
	"unilog/internal/hdfs"
	"unilog/internal/recordio"
	"unilog/internal/telemetry"
	"unilog/internal/thrift"
)

// The day reader. A warehouse hour is read as a sequence of column batches,
// one per file HourFiles lists: every chunk the manifest of a sealed hour
// lists, and every row file of an hour without the _col-SEALED marker. A
// row file is walked record by record with events.Header into the same
// Columns a chunk decodes to — only the requested columns, details only
// when asked for — and its names are validated exactly as the seal
// validates them, so a consumer folds either kind with one loop over
// dictionary IDs and never sees a ClientEvent. It is the one reader of a
// row file's events: the tuple scan, dataflow.ClientEventFormat, builds
// its tuples from these batches too.

// Batch is one file of a warehouse hour read as column vectors: a sealed
// chunk, or a row file of an hour that is not sealed.
type Batch struct {
	Columns
	// Path is the chunk's image file or the row file.
	Path string

	fs      *hdfs.FS
	meta    Meta // a chunk's zone map, which locates its sections
	rowFile bool
	walked  bool       // a row file has been read once: Rows is its record count
	r       *rowReader // the walkers whose vectors a row file's columns are
	v       *vectors   // the vectors a chunk's columns are
}

// IsAuxiliary reports whether a path names a non-data file living beside
// log data: seal markers and column chunks, all of which carry a leading
// underscore. Scanners and loaders skip these; every other file in a log
// directory is read as a row file.
func IsAuxiliary(path string) bool {
	base := path
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		base = path[i+1:]
	}
	return strings.HasPrefix(base, "_")
}

// Telemetry for row-file scans, booked once per file read — never per
// record — so the scan loop stays as cheap as it was dark.
var (
	tmScanFiles   = telemetry.GetCounter("warehouse.scan.files")
	tmScanRecords = telemetry.GetCounter("warehouse.scan.records")
	tmScanBytes   = telemetry.GetCounter("warehouse.scan.bytes")
)

// ScanFileRecords is the one loop over a row file: read whole and inflated,
// fn invoked on each record. rec is valid only during the call — the next
// record overwrites it — so fn copies what it keeps. A damaged file fails
// the scan with recordio.ErrCorrupt and its path; an error from fn stops it
// and is returned as it is. The day reader's row batches, the warehouse's
// hour scan (and so the columnar seal) and the dataflow formats read
// through it.
func ScanFileRecords(fs *hdfs.FS, path string, fn func(rec []byte) error) error {
	data, err := fs.ReadFile(path)
	if err != nil {
		return err
	}
	var records int64
	err = recordio.ScanGzipFile(data, func(rec []byte) error {
		records++
		return fn(rec)
	})
	tmScanFiles.Inc()
	tmScanRecords.Add(records)
	tmScanBytes.Add(int64(len(data)))
	if errors.Is(err, recordio.ErrCorrupt) {
		return fmt.Errorf("warehouse: %s: %w", path, err)
	}
	return err
}

// HourFiles lists one hour directory in scan order, as the day reader
// reads it. A sealed hour is its manifest (ReadManifest): chunks[i] is the
// zone map and section table of chunk i, whose image is Path(dir, i), and
// listing it opens, stats and reads no image. An hour without the marker is
// its row files.
func HourFiles(fs *hdfs.FS, dir string) (chunks []Meta, rows []hdfs.FileInfo, err error) {
	chunks, err = ReadManifest(fs, dir)
	if !errors.Is(err, hdfs.ErrNotFound) {
		return chunks, nil, err
	}
	infos, err := fs.Walk(dir)
	if err != nil {
		return nil, nil, err
	}
	rows = infos[:0]
	for _, fi := range infos {
		if !IsAuxiliary(fi.Path) {
			rows = append(rows, fi)
		}
	}
	return nil, rows, nil
}

// ReadHour reads every file of one hour directory as a batch of the need
// columns and hands each to fn in scan order. The batch is fn's: fn may
// keep it, or Release it once done.
func ReadHour(fs *hdfs.FS, dir string, need Set, fn func(*Batch) error) error {
	chunks, rows, err := HourFiles(fs, dir)
	if err != nil {
		return err
	}
	for i := range chunks {
		b, err := LoadChunk(fs, Path(dir, i), chunks[i], need)
		if err != nil {
			return err
		}
		if err := fn(b); err != nil {
			return err
		}
	}
	for _, fi := range rows {
		b, err := ReadRowFile(fs, fi.Path, need)
		if err != nil {
			return err
		}
		if err := fn(b); err != nil {
			return err
		}
	}
	return nil
}

// LoadChunk reads the need columns of the chunk image at path, whose zone
// map and section table m are, as its hour's manifest lists them: a ranged
// read of each one's section, and of the image nothing else but its last
// byte, which checks that the file ends where the table does. A missing
// image, or one shorter or longer than its table, fails before any section
// is read, with an error naming the file.
func LoadChunk(fs *hdfs.FS, path string, m Meta, need Set) (*Batch, error) {
	if err := checkEnd(fs, path, m.at[len(m.at)-1]); err != nil {
		return nil, err
	}
	b := &Batch{Path: path, fs: fs, meta: m}
	if err := b.Widen(need); err != nil {
		b.Release()
		return nil, err
	}
	return b, nil
}

// checkEnd asks for the last byte of an image of size bytes and the byte
// after it: exactly one must be there.
func checkEnd(fs *hdfs.FS, path string, size int) error {
	var two [2]byte
	n, err := fs.ReadAt(path, int64(size-1), two[:])
	switch {
	case err != nil && err != io.EOF:
		return fmt.Errorf("chunk: %s: %w", path, err)
	case n == 0:
		return fmt.Errorf("chunk: %s: %w: the image ends before byte %d, where its table ends it", path, recordio.ErrTruncated, size)
	case n == 2:
		return fmt.Errorf("chunk: %s: %w: the image runs past byte %d, where its table ends it", path, recordio.ErrCorrupt, size)
	}
	return nil
}

// ReadImage reads a chunk image held in data, whose file is path, as a
// batch of every column: the section table must tile the image exactly,
// the meta section must decode, and each column section passes its CRC
// frames and its decoder, as LoadChunk's do, an error naming path#meta or
// path#<column>. It is how the log mover reads a staged image, which has no
// manifest.
// The batch keeps nothing of data.
func ReadImage(path string, data []byte) (*Batch, error) {
	mem := func(p []byte, off int) error {
		copy(p, data[off:])
		return nil
	}
	m, err := readMeta(path, len(data), mem)
	if err != nil {
		return nil, err
	}
	b := &Batch{Path: path, meta: m, v: vectorPool.Get().(*vectors)}
	if err := b.load(path, &b.meta, All, b.v, mem); err != nil {
		b.Release()
		return nil, err
	}
	return b, nil
}

// ReadRowFile reads the need columns of one row file. A damaged file, a
// message the header walk cannot read and a name ParseName rejects each
// fail with the file's path.
func ReadRowFile(fs *hdfs.FS, path string, need Set) (*Batch, error) {
	b := &Batch{Path: path, fs: fs, rowFile: true}
	if err := b.Widen(need); err != nil {
		return nil, err
	}
	return b, nil
}

// Widen loads the columns of need the batch does not hold yet: a chunk reads
// their sections, a row file is walked again for them.
func (b *Batch) Widen(need Set) error {
	if !b.rowFile {
		if b.v == nil {
			b.v = vectorPool.Get().(*vectors)
		}
		return b.load(b.Path, &b.meta, need, b.v, fileSource(b.fs, b.Path))
	}
	need &^= b.have
	if need == 0 && b.walked {
		return nil
	}
	r := rowReaders.Get().(*rowReader)
	r.reset()
	rows, err := r.read(b.fs, b.Path, need)
	if err == nil && b.walked && rows != b.Rows {
		err = fmt.Errorf("warehouse: %s: %w: %d records, %d on the first read", b.Path, recordio.ErrCorrupt, rows, b.Rows)
	}
	if err != nil {
		rowReaders.Put(r)
		return err
	}
	b.Rows, b.walked = rows, true
	r.fill(&b.Columns, need)
	b.have |= need
	r.next, b.r = b.r, r
	return nil
}

// Release hands the batch's vectors back, to be decoded into by a later
// chunk or filled by the walk of a later row file; the batch, and every
// vector and DetailsColumn taken from it, must not be read after it.
// Strings are the exception: dictionary entries and rendered details are
// copies, and stay valid. A batch never released is garbage collected like
// any other, so a consumer that keeps batches need not call it.
func (b *Batch) Release() {
	for r := b.r; r != nil; {
		next := r.next
		rowReaders.Put(r)
		r = next
	}
	if b.v != nil {
		vectorPool.Put(b.v)
	}
	b.r, b.v, b.Columns = nil, nil, Columns{}
}

// rowReader builds column vectors from the records of one row file, with
// the seal's own accumulators where the two share a layout: the dictionary
// columns number values in first-seen order, and the details column is
// encoded as the seal encodes it and decoded by the chunk's decoder, so a
// row file's details and a chunk's are one layout.
//
// A batch's columns are the vectors of the readers that walked its file,
// and Batch.Release recycles those readers through rowReaders, so a scan
// that releases each batch reuses vectors that have already grown and
// dictionary maps that keep their buckets, instead of paying every step of
// an append's growth again for every file.
type rowReader struct {
	dec  thrift.CompactDecoder
	h    events.Header
	wire []events.Pair

	name, sessionID, ip dictBuilder
	initiator, loggedIn []byte
	userID, timestamp   []int64
	details             detailsBuilder
	detailsCol          DetailsColumn
	payload             []byte   // scratch: the details column's records
	recs                [][]byte // and those records

	next *rowReader // the batch's previous walk, if Widen walked again
}

var rowReaders = sync.Pool{New: func() any { return new(rowReader) }}

// reset empties the reader for the next file.
func (r *rowReader) reset() {
	r.name.reset()
	r.sessionID.reset()
	r.ip.reset()
	r.initiator, r.loggedIn = r.initiator[:0], r.loggedIn[:0]
	r.userID, r.timestamp = r.userID[:0], r.timestamp[:0]
	r.details.reset()
	r.detailsCol = DetailsColumn{vals: r.detailsCol.vals[:0]}
	r.next = nil
}

// read walks every record of the file, keeping the need columns, and
// returns the record count. The name is validated on every walk, whatever
// need holds, as the seal and the tuple scan validate it.
func (r *rowReader) read(fs *hdfs.FS, path string, need Set) (int, error) {
	rows := 0
	err := ScanFileRecords(fs, path, func(rec []byte) error {
		if err := r.add(rec, need); err != nil {
			return fmt.Errorf("warehouse: %s: %w", path, err)
		}
		rows++
		return nil
	})
	if err == nil && need&Details != 0 {
		r.recs, r.payload = r.details.records(r.payload, r.recs)
		r.detailsCol, err = decodeDetailsRecords(path, r.recs, rows, r.detailsCol.vals)
	}
	return rows, err
}

// add appends one record's need columns.
func (r *rowReader) add(rec []byte, need Set) error {
	r.dec.Reset(rec)
	var err error
	if need&Details != 0 {
		r.wire, err = r.h.DecodePairs(&r.dec, r.wire)
	} else {
		err = r.h.Decode(&r.dec)
	}
	if err != nil {
		return err
	}
	nameID, err := r.name.nameID(r.h.Name)
	if err != nil {
		return err
	}
	h := &r.h
	if need&Initiator != 0 {
		r.initiator = append(r.initiator, byte(h.Initiator))
	}
	if need&Name != 0 {
		r.name.rows = append(r.name.rows, nameID)
	}
	if need&UserID != 0 {
		r.userID = append(r.userID, h.UserID)
	}
	if need&SessionID != 0 {
		r.sessionID.add(h.SessionID)
	}
	if need&IP != 0 {
		r.ip.add(h.IP)
	}
	if need&Timestamp != 0 {
		r.timestamp = append(r.timestamp, h.Timestamp)
	}
	if need&LoggedIn != 0 {
		r.loggedIn = append(r.loggedIn, loggedIn(h))
	}
	if need&Details != 0 {
		r.details.add(r.wire)
	}
	return nil
}

// fill hands the need columns to cc.
func (r *rowReader) fill(cc *Columns, need Set) {
	dict := func(d *dictBuilder) DictColumn { return DictColumn{Dict: d.vals, IDs: d.rows} }
	for i := range ColumnNames {
		switch bit := Set(1) << i; need & bit {
		case Initiator:
			cc.Initiator = r.initiator
		case Name:
			cc.Name = dict(&r.name)
		case UserID:
			cc.UserID = r.userID
		case SessionID:
			cc.SessionID = dict(&r.sessionID)
		case IP:
			cc.IP = dict(&r.ip)
		case Timestamp:
			cc.Timestamp = r.timestamp
		case LoggedIn:
			cc.LoggedIn = r.loggedIn
		case Details:
			cc.Details = r.detailsCol
		}
	}
}
