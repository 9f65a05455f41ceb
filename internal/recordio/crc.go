package recordio

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// CRC framing extends the plain uvarint framing with a per-record checksum,
// which is what a write-ahead log needs: a crash can tear the final record
// mid-write, and a disk can hand back flipped bits, and the reader must be
// able to tell a clean end of stream from both. Each record is
//
//	uvarint payload length | 4-byte little-endian CRC-32C of payload | payload
//
// Readers distinguish three terminal conditions: io.EOF at a record
// boundary (clean end), ErrTruncated when the stream ends inside a record
// (the torn tail a crash leaves — recoverable by discarding the tail), and
// ErrCorrupt when a record is whole but its checksum or length lies (bit
// rot — the remainder of the stream cannot be trusted).

// ErrTruncated reports a stream that ends in the middle of a record — the
// torn final write of an interrupted appender. Everything before the torn
// record is intact.
var ErrTruncated = errors.New("recordio: truncated final record")

// castagnoli is the CRC-32C polynomial, the standard checksum for storage
// framing (iSCSI, ext4, leveldb logs).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// crcHeaderLen is the fixed part of a frame after the uvarint length.
const crcHeaderLen = 4

// CRCWriter frames checksummed records onto an io.Writer.
type CRCWriter struct {
	w     io.Writer
	hdr   [binary.MaxVarintLen64 + crcHeaderLen]byte
	bytes int64
}

// NewCRCWriter returns a CRCWriter framing onto w.
func NewCRCWriter(w io.Writer) *CRCWriter { return &CRCWriter{w: w} }

// Append writes one checksummed record. Records over MaxRecordSize are
// rejected here, on the write side: a reader treats such lengths as
// corruption, so letting one through would produce a stream that appends
// cleanly but can never be read back.
func (w *CRCWriter) Append(rec []byte) error {
	if len(rec) > MaxRecordSize {
		return fmt.Errorf("recordio: record of %d bytes exceeds MaxRecordSize", len(rec))
	}
	n := binary.PutUvarint(w.hdr[:], uint64(len(rec)))
	binary.LittleEndian.PutUint32(w.hdr[n:], crc32.Checksum(rec, castagnoli))
	if _, err := w.w.Write(w.hdr[:n+crcHeaderLen]); err != nil {
		return err
	}
	if _, err := w.w.Write(rec); err != nil {
		return err
	}
	w.bytes += int64(n + crcHeaderLen + len(rec))
	return nil
}

// Bytes returns the number of framed bytes written.
func (w *CRCWriter) Bytes() int64 { return w.bytes }

// CRCReader scans checksummed records from an io.Reader.
type CRCReader struct {
	r   *bufio.Reader
	buf []byte
}

// NewCRCReader returns a CRCReader scanning r.
func NewCRCReader(r io.Reader) *CRCReader { return &CRCReader{r: bufio.NewReader(r)} }

// Next returns the next record, io.EOF at a clean end of stream,
// ErrTruncated when the stream ends inside a record, or ErrCorrupt when a
// checksum or declared length is wrong. The returned slice is reused by
// subsequent calls; copy it to retain it.
func (r *CRCReader) Next() ([]byte, error) {
	size, err := binary.ReadUvarint(r.r)
	if err == io.EOF {
		return nil, io.EOF
	}
	if err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, ErrTruncated
		}
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if size > MaxRecordSize {
		return nil, fmt.Errorf("%w: record of %d bytes", ErrCorrupt, size)
	}
	var hdr [crcHeaderLen]byte
	if _, err := io.ReadFull(r.r, hdr[:]); err != nil {
		return nil, ErrTruncated
	}
	want := binary.LittleEndian.Uint32(hdr[:])
	if cap(r.buf) < int(size) {
		r.buf = make([]byte, size)
	}
	r.buf = r.buf[:size]
	if _, err := io.ReadFull(r.r, r.buf); err != nil {
		return nil, ErrTruncated
	}
	if got := crc32.Checksum(r.buf, castagnoli); got != want {
		return nil, fmt.Errorf("%w: crc mismatch (want %08x, got %08x)", ErrCorrupt, want, got)
	}
	return r.buf, nil
}

// NextCRCRecord parses the first checksummed record of data in place: rec
// aliases data, rest is what follows the record. The terminal conditions
// are Next's — io.EOF when data is empty, ErrTruncated when it ends inside
// a record, ErrCorrupt when a length or checksum lies — without the copy
// through a bufio.Reader, for callers that already hold the whole file.
func NextCRCRecord(data []byte) (rec, rest []byte, err error) {
	if len(data) == 0 {
		return nil, nil, io.EOF
	}
	size, n := binary.Uvarint(data)
	// A prefix of MaxVarintLen64 continuation bytes overflows whatever
	// follows, so only a shorter one can be a torn write.
	if n == 0 && len(data) < binary.MaxVarintLen64 {
		return nil, nil, ErrTruncated
	}
	if n <= 0 {
		return nil, nil, fmt.Errorf("%w: record length overflows", ErrCorrupt)
	}
	if size > MaxRecordSize {
		return nil, nil, fmt.Errorf("%w: record of %d bytes", ErrCorrupt, size)
	}
	body := data[n:]
	if uint64(len(body)) < crcHeaderLen+size {
		return nil, nil, ErrTruncated
	}
	want := binary.LittleEndian.Uint32(body)
	rec = body[crcHeaderLen : crcHeaderLen+size]
	if got := crc32.Checksum(rec, castagnoli); got != want {
		return nil, nil, fmt.Errorf("%w: crc mismatch (want %08x, got %08x)", ErrCorrupt, want, got)
	}
	return rec, body[crcHeaderLen+size:], nil
}
