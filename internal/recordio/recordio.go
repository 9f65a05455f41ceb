// Package recordio frames variable-length records inside a byte stream and
// optionally compresses the stream with gzip. It is the on-disk layout of
// every row file in the pipeline: Scribe aggregators write gzipped record
// streams to staging HDFS for every category but client events (staged as
// chunk images, CRC-framed sections, see chunk.Builder.AppendImage), the
// log mover concatenates them into big warehouse files, and the session
// store uses the same framing for materialized sequences. The CRC frames
// (crc.go) are what the column chunks, the realtime WAL and the spill runs
// sit behind.
//
// The format is a sequence of records, each a uvarint length followed by
// that many bytes. It supports streaming append and streaming scans without
// an index, which is all the paper's brute-force-scan workloads need.
//
// A gzipped record stream is one or more gzip members back to back (RFC
// 1952 §2.2), each holding a whole number of records and carrying its own
// CRC-32 and length trailer. GzipWriter produces one member; concatenating
// the outputs of several GzipWriters produces a valid file whose records
// are the concatenation of theirs, which is how the log mover merges
// staging files without inflating and re-deflating them. Every reader here
// reads through member boundaries, and damage is detected per member.
//
// Reading goes through the package's own decoder (inflate.go): ScanGzipFile
// and VerifyGzipFile inflate a file image held in memory straight from its
// bytes into a fixed window of output that is walked for record frames a
// piece at a time, so a scan holds that window and one record however
// large the file, and refuses what compress/gzip refuses. compress/gzip
// writes, and is the reference the package's tests hold the decoder to.
//
// GzipWriter is block-buffered: it hands its compressor 32 KiB of frames at
// a time and takes that compressor from a pool of its deflate level, so the
// member is complete — and the destination has seen all of it — only when
// Close returns. The bytes are the ones compress/gzip writes at that level
// for the same frames in one Write. NewGzipWriter writes at level 6: the
// warehouse.Writer, the catalog and the session dictionary use it. Two writers pick their level with
// NewGzipWriterLevel: the Scribe aggregator's staging files at level 3
// (scribe.stagingLevel), whose bytes only cross from staging to the
// warehouse (the mover splices their members as they are; a client event
// pays no deflate, for it is staged as a chunk image); and the session
// partition at gzip.BestSpeed (session.WriteDay). A reader never needs to
// know which.
package recordio

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// ErrCorrupt reports a malformed record frame.
var ErrCorrupt = errors.New("recordio: corrupt record stream")

// MaxRecordSize bounds a single record (16 MiB); larger declared lengths
// are treated as corruption rather than allocated.
const MaxRecordSize = 16 << 20

// Writer frames records onto an io.Writer.
type Writer struct {
	w     io.Writer
	frame []byte // scratch: the current record's length prefix + payload
	count int64
}

// NewWriter returns a Writer framing onto w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Append writes one record: prefix and payload go down in a single Write.
func (w *Writer) Append(rec []byte) error {
	w.frame = binary.AppendUvarint(w.frame[:0], uint64(len(rec)))
	w.frame = append(w.frame, rec...)
	if _, err := w.w.Write(w.frame); err != nil {
		return err
	}
	w.count++
	return nil
}

// Count returns the number of records appended.
func (w *Writer) Count() int64 { return w.count }

// gzipBlock is how many framed bytes a GzipWriter gathers before it calls
// the compressor: deflate's per-call costs are paid once per block, not once
// per few-hundred-byte record, and the bytes it emits do not depend on how
// its input was cut.
const gzipBlock = 32 << 10

// gzipWriters recycles compressors between GzipWriters, one pool per
// deflate level, so a writer only ever draws a compressor of its own level:
// a deflate state is over a megabyte, and a staging or part file is written
// every few thousand records. gzipWriters[level-gzip.HuffmanOnly] holds the
// level's compressors; gzip.DefaultCompression shares level 6's, which it
// is.
var gzipWriters [gzip.BestCompression - gzip.HuffmanOnly + 1]sync.Pool

var errWriterClosed = errors.New("recordio: append to a closed GzipWriter")

// GzipWriter couples a record Writer with gzip compression, the aggregator's
// "compressing data on the fly" (§2). Its output is one gzip member. Records
// are framed into a block buffer and compressed a block at a time, so what
// has been appended is only certain to have reached the destination — and a
// destination's write error to have been seen — once Close returns. Close
// also hands the compressor back for the next GzipWriter of its level; a
// writer dropped without Close just never returns it.
type GzipWriter struct {
	*Writer
	block *bufio.Writer
	gz    *gzip.Writer // nil once closed: the compressor may be someone else's
	pool  *sync.Pool
}

// NewGzipWriter returns a record writer that gzips its output onto w at
// deflate's default level, 6.
func NewGzipWriter(w io.Writer) *GzipWriter {
	gw, _ := NewGzipWriterLevel(w, gzip.DefaultCompression) // a valid level
	return gw
}

// NewGzipWriterLevel returns a record writer that gzips its output onto w
// at a compress/gzip level, from gzip.HuffmanOnly to gzip.BestCompression.
// Its member is read like any other: the level is only the writer's.
func NewGzipWriterLevel(w io.Writer, level int) (*GzipWriter, error) {
	if level == gzip.DefaultCompression {
		level = 6
	}
	if level < gzip.HuffmanOnly || level > gzip.BestCompression {
		return nil, fmt.Errorf("recordio: invalid gzip level %d", level)
	}
	pool := &gzipWriters[level-gzip.HuffmanOnly]
	gz, _ := pool.Get().(*gzip.Writer)
	if gz == nil {
		gz, _ = gzip.NewWriterLevel(w, level) // level checked above
	} else {
		gz.Reset(w)
	}
	block := bufio.NewWriterSize(gz, gzipBlock)
	return &GzipWriter{Writer: NewWriter(block), block: block, gz: gz, pool: pool}, nil
}

// Append frames one record into the current block. It fails after Close.
func (w *GzipWriter) Append(rec []byte) error {
	if w.gz == nil {
		return errWriterClosed
	}
	return w.Writer.Append(rec)
}

// Close compresses the last block and finishes the gzip member; the
// underlying writer is not closed. A second Close does nothing.
func (w *GzipWriter) Close() error {
	if w.gz == nil {
		return nil
	}
	err := w.block.Flush()
	if cerr := w.gz.Close(); err == nil {
		err = cerr
	}
	w.pool.Put(w.gz)
	w.gz = nil
	return err
}

// ScanGzipFile decodes a whole gzipped record stream held in memory,
// invoking fn on each record; it stops at the first error fn returns and
// returns that error as it is. rec is only valid until fn returns. fn may
// see records of a member before that member's trailer is checked; a
// caller that must not act on damaged data checks the file with
// VerifyGzipFile first. ScanGzipFile refuses exactly what VerifyGzipFile
// refuses, as ErrCorrupt.
func ScanGzipFile(data []byte, fn func(rec []byte) error) error {
	_, _, err := walkGzip(data, fn)
	return err
}

// VerifyGzipFile checks a whole gzipped record stream held in memory: every
// member is inflated, its CRC-32 and length are checked against its
// trailer, and every frame is walked to a clean record boundary at the end
// of the file. It returns the number of records and their total payload
// bytes (length prefixes excluded). A file that passes scans with
// ScanGzipFile to exactly that many records, alone or concatenated with
// other files that pass.
func VerifyGzipFile(data []byte) (records, payload int64, err error) {
	records, payload, err = walkGzip(data, nil)
	if err != nil {
		return 0, 0, err
	}
	return records, payload, nil
}

// walkGzip is ScanGzipFile and VerifyGzipFile: the package's inflater
// hands the file's output, a piece at a time, to a frameWalker.
func walkGzip(data []byte, fn func(rec []byte) error) (records, payload int64, err error) {
	d := inflaters.Get().(*inflater)
	d.walk = frameWalker{fn: fn, split: d.walk.split[:0]}
	d.reset(data, &d.walk)
	err = d.gunzip()
	if err == nil {
		err = d.walk.end()
	}
	records, payload = d.walk.records, d.walk.payload
	d.reset(nil, nil)
	d.walk.fn = nil
	if cap(d.walk.split) > inflatePiece {
		d.walk.split = nil // an outsized record's buffer is not kept
	}
	inflaters.Put(d)
	return records, payload, err
}

// frameWalker is an io.Writer that walks the record frames of a stream
// handed to it in arbitrary pieces: each a uvarint length of at most
// MaxRecordSize, then that many bytes. It copies only the records that
// straddle two pieces, and those only when there is an fn to hand them to;
// the first error fn returns is Write's.
type frameWalker struct {
	fn func(rec []byte) error

	records int64
	payload int64

	remaining uint64 // payload bytes of the current record still to come
	size      uint64 // length prefix being assembled
	sizeLen   int    // prefix bytes consumed so far; 0 at a record boundary
	split     []byte // the current record's payload from earlier pieces
}

func (w *frameWalker) Write(p []byte) (int, error) {
	total := len(p)
	for len(p) > 0 {
		if w.remaining > 0 {
			n := min(uint64(len(p)), w.remaining)
			w.remaining -= n
			if w.fn != nil {
				rec := p[:n]
				if w.remaining > 0 || len(w.split) > 0 {
					w.split = append(w.split, rec...)
					rec = w.split
				}
				if w.remaining == 0 {
					w.split = w.split[:0]
					if err := w.fn(rec); err != nil {
						return 0, err
					}
				}
			}
			p = p[n:]
			continue
		}
		// The same acceptance as binary.ReadUvarint: at most ten bytes,
		// the tenth at most 1.
		b := p[0]
		p = p[1:]
		if w.sizeLen == binary.MaxVarintLen64-1 && b > 1 {
			return 0, fmt.Errorf("%w: record length overflows 64 bits", ErrCorrupt)
		}
		w.size |= uint64(b&0x7f) << (7 * w.sizeLen)
		w.sizeLen++
		if b >= 0x80 {
			continue
		}
		if w.size > MaxRecordSize {
			return 0, fmt.Errorf("%w: record of %d bytes", ErrCorrupt, w.size)
		}
		w.records++
		w.payload += int64(w.size)
		w.remaining = w.size
		w.size, w.sizeLen = 0, 0
		if w.remaining == 0 && w.fn != nil {
			if err := w.fn(nil); err != nil {
				return 0, err
			}
		}
	}
	return total, nil
}

// end reports whether the stream stopped at a record boundary.
func (w *frameWalker) end() error {
	if w.sizeLen > 0 || w.remaining > 0 {
		return fmt.Errorf("%w: truncated record", ErrCorrupt)
	}
	return nil
}
