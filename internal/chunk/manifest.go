package chunk

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"unilog/internal/hdfs"
	"unilog/internal/recordio"
	"unilog/internal/telemetry"
)

// The manifest. A sealed hour's _col-SEALED marker lists the hour: one CRC
// record of the marker magic, the format version, the chunk count and,
// for each chunk in scan order, the zone map and the section table its
// image holds:
//
//	rows             uvarint
//	min_ts           zig-zag varint
//	max_ts - min_ts  uvarint
//	min/max name     length-prefixed strings
//	table            uvarint length of the image's framed section table,
//	                 then of each of its sections, in image order
//
// A reader plans an hour from it alone: one ReadFile lists the chunks,
// prunes them on their zone maps and locates each kept chunk's sections,
// so no image is opened, stat'ed or read until a column of it is loaded.

// tmManifestReads counts the manifests read: one per sealed hour a scan
// plans or the day reader reads.
var tmManifestReads = telemetry.GetCounter("chunk.manifest.reads")

// maxImage bounds the image a manifest entry may locate, so no table sums
// past an int.
const maxImage = 1 << 40

// WriteSealed writes dir's manifest, the completion marker of its seal:
// chunks[i] is the zone map AppendImage returned for the image of chunk i.
func WriteSealed(fs *hdfs.FS, dir string, chunks []Meta) error {
	if err := fs.WriteFile(SealedPath(dir), frame(appendManifest(nil, chunks))); err != nil {
		return fmt.Errorf("chunk: write seal marker %s: %w", SealedPath(dir), err)
	}
	return nil
}

// appendManifest appends the manifest record of chunks to dst.
func appendManifest(dst []byte, chunks []Meta) []byte {
	dst = binary.AppendUvarint(dst, sealedMagic)
	dst = binary.AppendUvarint(dst, manifestVersion)
	dst = binary.AppendUvarint(dst, uint64(len(chunks)))
	for i := range chunks {
		m := &chunks[i]
		dst = binary.AppendUvarint(dst, uint64(m.Rows))
		dst = binary.AppendVarint(dst, m.MinTs)
		dst = binary.AppendUvarint(dst, uint64(m.MaxTs-m.MinTs))
		dst = appendString(dst, m.MinName)
		dst = appendString(dst, m.MaxName)
		start := 0
		for _, end := range m.at {
			dst = binary.AppendUvarint(dst, uint64(end-start))
			start = end
		}
	}
	return dst
}

// ReadManifest reads the manifest of the sealed hour dir with one ReadFile
// and returns the zone map of every chunk in scan order; chunk i's image is
// Path(dir, i). An hour without the marker is not sealed, and its error
// wraps hdfs.ErrNotFound. A torn marker fails with recordio.ErrTruncated and
// a damaged one with recordio.ErrCorrupt, each naming the marker.
func ReadManifest(fs *hdfs.FS, dir string) ([]Meta, error) {
	path := SealedPath(dir)
	data, err := fs.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("chunk: %s: %w", path, err)
	}
	chunks, err := decodeManifest(path, data)
	if err == nil {
		tmManifestReads.Inc()
	}
	return chunks, err
}

// decodeManifest decodes a marker file. It takes the one encoding
// appendManifest writes and nothing else: a record that decodes but is not
// what its entries encode to — an over-long varint, a frame length written
// long — is damaged.
func decodeManifest(path string, data []byte) ([]Meta, error) {
	rec, err := oneRecord(path, data)
	if err != nil {
		return nil, err
	}
	c := recordio.NewCursor(rec)
	if magic := c.Uvarint("magic"); c.Ok() && magic != sealedMagic {
		return nil, fmt.Errorf("chunk: %s: %w: bad magic %#x", path, recordio.ErrCorrupt, magic)
	}
	if v := c.Uvarint("version"); c.Ok() && v != manifestVersion {
		return nil, fmt.Errorf("chunk: %s: %w: unsupported manifest version %d", path, recordio.ErrCorrupt, v)
	}
	// An entry takes at least a byte per field: the count cannot claim
	// more entries than the record has room for.
	const minEntry = 5 + len(table{})
	n := c.Uvarint("chunks")
	if n > uint64(c.Remaining()/minEntry) {
		return nil, fmt.Errorf("chunk: %s: %w: %d chunks in %d bytes", path, recordio.ErrCorrupt, n, c.Remaining())
	}
	// One string backs every name of the manifest, as one backs a
	// dictionary's entries.
	blob := string(rec)
	str := func(what string) string {
		l := len(c.Bytes(what))
		end := len(blob) - c.Remaining()
		return blob[end-l : end]
	}
	chunks := make([]Meta, n)
	for i := range chunks {
		m := &chunks[i]
		rows := c.Uvarint("rows")
		if rows > recordio.MaxRecordSize { // as decodeMeta bounds it
			return nil, fmt.Errorf("chunk: %s: %w: chunk %d of %d rows", path, recordio.ErrCorrupt, i, rows)
		}
		m.Rows = int(rows)
		m.MinTs = c.Varint("min_ts")
		m.MaxTs = m.MinTs + int64(c.Uvarint("ts span"))
		m.MinName, m.MaxName = str("min_name"), str("max_name")
		end := uint64(0)
		for s := range m.at {
			l := c.Uvarint("section length")
			if c.Ok() && (s == 0 && l == 0 || l > maxImage-end) { // every image starts with its table
				return nil, fmt.Errorf("chunk: %s: %w: chunk %d has a section of %d bytes at byte %d", path, recordio.ErrCorrupt, i, l, end)
			}
			end += l
			m.at[s] = int(end)
		}
	}
	if err := c.Err(); err != nil {
		return nil, fmt.Errorf("chunk: %s: %w", path, err)
	}
	if !c.Empty() {
		return nil, fmt.Errorf("chunk: %s: %w: %d bytes after the last chunk", path, recordio.ErrCorrupt, c.Remaining())
	}
	var frameLen [binary.MaxVarintLen64]byte
	if len(data)-len(rec) != binary.PutUvarint(frameLen[:], uint64(len(rec)))+4 || !bytes.Equal(rec, appendManifest(nil, chunks)) {
		return nil, fmt.Errorf("chunk: %s: %w: not the manifest's own encoding", path, recordio.ErrCorrupt)
	}
	return chunks, nil
}
