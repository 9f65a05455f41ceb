// Package chunk is the column-chunk codec: the on-disk layout of a sealed
// warehouse hour, its encoders, and a typed reader. It is a leaf — it
// knows events, hdfs and recordio, nothing of dataflow — so both the
// tuple-producing scan (columnar.EventsFormat) and the ID-consuming daily
// job (session.BuildDay) decode chunks through the same checks.
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
//	_col-00000.details     per row: pair count + length-prefixed k/v, keys sorted
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
	"sort"

	"unilog/internal/events"
	"unilog/internal/hdfs"
	"unilog/internal/recordio"
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
	metaVersion = 1
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

// Write encodes chunk idx of dir from evs (column files first, the meta
// file last, so a torn seal never claims a chunk it did not finish).
func Write(fs *hdfs.FS, dir string, idx int, evs []*events.ClientEvent) error {
	base := Base(dir, idx)
	// Rendering a name is a six-way concat: do it once per row and share
	// the result between the dictionary and the zone map.
	names := make([]string, len(evs))
	for i, e := range evs {
		names[i] = e.Name.String()
	}
	cols := [][]byte{
		encodeRLE(evs, func(e *events.ClientEvent) byte { return byte(e.Initiator) }),
		encodeDict(len(evs), func(i int) string { return names[i] }),
		encodeUserIDs(evs),
		encodeDict(len(evs), func(i int) string { return evs[i].SessionID }),
		encodeDict(len(evs), func(i int) string { return evs[i].IP }),
		encodeTimestamps(evs),
		encodeRLE(evs, func(e *events.ClientEvent) byte {
			if e.LoggedIn() {
				return 1
			}
			return 0
		}),
		encodeDetails(evs),
	}
	for i, col := range ColumnNames {
		if err := fs.WriteFile(base+"."+col, cols[i]); err != nil {
			return fmt.Errorf("chunk: write chunk %s.%s: %w", base, col, err)
		}
	}
	if err := fs.WriteFile(base+".meta", encodeMeta(evs, names)); err != nil {
		return fmt.Errorf("chunk: write chunk %s.meta: %w", base, err)
	}
	return nil
}

// encodeMeta builds the zone-map file: one CRC record with the row count,
// the timestamp range, and the lexical name range of the chunk. names[i]
// is the rendered name of evs[i].
func encodeMeta(evs []*events.ClientEvent, names []string) []byte {
	minTs, maxTs := evs[0].Timestamp, evs[0].Timestamp
	minName, maxName := names[0], names[0]
	for i := 1; i < len(evs); i++ {
		minTs, maxTs = min(minTs, evs[i].Timestamp), max(maxTs, evs[i].Timestamp)
		minName, maxName = min(minName, names[i]), max(maxName, names[i])
	}
	var rec []byte
	rec = binary.AppendUvarint(rec, metaMagic)
	rec = binary.AppendUvarint(rec, metaVersion)
	rec = binary.AppendUvarint(rec, uint64(len(evs)))
	rec = binary.AppendVarint(rec, minTs)
	rec = binary.AppendVarint(rec, maxTs)
	rec = appendString(rec, minName)
	rec = appendString(rec, maxName)
	rec = binary.AppendUvarint(rec, uint64(len(ColumnNames)))
	for _, col := range ColumnNames {
		rec = appendString(rec, col)
	}
	return frame(rec)
}

// appendString appends a uvarint length-prefixed string.
func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// encodeDict encodes one string column of rows values, get(i) the value of
// row i, as two CRC records: the sorted per-chunk dictionary, then one
// uvarint dictionary ID per row.
func encodeDict(rows int, get func(i int) string) []byte {
	distinct := make(map[string]int)
	for i := 0; i < rows; i++ {
		distinct[get(i)] = 0
	}
	dict := make([]string, 0, len(distinct))
	for s := range distinct {
		dict = append(dict, s)
	}
	sort.Strings(dict)
	for i, s := range dict {
		distinct[s] = i
	}
	var d []byte
	d = binary.AppendUvarint(d, uint64(len(dict)))
	for _, s := range dict {
		d = appendString(d, s)
	}
	var ids []byte
	for i := 0; i < rows; i++ {
		ids = binary.AppendUvarint(ids, uint64(distinct[get(i)]))
	}
	return frame(d, ids)
}

// encodeUserIDs packs the user_id column as zig-zag varints.
func encodeUserIDs(evs []*events.ClientEvent) []byte {
	var rec []byte
	for _, e := range evs {
		rec = binary.AppendVarint(rec, e.UserID)
	}
	return frame(rec)
}

// encodeTimestamps delta-codes the timestamp column: each row stores the
// zig-zag difference from the previous row (the first from zero), so a
// time-ordered hour costs a byte or two per row.
func encodeTimestamps(evs []*events.ClientEvent) []byte {
	var rec []byte
	prev := int64(0)
	for _, e := range evs {
		rec = binary.AppendVarint(rec, e.Timestamp-prev)
		prev = e.Timestamp
	}
	return frame(rec)
}

// encodeRLE encodes one byte-valued column — the initiator and the derived
// logged_in flag, a handful of distinct values with long runs — as (value,
// run-length) pairs in a single CRC record.
func encodeRLE(evs []*events.ClientEvent, get func(*events.ClientEvent) byte) []byte {
	var rec []byte
	i := 0
	for i < len(evs) {
		v := get(evs[i])
		j := i + 1
		for j < len(evs) && get(evs[j]) == v {
			j++
		}
		rec = append(rec, v)
		rec = binary.AppendUvarint(rec, uint64(j-i))
		i = j
	}
	return frame(rec)
}

// encodeDetails encodes the details map column: per row a pair count then
// length-prefixed key/value strings, keys sorted for determinism. Zero
// pairs round-trips as a nil map, matching the thrift row decoder.
func encodeDetails(evs []*events.ClientEvent) []byte {
	var rec []byte
	var keys []string
	for _, e := range evs {
		rec = binary.AppendUvarint(rec, uint64(len(e.Details)))
		keys = keys[:0]
		for k := range e.Details {
			keys = append(keys, k)
		}
		if len(keys) > 1 {
			sort.Strings(keys)
		}
		for _, k := range keys {
			rec = appendString(rec, k)
			rec = appendString(rec, e.Details[k])
		}
	}
	return frame(rec)
}
