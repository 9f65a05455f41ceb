// Package twin reimplements Elephant Twin, the paper's §6 "generic indexing
// infrastructure for handling highly-selective queries".
//
// The defining design choices, all preserved here:
//
//   - indexes integrate "at the level of InputFormats", so anything built on
//     the dataflow engine benefits transparently (IndexedFormat satisfies
//     dataflow.InputFormat);
//   - indexes "reside alongside the data" — each warehouse part file gets a
//     sibling .idx file — rather than being embedded in the storage layout
//     like Trojan layouts, so dropping and rebuilding all indexes is cheap
//     ("we drop all indexes and rebuild from scratch; in fact, this has
//     already happened several times during the past year");
//   - a missing index never affects correctness: unindexed files are simply
//     scanned.
//
// The index itself maps each event name to its occurrence count within the
// file; a query's Splits phase prunes every file whose index proves it has
// no matches, which is where the selective-query win comes from.
package twin

import (
	"strings"
	"sync/atomic"
	"time"

	"unilog/internal/dataflow"
	"unilog/internal/events"
	"unilog/internal/hdfs"
	"unilog/internal/recordio"
	"unilog/internal/thrift"
	"unilog/internal/warehouse"
)

// IndexSuffix is appended to a data file's path to name its index.
const IndexSuffix = ".idx"

// IsIndexPath reports whether the path names an index file.
func IsIndexPath(p string) bool { return strings.HasSuffix(p, IndexSuffix) }

// FileIndex maps event names to their occurrence counts in one data file.
type FileIndex struct {
	Counts map[string]int64
}

// marshal serializes the index as a gzipped record stream.
func (ix *FileIndex) marshal() ([]byte, error) {
	buf := &memBuf{}
	w := recordio.NewGzipWriter(buf)
	enc := thrift.NewCompactEncoder()
	for name, n := range ix.Counts {
		enc.Reset()
		enc.WriteStructBegin()
		enc.WriteFieldBegin(thrift.STRING, 1)
		enc.WriteString(name)
		enc.WriteFieldBegin(thrift.I64, 2)
		enc.WriteI64(n)
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

func unmarshalIndex(data []byte) (*FileIndex, error) {
	ix := &FileIndex{Counts: make(map[string]int64)}
	err := recordio.ScanGzipFile(data, func(rec []byte) error {
		dec := thrift.NewCompactDecoder(rec)
		var name string
		var n int64
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
				n, err = dec.ReadI64()
			default:
				err = dec.Skip(ft)
			}
			if err != nil {
				return err
			}
		}
		ix.Counts[name] = n
		return nil
	})
	if err != nil {
		return nil, err
	}
	return ix, nil
}

// noName is the name a record without a name field decodes to
// (events.ClientEvent.Decode leaves the zero EventName, unvalidated).
var noName = []byte(events.EventName{}.String())

// IndexFile builds and writes the index of one client-event data file.
func IndexFile(fs *hdfs.FS, path string) error {
	data, err := fs.ReadFile(path)
	if err != nil {
		return err
	}
	// Count on the name bytes where they lie in each record: a name costs
	// a string, a parse and a validation the first time the file shows it,
	// a map lookup after that.
	counts := make(map[string]*int64)
	var dec thrift.CompactDecoder
	var h events.Header
	err = recordio.ScanGzipFile(data, func(rec []byte) error {
		dec.Reset(rec)
		if err := h.Decode(&dec); err != nil {
			return err
		}
		name := h.Name
		if name == nil {
			name = noName
		}
		n := counts[string(name)]
		if n == nil {
			if h.Name != nil {
				if _, err := events.ParseName(string(name)); err != nil {
					return err
				}
			}
			n = new(int64)
			counts[string(name)] = n
		}
		*n++
		return nil
	})
	if err != nil {
		return err
	}
	ix := &FileIndex{Counts: make(map[string]int64, len(counts))}
	for name, n := range counts {
		ix.Counts[name] = *n
	}
	out, err := ix.marshal()
	if err != nil {
		return err
	}
	idxPath := path + IndexSuffix
	if fs.Exists(idxPath) {
		if err := fs.Delete(idxPath, false); err != nil {
			return err
		}
	}
	return fs.WriteFile(idxPath, out)
}

// IndexDir indexes every unindexed data file under dir, returning how many
// indexes were built.
func IndexDir(fs *hdfs.FS, dir string) (int, error) {
	infos, err := fs.Walk(dir)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, fi := range infos {
		if IsIndexPath(fi.Path) {
			continue
		}
		if fs.Exists(fi.Path + IndexSuffix) {
			continue
		}
		if err := IndexFile(fs, fi.Path); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// IndexDay indexes all 24 hour-partitions of a category-day.
func IndexDay(fs *hdfs.FS, category string, day time.Time) (int, error) {
	total := 0
	day = day.UTC().Truncate(24 * time.Hour)
	for h := 0; h < 24; h++ {
		dir := warehouse.HourDir(category, day.Add(time.Duration(h)*time.Hour))
		if !fs.Exists(dir) {
			continue
		}
		n, err := IndexDir(fs, dir)
		if err != nil {
			return total, err
		}
		total += n
	}
	return total, nil
}

// DropIndexes deletes every index under dir — the paper's reindexing story:
// indexes live beside the data, so dropping and rebuilding is routine.
func DropIndexes(fs *hdfs.FS, dir string) (int, error) {
	infos, err := fs.Walk(dir)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, fi := range infos {
		if !IsIndexPath(fi.Path) {
			continue
		}
		if err := fs.Delete(fi.Path, false); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// LoadIndex reads the index of a data file, or nil if none exists.
func LoadIndex(fs *hdfs.FS, dataPath string) (*FileIndex, error) {
	idxPath := dataPath + IndexSuffix
	if !fs.Exists(idxPath) {
		return nil, nil
	}
	data, err := fs.ReadFile(idxPath)
	if err != nil {
		return nil, err
	}
	return unmarshalIndex(data)
}

// IndexedFormat is a dataflow input format for client events with
// predicate push-down: files whose index proves zero matches are pruned at
// split-enumeration time, and surviving splits filter records as they
// decode. In Pig terms, "we can easily support push-down of select
// operations".
type IndexedFormat struct {
	// Match selects event names; only matching events are emitted.
	Match func(name string) bool

	skippedFiles atomic.Int64
	prunedBytes  atomic.Int64
}

var _ dataflow.InputFormat = (*IndexedFormat)(nil)

// Schema implements dataflow.InputFormat.
func (f *IndexedFormat) Schema() dataflow.Schema { return dataflow.ClientEventSchema }

// SkippedFiles reports how many input files the index pruned.
func (f *IndexedFormat) SkippedFiles() int64 { return f.skippedFiles.Load() }

// PrunedBytes reports how many data bytes pruning avoided reading.
func (f *IndexedFormat) PrunedBytes() int64 { return f.prunedBytes.Load() }

// Splits implements dataflow.InputFormat, consulting per-file indexes.
func (f *IndexedFormat) Splits(fs *hdfs.FS, dir string) ([]dataflow.Split, error) {
	infos, err := fs.Walk(dir)
	if err != nil {
		return nil, err
	}
	var out []dataflow.Split
	for _, fi := range infos {
		if IsIndexPath(fi.Path) {
			continue
		}
		ix, err := LoadIndex(fs, fi.Path)
		if err != nil {
			return nil, err
		}
		if ix != nil && f.Match != nil {
			hit := false
			for name := range ix.Counts {
				if f.Match(name) {
					hit = true
					break
				}
			}
			if !hit {
				f.skippedFiles.Add(1)
				f.prunedBytes.Add(fi.Size)
				continue
			}
		}
		out = append(out, dataflow.Split{Path: fi.Path, Size: fi.Size})
	}
	return out, nil
}

// ReadSplit implements dataflow.InputFormat with record-level filtering.
func (f *IndexedFormat) ReadSplit(fs *hdfs.FS, s dataflow.Split, emit func(dataflow.Tuple) error) error {
	base := dataflow.ClientEventFormat{}
	return base.ReadSplit(fs, s, func(t dataflow.Tuple) error {
		if f.Match != nil && !f.Match(t[1].(string)) {
			return nil
		}
		return emit(t)
	})
}

type memBuf struct{ data []byte }

func (m *memBuf) Write(p []byte) (int, error) {
	m.data = append(m.data, p...)
	return len(p), nil
}
