package session

import (
	"compress/gzip"
	"errors"
	"fmt"
	"time"

	"unilog/internal/chunk"
	"unilog/internal/events"
	"unilog/internal/hdfs"
	"unilog/internal/recordio"
	"unilog/internal/thrift"
	"unilog/internal/warehouse"
)

// Histogram is the output of the first logical pass (§4.2): event counts plus
// a few sample messages per event type, which feed the client event catalog.
type Histogram struct {
	Counts map[string]int64
	// Samples holds up to SampleLimit serialized client events per name.
	Samples map[string][][]byte
	// SampleLimit caps samples retained per event type.
	SampleLimit int
	// Events is the total number of events scanned.
	Events int64
}

// NewHistogram returns an empty histogram retaining sampleLimit samples per
// event type.
func NewHistogram(sampleLimit int) *Histogram {
	return &Histogram{
		Counts:      make(map[string]int64),
		Samples:     make(map[string][][]byte),
		SampleLimit: sampleLimit,
	}
}

// HistogramDay scans one day of client events in the warehouse and returns
// the event histogram — the first logical pass of the daily
// session-sequence job, run on its own (the catalog builds from it).
func HistogramDay(fs *hdfs.FS, day time.Time, sampleLimit int) (*Histogram, error) {
	s := newDayScan(sampleLimit, false)
	if err := s.scan(fs, day); err != nil {
		return nil, err
	}
	return s.histogram(), nil
}

// dictionaryFile is where a day's dictionary is persisted.
func dictionaryFile(day time.Time) string {
	return warehouse.DictionaryDir(day) + "/dictionary.gz"
}

// SaveDictionary persists the day's dictionary to its known HDFS location.
func SaveDictionary(fs *hdfs.FS, day time.Time, d *Dictionary) error {
	data, err := d.Marshal()
	if err != nil {
		return err
	}
	return fs.WriteFile(dictionaryFile(day), data)
}

// LoadDictionary reads the day's dictionary back.
func LoadDictionary(fs *hdfs.FS, day time.Time) (*Dictionary, error) {
	data, err := fs.ReadFile(dictionaryFile(day))
	if err != nil {
		return nil, err
	}
	return Unmarshal(data)
}

// sequenceLevel is the deflate level of the session partition. Its records
// are mostly sequence strings of 2-byte UTF-8 runes, which fill deflate's
// hash chains, so level 6 runs at ~10 MB/s on them and was ~40% of the
// daily job. The same records at each level — 3,460 sessions of a
// 113,926-event day (BenchmarkBuildDay's), 273,195 bytes encoded, best of
// seven writes on a 2-vCPU Xeon:
//
//	level           ms per write  bytes out  B per event
//	6 (default)     24.6          120,165    1.055
//	4               12.2          123,226    1.082
//	1 (BestSpeed)    7.8          134,348    1.179
//
// The fast level costs 0.12 B per event, about 0.1% of what a sealed day
// stores, and the sequences stay over forty times smaller than the day's
// logs (§4.2). Readers are unaffected: a gzip member reads the same at any
// level.
const sequenceLevel = gzip.BestSpeed

// WriteDay materializes session records into the day's partition,
// /session_sequences/YYYY/MM/DD/part-*.gz, at sequenceLevel.
func WriteDay(fs *hdfs.FS, day time.Time, recs []Record, rollRecords int) error {
	if rollRecords <= 0 {
		rollRecords = 100000
	}
	dir := warehouse.SessionDayDir(day)
	var (
		buf *sliceBuf
		w   *recordio.GzipWriter  // nil between files
		enc thrift.CompactEncoder // one buffer for every record's encoding
		seq int
	)
	flush := func() error {
		if w == nil {
			return nil
		}
		if err := w.Close(); err != nil {
			return err
		}
		w = nil
		path := fmt.Sprintf("%s/part-%05d.gz", dir, seq)
		seq++
		return fs.WriteFile(path, buf.data)
	}
	for i := range recs {
		if w == nil {
			buf = &sliceBuf{}
			var err error
			if w, err = recordio.NewGzipWriterLevel(buf, sequenceLevel); err != nil {
				return err
			}
		}
		enc.Reset()
		recs[i].Encode(&enc)
		if err := w.Append(enc.Bytes()); err != nil {
			return err
		}
		if w.Count() >= int64(rollRecords) {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if err := flush(); err != nil {
		return err
	}
	if seq == 0 {
		// An empty day still gets its directory so readers can distinguish
		// "no sessions" from "not built yet".
		return fs.MkdirAll(dir)
	}
	return nil
}

// ScanDay iterates every materialized session record of the day.
func ScanDay(fs *hdfs.FS, day time.Time, fn func(*Record) error) error {
	infos, err := fs.Walk(warehouse.SessionDayDir(day))
	if err != nil {
		return err
	}
	for _, fi := range infos {
		data, err := fs.ReadFile(fi.Path)
		if err != nil {
			return err
		}
		err = recordio.ScanGzipFile(data, func(rec []byte) error {
			var r Record
			if err := thrift.DecodeCompact(rec, &r); err != nil {
				return fmt.Errorf("session: %s: %w", fi.Path, err)
			}
			return fn(&r)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// DayStats summarizes one BuildDay run, including the paper's headline
// compression ratio (§4.2: sequences are "about fifty times smaller than
// the original client event logs").
type DayStats struct {
	Events   int64
	Sessions int64
	Alphabet int
	RawBytes int64 // size of the day's raw client-event logs on HDFS, rows or chunks
	SeqBytes int64 // size of the materialized session sequences on HDFS
}

// Ratio returns RawBytes / SeqBytes.
func (s DayStats) Ratio() float64 {
	if s.SeqBytes == 0 {
		return 0
	}
	return float64(s.RawBytes) / float64(s.SeqBytes)
}

// ErrDayBuilt reports a BuildDay on a day whose session sequences are
// already complete.
var ErrDayBuilt = errors.New("session: day already built")

// BuildDay runs the daily job of §4.2. The paper's two passes — histogram
// and dictionary, then session reconstruction and encoding — are two
// logical passes over one physical scan: the scan counts names and fills
// the group table by ID, the dictionary is built when it ends, and the
// sessions are encoded out of the table, so the day's data is read once.
//
// The records land in the day's session-sequence partition and the
// dictionary, written last, in its known HDFS location: a day that has its
// dictionary is complete. BuildDay on such a day returns ErrDayBuilt
// before reading any data; session files without a dictionary are what a
// dead run left, and are removed before the rebuild.
func BuildDay(fs *hdfs.FS, day time.Time, sampleLimit int) (*Dictionary, *Histogram, DayStats, error) {
	var stats DayStats
	if fs.Exists(dictionaryFile(day)) {
		return nil, nil, stats, fmt.Errorf("%w: %s", ErrDayBuilt, dictionaryFile(day))
	}
	if dir := warehouse.SessionDayDir(day); fs.Exists(dir) {
		if err := fs.Delete(dir, true); err != nil {
			return nil, nil, stats, fmt.Errorf("session: remove partial %s: %w", dir, err)
		}
	}
	s := newDayScan(sampleLimit, true)
	if err := s.scan(fs, day); err != nil {
		return nil, nil, stats, err
	}
	h := s.histogram()
	dict, err := Build(h.Counts)
	if err != nil {
		return nil, nil, stats, err
	}
	recs, err := s.core.finish(dict, InactivityGap)
	if err != nil {
		return nil, nil, stats, err
	}
	if err := WriteDay(fs, day, recs, 0); err != nil {
		return nil, nil, stats, err
	}
	if err := SaveDictionary(fs, day, dict); err != nil {
		return nil, nil, stats, err
	}

	stats.Events = h.Events
	stats.Sessions = int64(len(recs))
	stats.Alphabet = dict.Len()
	if raw, err := rawDaySize(fs, day); err == nil {
		stats.RawBytes = raw
	}
	if sz, err := fs.TotalSize(warehouse.SessionDayDir(day)); err == nil {
		stats.SeqBytes = sz
	}
	return dict, h, stats, nil
}

// rawDaySize sums the on-disk size of the day's raw client-event logs:
// each hour's row files, or, for an hour that has none because the log
// mover published it as column chunks alone, the chunk images its manifest
// lists. The manifest itself is an index, not log data.
func rawDaySize(fs *hdfs.FS, day time.Time) (int64, error) {
	var total int64
	for _, dir := range warehouse.HourDirs(fs, events.Category, day) {
		sz, err := warehouse.DataSize(fs, dir)
		if err == nil && sz == 0 {
			sz, err = imagesSize(fs, dir)
		}
		if err != nil {
			return 0, err
		}
		total += sz
	}
	return total, nil
}

// imagesSize sums the chunk images of a sealed hour, as its manifest gives
// them; an hour that is not sealed has none.
func imagesSize(fs *hdfs.FS, dir string) (int64, error) {
	chunks, err := chunk.ReadManifest(fs, dir)
	if errors.Is(err, hdfs.ErrNotFound) {
		return 0, nil
	}
	var total int64
	for i := range chunks {
		total += chunks[i].Size()
	}
	return total, err
}
