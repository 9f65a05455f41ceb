// Package columnar re-encodes sealed warehouse hours into column chunks
// so day-scale batch queries read IO proportional to the query, not the
// corpus — the §3/§5 rollup scripts touch two or three columns of an
// eight-column event, and the row-oriented hour files make them inflate
// and walk all eight.
//
// The chunk layout, its encoder and its typed reader live in the leaf
// package internal/chunk, which the daily session-sequence job imports
// too; this package is what sits on either side of it. This file seals:
// a Sealer takes an hour's rows into a chunk.Builder, cuts a chunk every
// DefaultChunkRows events and writes each as one chunk image file into the
// hour directory under a leading-underscore name (chunk.IsAuxiliary),
// which no row scanner reads. The log mover runs a Sealer over the rows of
// the chunk images the aggregators staged, re-chunked without a record
// walk, so a client-events hour is published as its chunks alone;
// SealHour runs one over an hour's published row files, for a warehouse
// written some other way (warehouse.Writer), and writes the chunks beside
// those rows, which it keeps. Once the marker is written the day reader reads the hour from its
// chunks, rows or no rows.
//
// Sealing is crash-safe at two levels: a chunk is one file, written in one
// call, and across the hour the _col-SEALED marker is written after the
// last chunk. The marker is the hour's manifest: the Sealer keeps the zone
// map and section table AppendImage returns for each chunk and writes them
// all into it, so a reader lists, prunes and locates the hour's chunks from
// one file. An hour without the marker is not columnar — scans keep
// reading its row files, and the next SealHour removes the orphaned chunks
// and re-seals from scratch — so a seal that dies mid-hour can never
// silently drop the rows it had not reached.
//
// This package writes chunks; no scan lives here. Both layouts of an hour
// are read through internal/chunk's day reader — by
// dataflow.ClientEventFormat, which prunes chunks on the manifest's zone
// maps when it plans a scan and builds tuples from each kept file's batch,
// by the batch folds behind
// dataflow.Dataset.EachBatch, and by session.BuildDay — so an hour reads
// the same before and after its seal. format.go keeps two names the
// benchmark module still uses, EventsFormat and LoadDay.
package columnar

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"unilog/internal/chunk"
	"unilog/internal/hdfs"
	"unilog/internal/warehouse"
)

// DefaultChunkRows is the chunk size of SealHour: large enough that
// per-chunk dictionaries amortize, small enough that zone maps on a
// time-ordered hour give selective time windows real pruning.
const DefaultChunkRows = 8192

// HasColumnar reports whether dir has been fully sealed into column
// chunks. Chunks without the completion marker — a seal that died
// mid-hour — do not count: the hour keeps scanning through its row files
// until a re-seal finishes the job.
func HasColumnar(fs *hdfs.FS, dir string) bool {
	return fs.Exists(chunk.SealedPath(dir))
}

// removeTornSeal deletes the leftover _col- files of a seal that died
// before writing its completion marker, so the retry starts clean — its
// chunk boundaries need not line up with the dead attempt's.
func removeTornSeal(fs *hdfs.FS, dir string) error {
	infos, err := fs.Walk(dir)
	if err != nil {
		return err
	}
	for _, fi := range infos {
		if strings.Contains(fi.Path, "/_col-") {
			if err := fs.Delete(fi.Path, false); err != nil {
				return fmt.Errorf("columnar: clean torn seal %s: %w", fi.Path, err)
			}
		}
	}
	return nil
}

// SealHour re-encodes one warehouse hour into column chunks of
// DefaultChunkRows, returning the number of chunks written. Sealing is
// idempotent: an hour whose completion marker exists (or that does not
// exist at all) is left alone with n == 0, while a torn earlier attempt
// — chunks but no marker — is cleaned up and re-sealed.
func SealHour(fs *hdfs.FS, category string, hour time.Time) (int, error) {
	return SealHourChunks(fs, category, hour, DefaultChunkRows)
}

// SealHourChunks is SealHour with an explicit chunk size (tests use tiny
// chunks to exercise pruning on small corpora).
func SealHourChunks(fs *hdfs.FS, category string, hour time.Time, chunkRows int) (int, error) {
	dir := warehouse.HourDir(category, hour)
	if !fs.Exists(dir) || HasColumnar(fs, dir) {
		return 0, nil
	}
	if err := removeTornSeal(fs, dir); err != nil {
		return 0, err
	}
	started := time.Now()
	s := NewSealer(fs, dir, chunkRows)
	err := warehouse.ScanHourRecords(fs, dir, func(path string, rec []byte) error {
		if err := s.Add(rec); err != nil {
			return fmt.Errorf("warehouse: %s: %w", path, err)
		}
		return nil
	})
	if err != nil {
		return len(s.chunks), err
	}
	n, err := s.Close()
	if err == nil {
		tmSealHourNs.ObserveSince(started)
	}
	return n, err
}

// Sealer encodes one hour's rows, in the order they are added, into
// column chunks of one directory: a chunk every chunkRows rows, then the
// _col-SEALED marker at Close, the hour's manifest of every chunk's zone
// map and section table. SealHour feeds it the records of the
// published row files (Add); the log mover feeds it the rows of each
// staged chunk image it reads back (AddColumns), so the chunks land in its
// tmp directory and one rename publishes the sealed hour. The columnar.seal.* counters learn of its
// chunks only once Close has written the marker, so a seal given up on
// counts nothing. A Sealer is not safe for concurrent use.
type Sealer struct {
	fs        *hdfs.FS
	dir       string
	chunkRows int
	b         chunk.Builder
	chunks    []chunk.Meta // the manifest: the zone map of each chunk written
	rows      int64
	bytes     int64
}

// NewSealer returns a Sealer writing into dir, which should hold no _col-
// file yet. chunkRows <= 0 means DefaultChunkRows.
func NewSealer(fs *hdfs.FS, dir string, chunkRows int) *Sealer {
	if chunkRows <= 0 {
		chunkRows = DefaultChunkRows
	}
	return &Sealer{fs: fs, dir: dir, chunkRows: chunkRows}
}

// Reset readies s for another directory, as NewSealer(fs, dir, chunkRows)
// would, keeping the buffers its chunk builder has grown; rows added since
// its last chunk was written are dropped. The log mover seals hour after
// hour with one Sealer this way.
func (s *Sealer) Reset(fs *hdfs.FS, dir string) {
	s.b.Reset()
	s.fs, s.dir, s.chunks, s.rows, s.bytes = fs, dir, s.chunks[:0], 0, 0
}

// Add appends the row one compact-protocol client event holds, going from
// the wire to the column accumulators with one header walk and no
// ClientEvent in between, and writes a chunk once chunkRows rows are in. A
// record the chunk encoder rejects is not added: its error comes back, and
// the Sealer is as it was. rec is not kept.
func (s *Sealer) Add(rec []byte) error {
	if err := s.b.AddRecord(rec); err != nil {
		return err
	}
	if s.b.Rows() >= s.chunkRows {
		return s.flush()
	}
	return nil
}

// AddColumns appends every row of cc — a staged chunk image read back —
// through chunk.Builder.AddColumns, cut at the chunk boundaries Add would
// cut at, so the hour's chunks are the bytes a seal of the records those
// rows were staged from writes. A name the encoder refuses fails it; the
// caller gives the seal up. cc is not kept.
func (s *Sealer) AddColumns(cc *chunk.Columns) error {
	for lo := 0; lo < cc.Rows; {
		hi := min(cc.Rows, lo+s.chunkRows-s.b.Rows())
		if err := s.b.AddColumns(cc, lo, hi); err != nil {
			return err
		}
		if s.b.Rows() >= s.chunkRows {
			if err := s.flush(); err != nil {
				return err
			}
		}
		lo = hi
	}
	return nil
}

// Close writes the last chunk and the completion marker, the hour's
// manifest, and returns the number of chunks the hour holds.
func (s *Sealer) Close() (int, error) {
	if err := s.flush(); err != nil {
		return len(s.chunks), err
	}
	if err := chunk.WriteSealed(s.fs, s.dir, s.chunks); err != nil {
		return len(s.chunks), err
	}
	tmSealChunks.Add(int64(len(s.chunks)))
	tmSealRows.Add(s.rows)
	tmSealBytes.Add(s.bytes)
	return len(s.chunks), nil
}

func (s *Sealer) flush() error {
	rows := s.b.Rows()
	if rows == 0 {
		return nil
	}
	img, m, err := s.b.AppendImage(nil)
	if err != nil {
		return err
	}
	path := chunk.Path(s.dir, len(s.chunks))
	if err := s.fs.WriteFile(path, img); err != nil {
		return fmt.Errorf("columnar: write chunk %s: %w", path, err)
	}
	s.chunks = append(s.chunks, m)
	s.rows += int64(rows)
	s.bytes += int64(len(img))
	return nil
}

// SealDay seals every existing hour of a category's UTC day, returning
// the total chunk count. Hours seal concurrently on up to
// runtime.GOMAXPROCS(0) workers; use SealDayParallel for an explicit
// worker cap (1 forces the serial loop).
func SealDay(fs *hdfs.FS, category string, day time.Time) (int, error) {
	return SealDayParallel(fs, category, day, 0)
}

// SealDayParallel is SealDay with an explicit worker cap: <= 0 means
// runtime.GOMAXPROCS(0), 1 seals hour by hour in order.
func SealDayParallel(fs *hdfs.FS, category string, day time.Time, workers int) (int, error) {
	day = day.UTC().Truncate(24 * time.Hour)
	hours := make([]time.Time, 24)
	for h := range hours {
		hours[h] = day.Add(time.Duration(h) * time.Hour)
	}
	return SealHoursParallel(fs, category, hours, workers)
}

// SealHoursParallel seals a set of hours on a bounded worker pool. Hour
// directories are disjoint, so the chunk images each worker writes are
// exactly the files the serial loop would write. Error reporting is
// deterministic: the earliest listed hour's failure wins, and the
// returned total counts the hours before it plus the failing hour's
// partial chunks — the serial loop's contract. Hours after a failure
// may still have sealed (sealing is idempotent and additive); their
// chunks are not claimed by this call's count.
func SealHoursParallel(fs *hdfs.FS, category string, hours []time.Time, workers int) (int, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(hours) {
		workers = len(hours)
	}
	if workers <= 1 {
		total := 0
		for _, h := range hours {
			n, err := SealHour(fs, category, h)
			total += n
			if err != nil {
				return total, err
			}
		}
		return total, nil
	}
	tmSealWorkers.SetMax(int64(workers))
	ns := make([]int, len(hours))
	errs := make([]error, len(hours))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				ns[i], errs[i] = SealHour(fs, category, hours[i])
			}
		}()
	}
	for i := range hours {
		idx <- i
	}
	close(idx)
	wg.Wait()
	total := 0
	for i := range hours {
		total += ns[i]
		if errs[i] != nil {
			return total, errs[i]
		}
	}
	return total, nil
}
