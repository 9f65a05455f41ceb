// Package columnar re-encodes sealed warehouse hours into column-chunk
// files so day-scale batch queries read IO proportional to the query, not
// the corpus — the §3/§5 rollup scripts touch two or three columns of an
// eight-column event, and the row-oriented hour files make them inflate
// and walk all eight.
//
// The chunk layout, its encoder and its typed reader live in the leaf
// package internal/chunk, which the daily session-sequence job imports
// too; this package is what sits on either side of it. This file seals:
// it walks the raw records of an hour's row files into a chunk.Builder,
// cuts a chunk every ChunkRows events and writes them beside the row
// files, whose leading-underscore names make them auxiliary to every row
// scanner (warehouse.IsAuxiliary), so row and
// columnar layouts coexist in one directory and either can serve a scan.
//
// Sealing is crash-safe at two levels: within a chunk the meta file is
// written last, and across the hour the _col-SEALED marker is written
// after the last chunk. An hour without the marker is not columnar —
// scans keep reading its row files, and the next SealHour removes the
// orphaned chunk files and re-seals from scratch — so a seal that dies
// mid-hour can never silently drop the rows it had not reached.
//
// This package writes chunks; no scan lives here. Both layouts of an hour
// are read through internal/chunk's day reader — by
// dataflow.ClientEventFormat, which builds tuples from each file's batch
// and prunes chunks on their zone maps, by the batch folds behind
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
// chunks. Chunk files without the completion marker — a seal that died
// mid-hour — do not count: the hour keeps scanning through its row files
// until a re-seal finishes the job.
func HasColumnar(fs *hdfs.FS, dir string) bool {
	return chunk.Sealed(fs, dir)
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
	if chunkRows <= 0 {
		chunkRows = DefaultChunkRows
	}
	dir := warehouse.HourDir(category, hour)
	if !fs.Exists(dir) || HasColumnar(fs, dir) {
		return 0, nil
	}
	if err := removeTornSeal(fs, dir); err != nil {
		return 0, err
	}
	t0 := time.Now()
	var (
		b      chunk.Builder
		chunks int
	)
	flush := func() error {
		rows := b.Rows()
		if rows == 0 {
			return nil
		}
		written, err := b.Flush(fs, dir, chunks)
		if err != nil {
			return err
		}
		tmSealChunks.Inc()
		tmSealRows.Add(int64(rows))
		tmSealBytes.Add(int64(written))
		chunks++
		return nil
	}
	// Each row goes from the wire to the column accumulators: one header
	// walk over the record, no ClientEvent in between.
	err := warehouse.ScanHourRecords(fs, category, hour, func(path string, rec []byte) error {
		if err := b.AddRecord(rec); err != nil {
			return fmt.Errorf("warehouse: %s: %w", path, err)
		}
		if b.Rows() >= chunkRows {
			return flush()
		}
		return nil
	})
	if err != nil {
		return chunks, err
	}
	if err := flush(); err != nil {
		return chunks, err
	}
	if err := chunk.WriteSealed(fs, dir, chunks); err != nil {
		return chunks, err
	}
	tmSealHourNs.ObserveSince(t0)
	return chunks, nil
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
// directories are disjoint, so the chunk files each worker writes are
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
