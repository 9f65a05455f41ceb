// Package logmover implements the pipeline stage that copies logs from the
// per-datacenter staging clusters into the main data warehouse (§2).
//
// For each category-hour the mover:
//
//  1. waits until every datacenter has sealed the hour (the _SEALED marker
//     written after all aggregators flushed);
//  2. applies sanity checks, so corrupt files fail the move rather than
//     silently losing data. A client-events hour is staged as chunk images
//     (scribe): each is read with the chunk reader's checks, damage naming
//     the file and the column, and its rows, in source, file and row
//     order, are re-chunked into columnar.DefaultChunkRows chunks
//     (columnar.Sealer.AddColumns), byte for byte what a seal of the
//     staged records writes, with no inflate and no record walk; a
//     details value is merged in the typed form its staged column holds
//     it — a number, hex bytes, or text — and never rendered to text and
//     parsed again. Those
//     chunks, one image file each in the layout the aggregators staged,
//     and their _col-SEALED marker are all the hour publishes. Any
//     other category is staged as gzipped record streams: every member is
//     inflated and its CRC-32 and length checked, and every record frame
//     walked to a clean boundary;
//  3. merges such an hour's many small per-aggregator files into a few big
//     warehouse files. A gzip file is a concatenation of gzip members, so
//     a verified staging file's compressed bytes are appended to the
//     merged part as they are, each member keeping its own trailer: no
//     hour is re-compressed. A failed move writes nothing and leaves
//     staging for a retry;
//  4. atomically slides the hour into /logs/<category>/YYYY/MM/DD/HH/ with
//     a single directory rename;
//  5. records an audit trace of what moved, how many records, and from
//     where.
//
// Within a merged file, record order is the concatenation order of staging
// files; across files it is unspecified — exactly the "partial
// chronological order" the paper warns downstream analyses about.
package logmover

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"unilog/internal/chunk"
	"unilog/internal/columnar"
	"unilog/internal/events"
	"unilog/internal/hdfs"
	"unilog/internal/recordio"
	"unilog/internal/warehouse"
)

// Errors reported by the mover.
var (
	// ErrHourIncomplete means at least one datacenter has not sealed the
	// hour yet; the move is retried later.
	ErrHourIncomplete = errors.New("logmover: hour not sealed by all datacenters")
	// ErrAlreadyMoved means the warehouse already contains this hour.
	ErrAlreadyMoved = errors.New("logmover: hour already present in warehouse")
	// ErrCorruptFile means a staging file failed its sanity check.
	ErrCorruptFile = errors.New("logmover: corrupt staging file")
)

// Source is one datacenter's staging cluster.
type Source struct {
	Datacenter string
	FS         *hdfs.FS
}

// AuditRecord is the execution trace of one category-hour move.
type AuditRecord struct {
	Category string
	Hour     time.Time
	Started  time.Time
	Finished time.Time
	FilesIn  int
	// FilesOut and BytesOut count what the hour published: its chunk
	// images and marker when it sealed, its merged row files when not.
	FilesOut    int
	Records     int64
	BytesIn     int64
	BytesOut    int64
	Datacenters []string
}

// Mover copies sealed staging hours into the warehouse.
type Mover struct {
	Warehouse *hdfs.FS
	Sources   []Source
	// TargetFileBytes is the approximate uncompressed size of each merged
	// row file of an hour of another category than client events
	// ("merging many small files into a few big ones", §2). A part is
	// rolled at the first staging-file boundary at or past the target — a
	// staging file is never split.
	TargetFileBytes int64
	// Clock stamps audit records; nil uses time.Now.
	Clock func() time.Time

	audits []AuditRecord
	// sealer seals every client-events hour in turn, Reset for each, so
	// an hour's chunk builder starts from the buffers the last one grew.
	sealer *columnar.Sealer
}

// New returns a Mover targeting the given warehouse filesystem.
func New(wh *hdfs.FS, sources ...Source) *Mover {
	return &Mover{
		Warehouse:       wh,
		Sources:         sources,
		TargetFileBytes: 4 << 20,
		Clock:           time.Now,
	}
}

// Audits returns the execution traces of completed moves.
func (m *Mover) Audits() []AuditRecord { return m.audits }

// HourSealed reports whether every datacenter has sealed the category-hour.
func (m *Mover) HourSealed(category string, hour time.Time) bool {
	dir := warehouse.StagingHourDir(category, hour)
	for _, src := range m.Sources {
		if !src.FS.Exists(dir + "/" + warehouse.SealedMarker) {
			return false
		}
	}
	return true
}

// MoveHour merges one sealed category-hour from all staging clusters into
// the warehouse and atomically publishes it, a client-events hour as its
// column chunks alone. An hour every datacenter sealed empty publishes an
// empty directory: the hour's directory is the record that it moved, which
// MoveAllSealed's skip and ErrAlreadyMoved read when a datacenter seals the
// hour again, so a moved hour is never moved, or audited, twice. On an
// error the warehouse is untouched and the staging files stay for a retry.
func (m *Mover) MoveHour(category string, hour time.Time) (AuditRecord, error) {
	started := time.Now()
	rec := AuditRecord{Category: category, Hour: hour.UTC().Truncate(time.Hour), Started: m.Clock()}
	destDir := warehouse.HourDir(category, hour)
	if m.Warehouse.Exists(destDir) {
		return rec, fmt.Errorf("%w: %s", ErrAlreadyMoved, destDir)
	}
	if !m.HourSealed(category, hour) {
		return rec, fmt.Errorf("%w: %s %s", ErrHourIncomplete, category, warehouse.HourPath(hour))
	}

	tmpDir := fmt.Sprintf("%s/mover/%s/%s", warehouse.TmpRoot, category, warehouse.HourPath(hour))
	// A previous failed attempt may have left debris; start clean.
	if m.Warehouse.Exists(tmpDir) {
		if err := m.Warehouse.Delete(tmpDir, true); err != nil {
			return rec, err
		}
	}

	// Only the unified category stores client events, staged as chunk
	// images whose rows the hour's chunks are cut from.
	var sealer *columnar.Sealer
	if category == events.Category {
		if m.sealer == nil {
			m.sealer = columnar.NewSealer(m.Warehouse, tmpDir, columnar.DefaultChunkRows)
		}
		sealer = m.sealer
		sealer.Reset(m.Warehouse, tmpDir)
	}
	// Any other hour's rows are held until every file has passed its
	// check, so a failed move writes no row file.
	var rows heldRows
	srcDir := warehouse.StagingHourDir(category, hour)
	type consumed struct {
		fs   *hdfs.FS
		path string
	}
	var toDelete []consumed
	for _, src := range m.Sources {
		infos, err := src.FS.Walk(srcDir)
		if errors.Is(err, hdfs.ErrNotFound) {
			continue
		}
		if err != nil {
			return rec, err
		}
		dcHadData := false
		for _, fi := range infos {
			if fi.Path == srcDir+"/"+warehouse.SealedMarker {
				toDelete = append(toDelete, consumed{src.FS, fi.Path})
				continue
			}
			data, err := src.FS.ReadFile(fi.Path)
			if err != nil {
				return rec, err
			}
			var n int64
			if sealer != nil {
				n, err = sealImage(sealer, fi.Path, data)
			} else {
				// The whole file passes its sanity check before it is held
				// for a splice.
				var raw int64
				n, raw, err = recordio.VerifyGzipFile(data)
				if err == nil && n > 0 {
					rows.files = append(rows.files, data)
					rows.raw = append(rows.raw, raw)
				}
			}
			if err != nil {
				return rec, fmt.Errorf("%w: %s from %s: %v", ErrCorruptFile, fi.Path, src.Datacenter, err)
			}
			rec.FilesIn++
			rec.Records += n
			rec.BytesIn += fi.Size
			dcHadData = true
			toDelete = append(toDelete, consumed{src.FS, fi.Path})
		}
		if dcHadData {
			rec.Datacenters = append(rec.Datacenters, src.Datacenter)
		}
	}
	// Chunks and marker go into the tmp directory: the rename below
	// publishes them whole, or not at all.
	sealed := sealer != nil && rec.Records > 0
	var err error
	if sealed {
		if _, err = sealer.Close(); err == nil {
			rec.FilesOut, rec.BytesOut, err = published(m.Warehouse, tmpDir)
		}
	} else {
		rec.FilesOut, rec.BytesOut, err = rows.write(newMerger(m.Warehouse, tmpDir, m.TargetFileBytes))
	}
	if err != nil {
		return rec, err
	}

	// The atomic slide: one rename publishes the whole hour, and an empty
	// hour still gets its directory, the record that it moved.
	if rec.FilesOut > 0 {
		if err := m.Warehouse.Rename(tmpDir, destDir); err != nil {
			return rec, err
		}
	} else if err := m.Warehouse.MkdirAll(destDir); err != nil {
		return rec, err
	}

	// Source files are consumed only after the hour is published.
	for _, c := range toDelete {
		if err := c.fs.Delete(c.path, false); err != nil && !errors.Is(err, hdfs.ErrNotFound) {
			return rec, err
		}
	}
	observeMove(rec, sealed, started)
	rec.Finished = m.Clock()
	m.audits = append(m.audits, rec)
	return rec, nil
}

// sealImage reads one staged chunk image and re-chunks its rows, as they
// are, into the seal, returning how many went in.
func sealImage(s *columnar.Sealer, path string, data []byte) (int64, error) {
	b, err := chunk.ReadImage(path, data)
	if err != nil {
		return 0, err
	}
	defer b.Release()
	return int64(b.Rows), s.AddColumns(&b.Columns)
}

// MoveAllSealed scans staging for sealed category-hours and moves each one,
// returning the audit records of successful moves. Categories are
// discovered from the staging directory trees. A move error stops the pass.
func (m *Mover) MoveAllSealed() ([]AuditRecord, error) {
	type catHour struct {
		category string
		hour     time.Time
	}
	seen := make(map[catHour]bool)
	var order []catHour
	for _, src := range m.Sources {
		infos, err := src.FS.Walk(warehouse.StagingRoot)
		// A missing staging root means nothing staged yet; an unavailable
		// cluster defers its hours to a later pass (they cannot pass the
		// seal barrier this round anyway).
		if errors.Is(err, hdfs.ErrNotFound) || errors.Is(err, hdfs.ErrUnavailable) {
			continue
		}
		if err != nil {
			return nil, err
		}
		for _, fi := range infos {
			cat, hour, ok := parseStagingPath(fi.Path)
			if !ok {
				continue
			}
			ch := catHour{cat, hour}
			if !seen[ch] {
				seen[ch] = true
				order = append(order, ch)
			}
		}
	}
	var recs []AuditRecord
	for _, ch := range order {
		if !m.HourSealed(ch.category, ch.hour) {
			continue
		}
		if m.Warehouse.Exists(warehouse.HourDir(ch.category, ch.hour)) {
			// Moved before: the datacenters sealed it again. Its markers
			// are consumed, so no later pass walks them; anything staged
			// beside them stays where it is.
			if err := m.consumeMarkers(ch.category, ch.hour); err != nil {
				return recs, err
			}
			continue
		}
		rec, err := m.MoveHour(ch.category, ch.hour)
		if err != nil {
			return recs, err
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// consumeMarkers deletes every datacenter's seal marker of a category-hour.
func (m *Mover) consumeMarkers(category string, hour time.Time) error {
	marker := warehouse.StagingHourDir(category, hour) + "/" + warehouse.SealedMarker
	for _, src := range m.Sources {
		if err := src.FS.Delete(marker, false); err != nil && !errors.Is(err, hdfs.ErrNotFound) {
			return err
		}
	}
	return nil
}

// parseStagingPath extracts (category, hour) from
// /staging/<category>/YYYY/MM/DD/HH/<file>. The date components must be
// exactly what warehouse.HourPath writes for a real hour: anything else
// under the staging root is not the mover's to interpret.
func parseStagingPath(p string) (string, time.Time, bool) {
	// "", "staging", category, YYYY, MM, DD, HH, file
	parts := strings.SplitN(p, "/", 8)
	if len(parts) != 8 {
		return "", time.Time{}, false
	}
	var ymdh [4]int
	for i, s := range parts[3:7] {
		n, err := strconv.Atoi(s)
		// Atoi takes a sign; a digit in first place rules it out.
		if err != nil || s[0] < '0' || s[0] > '9' {
			return "", time.Time{}, false
		}
		ymdh[i] = n
	}
	hour := time.Date(ymdh[0], time.Month(ymdh[1]), ymdh[2], ymdh[3], 0, 0, 0, time.UTC)
	// time.Date normalises month 13 or hour 99 into a later date, and
	// HourPath pads to fixed widths: the round trip rejects every
	// out-of-range or mis-sized component, and any other root, at once.
	if warehouse.StagingHourDir(parts[2], hour)+"/"+parts[7] != p {
		return "", time.Time{}, false
	}
	return parts[2], hour, true
}

// heldRows is what an hour of any category but client events publishes,
// as row files: the verified staging files, each with its raw payload
// bytes, spliced as they are.
type heldRows struct {
	files [][]byte
	raw   []int64
}

// write merges the held rows into parts and returns their count and bytes.
func (h *heldRows) write(mg *merger) (int, int64, error) {
	for i, data := range h.files {
		if err := mg.splice(data, h.raw[i]); err != nil {
			return 0, 0, err
		}
	}
	return mg.close()
}

// published counts the files under dir and their bytes.
func published(fs *hdfs.FS, dir string) (int, int64, error) {
	infos, err := fs.Walk(dir)
	if err != nil {
		return 0, 0, err
	}
	var size int64
	for _, fi := range infos {
		size += fi.Size
	}
	return len(infos), size, nil
}

// merger builds one hour's warehouse parts in the tmp directory, rolling to
// a new part once the current one holds target raw payload bytes.
type merger struct {
	fs      *hdfs.FS
	dir     string
	target  int64
	part    bytes.Buffer // compressed bytes of the part being built
	raw     int64
	seq     int
	files   int
	outSize int64
}

func newMerger(fs *hdfs.FS, dir string, target int64) *merger {
	return &merger{fs: fs, dir: dir, target: target}
}

// splice appends a verified staging file — whole gzip members holding raw
// payload bytes of whole records — to the current part as it is.
func (m *merger) splice(members []byte, raw int64) error {
	m.part.Write(members)
	m.raw += raw
	if m.raw >= m.target {
		return m.roll()
	}
	return nil
}

func (m *merger) roll() error {
	if m.part.Len() == 0 {
		return nil
	}
	path := fmt.Sprintf("%s/part-%05d.gz", m.dir, m.seq)
	m.seq++
	if err := m.fs.WriteFile(path, m.part.Bytes()); err != nil {
		return err
	}
	m.files++
	m.outSize += int64(m.part.Len())
	m.part.Reset()
	m.raw = 0
	return nil
}

func (m *merger) close() (int, int64, error) {
	if err := m.roll(); err != nil {
		return 0, 0, err
	}
	return m.files, m.outSize, nil
}
