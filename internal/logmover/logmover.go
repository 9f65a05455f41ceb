// Package logmover implements the pipeline stage that copies logs from the
// per-datacenter staging clusters into the main data warehouse (§2).
//
// For each category-hour the mover:
//
//  1. waits until every datacenter has sealed the hour (the _SEALED marker
//     written after all aggregators flushed);
//  2. applies sanity checks — each staging file must be a well-formed
//     gzipped record stream: it is inflated end to end, gzip verifies the
//     CRC-32 and length of every member, and every record frame is walked
//     to a clean boundary; corrupt files fail the move rather than
//     silently losing data. The same pass seals a client-events hour: each
//     record the walk accepts goes on into a columnar.Sealer, whose column
//     chunks and _col-SEALED marker are all the hour publishes, so the
//     hour is inflated once on its way in, is columnar from the moment it
//     is published, and is stored once. A record the chunk encoder rejects
//     costs the hour its columns, never its rows: it is published as row
//     files instead;
//  3. for an hour that does not seal — another category, or a rejected
//     record — merges the many small per-aggregator files into a few big
//     warehouse files. A gzip file is a concatenation of gzip members, so
//     a verified staging file's compressed bytes are appended to the
//     merged part as they are, and each member keeps its own trailer, so
//     later damage in the warehouse is detected per member. Only a
//     Transform hook, whose records really do change, re-compresses. The
//     verified files (or the transformed records) are held in memory until
//     the seal has succeeded or failed, so a sealed hour never writes a
//     row file;
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
	// FilesOut and BytesOut count what the hour published: its column
	// files and marker when it sealed, its merged row files when not.
	FilesOut int
	Records  int64
	// Dropped counts records removed by the Transform hook.
	Dropped     int64
	BytesIn     int64
	BytesOut    int64
	Datacenters []string
}

// Mover copies sealed staging hours into the warehouse.
type Mover struct {
	Warehouse *hdfs.FS
	Sources   []Source
	// TargetFileBytes is the approximate uncompressed size of each merged
	// row file of an hour that does not seal ("merging many small files
	// into a few big ones", §2).
	// Without a Transform a part is rolled at the first staging-file
	// boundary at or past the target — a staging file is never split —
	// with one, at the first record.
	TargetFileBytes int64
	// Transform, when set, rewrites each record on its way into the
	// warehouse — §2's "sanity checks and transformations". Returning nil
	// drops the record (counted in the audit); a typical transform is the
	// §3.2 anonymization policy. Errors abort the move.
	Transform func(category string, rec []byte) ([]byte, error)
	// Clock stamps audit records; nil uses time.Now.
	Clock func() time.Time

	audits []AuditRecord
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
// column chunks alone. On a move error the warehouse is untouched. A seal
// error comes back after the hour was published and audited as rows.
func (m *Mover) MoveHour(category string, hour time.Time) (AuditRecord, error) {
	rec, sealErr, err := m.moveHour(category, hour)
	if err != nil {
		return rec, err
	}
	return rec, sealErr
}

// moveHour publishes one hour. err is a failed move, which publishes
// nothing; sealErr is a record the columnar seal rejected, which publishes
// the hour as rows, without columns.
func (m *Mover) moveHour(category string, hour time.Time) (rec AuditRecord, sealErr, err error) {
	started := time.Now()
	rec = AuditRecord{Category: category, Hour: hour.UTC().Truncate(time.Hour), Started: m.Clock()}
	destDir := warehouse.HourDir(category, hour)
	if m.Warehouse.Exists(destDir) {
		return rec, nil, fmt.Errorf("%w: %s", ErrAlreadyMoved, destDir)
	}
	if !m.HourSealed(category, hour) {
		return rec, nil, fmt.Errorf("%w: %s %s", ErrHourIncomplete, category, warehouse.HourPath(hour))
	}

	tmpDir := fmt.Sprintf("%s/mover/%s/%s", warehouse.TmpRoot, category, warehouse.HourPath(hour))
	// A previous failed attempt may have left debris; start clean.
	if m.Warehouse.Exists(tmpDir) {
		if err := m.Warehouse.Delete(tmpDir, true); err != nil {
			return rec, nil, err
		}
	}

	// Only the unified category stores client events, the rows a chunk
	// holds.
	var sealer *columnar.Sealer
	if category == events.Category {
		sealer = columnar.NewSealer(m.Warehouse, tmpDir, columnar.DefaultChunkRows)
	}
	// The hour's rows are held until the seal has its say: an hour that
	// seals publishes its chunks alone, so its rows are never written.
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
			return rec, nil, err
		}
		dcHadData := false
		for _, fi := range infos {
			if fi.Path == srcDir+"/"+warehouse.SealedMarker {
				toDelete = append(toDelete, consumed{src.FS, fi.Path})
				continue
			}
			data, err := src.FS.ReadFile(fi.Path)
			if err != nil {
				return rec, nil, err
			}
			// seal hands a record to the sealer. A rejection is only kept:
			// the record may come from a member whose trailer has not been
			// checked yet, and only the file's own check tells damage from
			// a record the chunk encoder cannot hold.
			var seal func(r []byte)
			if sealer != nil {
				path, dc := fi.Path, src.Datacenter
				seal = func(r []byte) {
					if sealErr == nil {
						if err := sealer.Add(r); err != nil {
							sealErr = fmt.Errorf("logmover: %s published without columns: %s from %s: %w", destDir, path, dc, err)
						}
					}
				}
			}
			var n int64
			if m.Transform == nil {
				// The whole file passes its sanity check before it is held
				// for a splice.
				var raw int64
				n, raw, err = recordio.VerifyGzipFile(data, seal)
				if err == nil && n > 0 {
					rows.files = append(rows.files, data)
					rows.raw = append(rows.raw, raw)
				}
			} else {
				// Sanity check + transform in one scan; the transformed
				// records are held, and re-encoded only if they publish.
				err = recordio.ScanGzipFile(data, func(r []byte) error {
					out, terr := m.Transform(category, r)
					if terr != nil {
						return terr
					}
					if out == nil {
						rec.Dropped++ // not counted as moved
						return nil
					}
					n++
					if seal != nil {
						seal(out)
					}
					rows.recs = append(rows.recs, out...)
					rows.ends = append(rows.ends, len(rows.recs))
					return nil
				})
			}
			if err != nil {
				return rec, nil, fmt.Errorf("%w: %s from %s: %v", ErrCorruptFile, fi.Path, src.Datacenter, err)
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
	sealed := false
	if sealer != nil && rec.Records > 0 && sealErr == nil {
		if _, err := sealer.Close(); err != nil {
			sealErr = fmt.Errorf("logmover: %s published without columns: %w", destDir, err)
		} else {
			sealed = true
		}
	}
	if sealErr != nil {
		if err := sealer.Discard(); err != nil {
			return rec, nil, err
		}
	}
	if sealed {
		rec.FilesOut, rec.BytesOut, err = published(m.Warehouse, tmpDir)
	} else {
		rec.FilesOut, rec.BytesOut, err = rows.write(newMerger(m.Warehouse, tmpDir, m.TargetFileBytes))
	}
	if err != nil {
		return rec, nil, err
	}

	// The atomic slide: one rename publishes the whole hour.
	if rec.FilesOut > 0 {
		if err := m.Warehouse.Rename(tmpDir, destDir); err != nil {
			return rec, nil, err
		}
	} else if err := m.Warehouse.MkdirAll(destDir); err != nil {
		return rec, nil, err
	}

	// Source files are consumed only after the hour is published.
	for _, c := range toDelete {
		if err := c.fs.Delete(c.path, false); err != nil && !errors.Is(err, hdfs.ErrNotFound) {
			return rec, nil, err
		}
	}
	m.observeMove(rec, sealed, started)
	rec.Finished = m.Clock()
	m.audits = append(m.audits, rec)
	return rec, sealErr, nil
}

// MoveAllSealed scans staging for sealed category-hours and moves each one,
// returning the audit records of successful moves. Categories are
// discovered from the staging directory trees. A move error stops the pass;
// a seal error does not: every remaining hour still moves, and the first
// seal error comes back once they have.
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
	var firstSealErr error
	for _, ch := range order {
		if !m.HourSealed(ch.category, ch.hour) {
			continue
		}
		if m.Warehouse.Exists(warehouse.HourDir(ch.category, ch.hour)) {
			continue
		}
		rec, sealErr, err := m.moveHour(ch.category, ch.hour)
		if err != nil {
			return recs, err
		}
		recs = append(recs, rec)
		if firstSealErr == nil {
			firstSealErr = sealErr
		}
	}
	return recs, firstSealErr
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

// heldRows is what an hour publishes as row files if it does not seal:
// the verified staging images, each with its raw payload bytes, spliced
// as they are; or, with a Transform, the records it returned, back to back
// in recs, the i-th ending at ends[i].
type heldRows struct {
	files [][]byte
	raw   []int64
	recs  []byte
	ends  []int
}

// write merges the held rows into parts and returns their count and bytes.
func (h *heldRows) write(mg *merger) (int, int64, error) {
	for i, data := range h.files {
		if err := mg.splice(data, h.raw[i]); err != nil {
			return 0, 0, err
		}
	}
	start := 0
	for _, end := range h.ends {
		if err := mg.append(h.recs[start:end]); err != nil {
			return 0, 0, err
		}
		start = end
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
// a new part once the current one holds target raw payload bytes. A move
// drives it through splice or through append, never both.
type merger struct {
	fs      *hdfs.FS
	dir     string
	target  int64
	part    bytes.Buffer         // compressed bytes of the part being built
	w       *recordio.GzipWriter // append's open gzip member over part
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

// append re-encodes one record into the current part.
func (m *merger) append(rec []byte) error {
	if m.w == nil {
		m.w = recordio.NewGzipWriter(&m.part)
	}
	if err := m.w.Append(rec); err != nil {
		return err
	}
	m.raw += int64(len(rec))
	if m.raw >= m.target {
		return m.roll()
	}
	return nil
}

func (m *merger) roll() error {
	if m.w != nil {
		if err := m.w.Close(); err != nil {
			return err
		}
		m.w = nil
	}
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
