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
//     silently losing data;
//  3. merges the many small per-aggregator files into a few big warehouse
//     files. A gzip file is a concatenation of gzip members, so a verified
//     staging file's compressed bytes are appended to the merged part as
//     they are — the aggregator's deflate is the only one an event pays on
//     its way in, and each member keeps its own trailer, so later damage
//     in the warehouse is detected per member. Only a Transform hook, whose
//     records really do change, decodes and re-compresses;
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
	// warehouse file ("merging many small files into a few big ones", §2).
	// Without a Transform a part is rolled at the first staging-file
	// boundary at or past the target — a staging file is never split —
	// with one, at the first record.
	TargetFileBytes int64
	// Transform, when set, rewrites each record on its way into the
	// warehouse — §2's "sanity checks and transformations". Returning nil
	// drops the record (counted in the audit); a typical transform is the
	// §3.2 anonymization policy. Errors abort the move.
	Transform func(category string, rec []byte) ([]byte, error)
	// SealColumnar re-encodes each client-events hour into column chunks
	// (internal/columnar) right after it is published, so batch queries
	// over the hour get zone-map pruning and projection pushdown from the
	// moment it lands. Other categories are unaffected: sealing decodes
	// events.ClientEvent, which only the unified category stores.
	SealColumnar bool
	// SealParallelism caps the workers of the columnar sealing pass that
	// MoveAllSealed runs after publishing its hours: moves stay ordered
	// and sequential (the rename is the correctness point), but the
	// CPU-bound re-encode of the published hours fans out. <= 0 means
	// runtime.GOMAXPROCS(0); 1 seals hour by hour. MoveHour always seals
	// its single hour inline.
	SealParallelism int
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
// the warehouse and atomically publishes it. On any error the warehouse is
// untouched.
func (m *Mover) MoveHour(category string, hour time.Time) (AuditRecord, error) {
	return m.moveHour(category, hour, true)
}

// moveHour publishes one hour; sealInline controls whether the columnar
// re-encode happens here (MoveHour) or is left to the caller's deferred
// sealing pass (MoveAllSealed, which fans the seals out after all moves).
func (m *Mover) moveHour(category string, hour time.Time, sealInline bool) (AuditRecord, error) {
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

	merger := newMerger(m.Warehouse, tmpDir, m.TargetFileBytes)
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
			if m.Transform == nil {
				// Splice: the whole file passes its sanity check before
				// one compressed byte of it joins a merged part.
				var raw int64
				n, raw, err = recordio.VerifyGzipFile(data)
				if err == nil && n > 0 {
					err = merger.splice(data, raw)
				}
			} else {
				// Sanity check + transform + re-encode in one scan.
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
					return merger.append(out)
				})
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
	filesOut, bytesOut, err := merger.close()
	if err != nil {
		return rec, err
	}
	rec.FilesOut = filesOut
	rec.BytesOut = bytesOut

	// The atomic slide: one rename publishes the whole hour.
	if filesOut > 0 {
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
	m.observeMove(rec, started)
	if sealInline && m.needsSeal(category, filesOut) {
		if _, err := columnar.SealHour(m.Warehouse, category, hour); err != nil {
			return rec, err
		}
	}
	rec.Finished = m.Clock()
	m.audits = append(m.audits, rec)
	return rec, nil
}

// MoveAllSealed scans staging for sealed category-hours and moves each one,
// returning the audit records of successful moves. Categories are
// discovered from the staging directory trees.
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
	var toSeal []time.Time
	for _, ch := range order {
		if !m.HourSealed(ch.category, ch.hour) {
			continue
		}
		if m.Warehouse.Exists(warehouse.HourDir(ch.category, ch.hour)) {
			continue
		}
		rec, err := m.moveHour(ch.category, ch.hour, false)
		if err != nil {
			return recs, err
		}
		recs = append(recs, rec)
		if m.needsSeal(ch.category, rec.FilesOut) {
			toSeal = append(toSeal, ch.hour)
		}
	}
	// Sealing is deferred behind the moves and fanned out: the hours are
	// already published (readable as row files), so the CPU-bound
	// re-encode can run wide without delaying any hour's availability. A
	// seal failure leaves its hour row-only — the reader falls back — and
	// surfaces here after every move has landed.
	if _, err := columnar.SealHoursParallel(m.Warehouse, events.Category, toSeal, m.SealParallelism); err != nil {
		return recs, err
	}
	return recs, nil
}

// needsSeal reports whether a just-published hour should be columnar
// sealed: the feature is on, the category actually stores ClientEvents,
// and the hour has data.
func (m *Mover) needsSeal(category string, filesOut int) bool {
	return m.SealColumnar && category == events.Category && filesOut > 0
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
