package dataflow

import (
	"slices"
	"sort"
	"strings"
	"time"

	"unilog/internal/chunk"
	"unilog/internal/events"
	"unilog/internal/hdfs"
	"unilog/internal/session"
	"unilog/internal/thrift"
	"unilog/internal/warehouse"
)

// walkSplits lists every data file under dir as one split, skipping the
// seal markers and column chunks that live beside the data.
func walkSplits(fs *hdfs.FS, dir string) ([]Split, error) {
	infos, err := fs.Walk(dir)
	if err != nil {
		return nil, err
	}
	splits := make([]Split, 0, len(infos))
	for _, fi := range infos {
		if chunk.IsAuxiliary(fi.Path) {
			continue
		}
		splits = append(splits, Split{Path: fi.Path, Size: fi.Size})
	}
	return splits, nil
}

// ClientEventFormat reads warehouse client events. Its schema is the
// flattened Table 2 structure plus the derived logged_in flag. Its splits
// are the files chunk.HourFiles lists: every chunk a sealed hour's manifest
// lists, every row file of an hour that is not sealed. The day reader opens
// each split as one chunk.Batch (chunk.LoadChunk under the split's Meta,
// chunk.ReadRowFile), and the tuples are built from that batch, so both
// layouts deliver the same relation and an hour reads correctly whether or
// not its seal has run.
//
// The zero value is a full scan. Specialized to a Selection
// (LoadDirsSelective), the format reads only the columns the projection and
// the predicate reference and builds only the projected columns of the rows
// that pass. A chunk is read in this order, each step able to end it:
//
//  1. the manifest's zone map, at planning: Splits drops a chunk the
//     predicate excludes, which no scan worker then sees and no byte of
//     whose image is read (columnar.chunks.pruned, counted each time the
//     planned scan runs);
//  2. with a name pattern, its name section alone, whose sorted dictionary
//     is matched only over the range of entries that start with the
//     pattern's literal head (a binary search; Pattern.MatchesString
//     decides inside it), and a chunk with no matching entry reads nothing
//     more (columnar.chunks.dict_pruned, a share of columnar.chunks.scanned);
//  3. the rest of the columns: the projection's and the window's.
//
// A row file is walked once for every column, and its dictionary, in
// first-seen order, is matched entry by entry. A message without a name
// field reads as ":::::", the zero EventName's string, which no pattern
// matches; an invalid name, empty included, fails the split as
// ClientEvent.Decode fails on it.
type ClientEventFormat struct {
	sel    Selection
	pat    events.Pattern // parsed sel.NamePattern
	prefix string         // the pattern's literal head, for the zone maps; "" = none
}

// ClientEventSchema is the schema produced by ClientEventFormat.
var ClientEventSchema = Schema{"initiator", "name", "user_id", "session_id", "ip", "timestamp", "logged_in", "details"}

// pushdown specializes the format to sel. A malformed pattern or a column
// outside ClientEventSchema returns ok == false, and the planner's row
// operators report the error.
func pushdown(sel Selection) (f ClientEventFormat, ok bool) {
	f.sel = sel
	for _, c := range sel.Columns {
		if _, err := ClientEventSchema.Index(c); err != nil {
			return f, false
		}
	}
	if sel.NamePattern != "" {
		pat, err := events.ParsePattern(sel.NamePattern)
		if err != nil {
			return f, false
		}
		f.pat = pat
		f.prefix, _ = pat.PrunePrefix()
	}
	return f, true
}

// Schema implements InputFormat: the projected columns, or the full schema
// when the selection does not project.
func (f ClientEventFormat) Schema() Schema {
	if f.sel.Columns == nil {
		return ClientEventSchema
	}
	return Schema(f.sel.Columns)
}

// Splits implements InputFormat: chunk.HourFiles, the day reader's
// listing, less the chunks whose zone maps prove the selection keeps none
// of their rows.
func (f ClientEventFormat) Splits(fs *hdfs.FS, dir string) ([]Split, error) {
	splits, _, err := f.plan(fs, dir)
	return splits, err
}

// plan is Splits, with the number of chunks it pruned, which a scan
// counts in columnar.chunks.pruned each time it runs.
func (f ClientEventFormat) plan(fs *hdfs.FS, dir string) ([]Split, int, error) {
	chunks, rows, err := chunk.HourFiles(fs, dir)
	if err != nil {
		return nil, 0, err
	}
	splits := make([]Split, 0, len(chunks)+len(rows))
	pruned := 0
	for i := range chunks {
		m := &chunks[i]
		if f.prune(m) {
			pruned++
			continue
		}
		splits = append(splits, Split{Path: chunk.Path(dir, i), Size: m.Size(), Meta: m})
	}
	for _, fi := range rows {
		splits = append(splits, Split{Path: fi.Path, Size: fi.Size})
	}
	return splits, pruned, nil
}

// ReadSplit implements InputFormat: the split's batch, filtered on the
// selection's pattern and window, as tuples of the projected columns. A
// damaged file, a message the header walk cannot read and an invalid name
// each fail the split with its path. A chunk is read in the order the
// type's comment gives.
func (f ClientEventFormat) ReadSplit(fs *hdfs.FS, s Split, emit func(Tuple) error) error {
	byName := f.sel.NamePattern != ""
	byTime := f.sel.TimeMin != 0 || f.sel.TimeMax != 0
	need := f.need()
	if byName {
		need |= chunk.Name
	}
	if byTime {
		need |= chunk.Timestamp
	}
	// A chunk's dictionary is sorted (chunk.decodeDict checks it) and is
	// read first; a row file's is in first-seen order and comes with the
	// walk of every need column.
	sorted := s.Meta != nil
	load := need
	if byName && sorted {
		load = chunk.Name
	}
	b, err := f.open(fs, s, load)
	if err != nil {
		return err
	}
	defer b.Release()
	var nameOK []bool
	if byName {
		if nameOK = f.matchNames(b.Name.Dict, sorted); nameOK == nil {
			if sorted {
				tmChunksDictPruned.Inc()
			}
			return nil
		}
		if err := b.Widen(need); err != nil {
			return err
		}
	}
	out := f.Schema()
	cols := make([]columnReader, len(out))
	for i, col := range out {
		cols[i] = readerOf(&b.Columns, chunk.ColumnOf(col))
	}
	for row := 0; row < b.Rows; row++ {
		if byName && !nameOK[b.Name.IDs[row]] {
			continue
		}
		if byTime && !f.inWindow(b.Timestamp[row]) {
			continue
		}
		t := make(Tuple, len(cols))
		for i, read := range cols {
			t[i] = read(row)
		}
		if err := emit(t); err != nil {
			return err
		}
	}
	return nil
}

// ReadBatch hands one split to fn as one batch of the projected columns,
// with no tuple built. The batch holds every row of the split: the
// selection's predicate, if it has one, is left to the caller. It is
// released when fn returns, so fn must not keep it.
func (f ClientEventFormat) ReadBatch(fs *hdfs.FS, s Split, fn func(*chunk.Batch) error) error {
	b, err := f.open(fs, s, f.need())
	if err != nil {
		return err
	}
	defer b.Release()
	return fn(b)
}

// need is the column set the selection projects.
func (f ClientEventFormat) need() chunk.Set {
	var need chunk.Set
	for _, col := range f.Schema() {
		need |= chunk.ColumnOf(col)
	}
	return need
}

// open reads the need columns of one split through the day reader: a row
// file, or a chunk under the zone map its split carries.
func (f ClientEventFormat) open(fs *hdfs.FS, s Split, need chunk.Set) (*chunk.Batch, error) {
	if s.Meta == nil {
		return chunk.ReadRowFile(fs, s.Path, need)
	}
	tmChunksScanned.Inc()
	b, err := chunk.LoadChunk(fs, s.Path, *s.Meta, need)
	if err != nil {
		return nil, err
	}
	tmRowsRead.Add(int64(s.Meta.Rows))
	return b, nil
}

// prune reports whether a chunk's zone map proves none of its rows can
// match. The names sharing the pattern's literal head as a string prefix
// are one contiguous range, a superset of the componentwise match: a chunk
// whose names all sort before it, or all after it, holds none of them.
func (f ClientEventFormat) prune(m *chunk.Meta) bool {
	if f.sel.TimeMin != 0 && m.MaxTs < f.sel.TimeMin || f.sel.TimeMax != 0 && m.MinTs >= f.sel.TimeMax {
		return true
	}
	p := f.prefix
	return p != "" && (m.MaxName < p || m.MinName > p && !strings.HasPrefix(m.MinName, p))
}

// matchNames evaluates the pattern once per dictionary entry: nameOK[id]
// reports whether entry id matches, and nameOK is nil when none does. Every
// name the pattern matches starts with its literal head, so in a sorted
// dictionary only the entries of the range that starts with it, found by
// binary search, are matched; an entry outside the range never is.
func (f ClientEventFormat) matchNames(dict []string, sorted bool) (nameOK []bool) {
	lo, hi := 0, len(dict)
	if p := f.prefix; sorted && p != "" {
		lo, _ = slices.BinarySearch(dict, p)
		hi = lo + sort.Search(hi-lo, func(i int) bool { return !strings.HasPrefix(dict[lo+i], p) })
	}
	for id := lo; id < hi; id++ {
		if f.pat.MatchesString(dict[id]) {
			if nameOK == nil {
				nameOK = make([]bool, len(dict))
			}
			nameOK[id] = true
		}
	}
	return nameOK
}

// inWindow applies the selection's time window to one row.
func (f ClientEventFormat) inWindow(ts int64) bool {
	return (f.sel.TimeMin == 0 || ts >= f.sel.TimeMin) && (f.sel.TimeMax == 0 || ts < f.sel.TimeMax)
}

// columnReader renders one row of a batch column as its tuple value.
type columnReader func(row int) any

// readerOf builds the reader of one column of a batch.
func readerOf(cc *chunk.Columns, col chunk.Set) columnReader {
	switch col {
	case chunk.Initiator:
		return func(row int) any { return events.Initiator(cc.Initiator[row]).String() }
	case chunk.Name:
		return dictReader(cc.Name)
	case chunk.UserID:
		return func(row int) any { return cc.UserID[row] }
	case chunk.SessionID:
		return dictReader(cc.SessionID)
	case chunk.IP:
		return dictReader(cc.IP)
	case chunk.Timestamp:
		return func(row int) any { return cc.Timestamp[row] }
	case chunk.LoggedIn:
		return func(row int) any { return cc.LoggedIn[row] == 1 }
	case chunk.Details:
		return func(row int) any { return cc.Details.At(row) }
	}
	panic("dataflow: reader of unknown column")
}

// dictReader boxes each dictionary entry into an any the first time a row
// uses it and hands that same any to every later row with the entry's ID:
// one allocation per distinct value per batch rather than one per row,
// and none for the entries a selective scan never emits.
func dictReader(d chunk.DictColumn) columnReader {
	boxed := make([]any, len(d.Dict))
	return func(row int) any {
		id := d.IDs[row]
		if boxed[id] == nil {
			boxed[id] = d.Dict[id]
		}
		return boxed[id]
	}
}

// LoadClientEventsDay scans one full day of raw client events — the
// opening of every raw-log Pig script in §5. A sealed hour is read from its
// chunks, an hour not sealed from its row files. A Project on the result
// folds into the scan.
func (j *Job) LoadClientEventsDay(day time.Time) (*Dataset, error) {
	return j.LoadDirsSelective(warehouse.HourDirs(j.FS, events.Category, day), ClientEventFormat{}, Selection{})
}

// SessionSequenceFormat decodes materialized session-sequence partitions —
// the paper's SessionSequencesLoader (§5.2).
type SessionSequenceFormat struct{}

// SessionSchema is the schema produced by SessionSequenceFormat: the §4.2
// materialized relation.
var SessionSchema = Schema{"user_id", "session_id", "ip", "sequence", "duration", "start"}

// Schema implements InputFormat.
func (SessionSequenceFormat) Schema() Schema { return SessionSchema }

// Splits implements InputFormat.
func (SessionSequenceFormat) Splits(fs *hdfs.FS, dir string) ([]Split, error) {
	return walkSplits(fs, dir)
}

// ReadSplit implements InputFormat.
func (SessionSequenceFormat) ReadSplit(fs *hdfs.FS, s Split, emit func(Tuple) error) error {
	return chunk.ScanFileRecords(fs, s.Path, func(rec []byte) error {
		var r session.Record
		if err := thrift.DecodeCompact(rec, &r); err != nil {
			return err
		}
		return emit(Tuple{r.UserID, r.SessionID, r.IP, r.Sequence, int64(r.Duration), r.Start})
	})
}

// LoadSessionSequencesDay loads one day of materialized session sequences.
func (j *Job) LoadSessionSequencesDay(day time.Time) (*Dataset, error) {
	return j.Load(warehouse.SessionDayDir(day), SessionSequenceFormat{})
}

// RawRecordFormat decodes each framed record with Decode into a tuple of
// the Columns schema; the legacy-log formats are built on it.
type RawRecordFormat struct {
	// Decode transforms one raw record; returning nil drops it.
	Decode func(rec []byte) Tuple
	// Columns names the produced schema.
	Columns Schema
}

// Schema implements InputFormat.
func (f RawRecordFormat) Schema() Schema { return f.Columns }

// Splits implements InputFormat.
func (f RawRecordFormat) Splits(fs *hdfs.FS, dir string) ([]Split, error) {
	return walkSplits(fs, dir)
}

// ReadSplit implements InputFormat.
func (f RawRecordFormat) ReadSplit(fs *hdfs.FS, s Split, emit func(Tuple) error) error {
	return chunk.ScanFileRecords(fs, s.Path, func(rec []byte) error {
		if t := f.Decode(rec); t != nil {
			return emit(t)
		}
		return nil
	})
}
