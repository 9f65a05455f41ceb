package columnar

import (
	"strings"
	"time"

	"unilog/internal/chunk"
	"unilog/internal/dataflow"
	"unilog/internal/events"
	"unilog/internal/hdfs"
	"unilog/internal/warehouse"
)

// EventsFormat is the columnar client-events InputFormat. The zero value
// is a full scan with the row-format schema; Pushdown specializes it to a
// Selection, after which splits whose zone maps exclude the predicate are
// pruned without opening a column file and only the referenced column
// streams are decoded.
//
// The format is hybrid per directory: an hour that has been sealed into
// chunks scans the chunk meta files, an hour that has not falls back to
// its row files, which dataflow.ClientEventFormat reads under the same
// selection — so a day where sealing is still in flight reads correctly
// either way.
type EventsFormat struct {
	sel dataflow.Selection
	pat events.Pattern // parsed sel.NamePattern; zero when none

	prefix    string // zone-map prune prefix of pat ("" = no name pruning)
	hasPrefix bool

	rows dataflow.InputFormat // the row-file reader pushed down to sel; nil = full scan
}

// Schema implements dataflow.InputFormat: the projected columns, or the
// full row schema when the selection does not project.
func (f EventsFormat) Schema() dataflow.Schema {
	if f.sel.Columns == nil {
		return dataflow.ClientEventSchema
	}
	return dataflow.Schema(f.sel.Columns)
}

// Pushdown implements dataflow.PushdownFormat: the whole selection is
// absorbed into the scan — chunk pruning plus an exact row-level residual
// filter inside ReadSplit, and the row reader pushed down to the same
// selection — so the planner has nothing left to apply. A selection the
// row reader cannot honor (a malformed pattern, a column outside the row
// schema) returns ok == false and the planner falls through to the row
// path, where the same selection fails or filters with the ordinary row
// operators.
func (f EventsFormat) Pushdown(sel dataflow.Selection) (dataflow.InputFormat, bool) {
	rows, ok := dataflow.ClientEventFormat{}.Pushdown(sel)
	if !ok {
		return f, false
	}
	nf := EventsFormat{sel: sel, rows: rows}
	if sel.NamePattern != "" {
		pat, err := events.ParsePattern(sel.NamePattern)
		if err != nil {
			return f, false
		}
		nf.pat = pat
		nf.prefix, nf.hasPrefix = pat.PrunePrefix()
	}
	return nf, true
}

// Splits implements dataflow.InputFormat: chunk meta files when the dir
// carries the _col-SEALED completion marker, row files when it does not.
// The sealed path enumerates chunks from the marker's count rather than
// by listing, so a chunk file that went missing after the seal surfaces
// as an error instead of silently shrinking the hour.
func (f EventsFormat) Splits(fs *hdfs.FS, dir string) ([]dataflow.Split, error) {
	if HasColumnar(fs, dir) {
		n, err := chunk.SealedChunks(fs, dir)
		if err != nil {
			return nil, err
		}
		splits := make([]dataflow.Split, 0, n)
		for i := 0; i < n; i++ {
			fi, err := fs.Stat(chunk.MetaPath(dir, i))
			if err != nil {
				return nil, err
			}
			splits = append(splits, dataflow.Split{Path: fi.Path, Size: fi.Size})
		}
		return splits, nil
	}
	infos, err := fs.Walk(dir)
	if err != nil {
		return nil, err
	}
	var splits []dataflow.Split
	for _, fi := range infos {
		if warehouse.IsAuxiliary(fi.Path) {
			continue
		}
		splits = append(splits, dataflow.Split{Path: fi.Path, Size: fi.Size})
	}
	return splits, nil
}

// ReadSplit implements dataflow.InputFormat, dispatching on the split
// kind: chunk meta files go through the zone-map/column-stream path, row
// files through dataflow.ClientEventFormat with the same selection.
func (f EventsFormat) ReadSplit(fs *hdfs.FS, s dataflow.Split, emit func(dataflow.Tuple) error) error {
	if strings.HasSuffix(s.Path, ".meta") {
		return f.readChunk(fs, s.Path, emit)
	}
	if f.rows == nil {
		return dataflow.ClientEventFormat{}.ReadSplit(fs, s, emit)
	}
	return f.rows.ReadSplit(fs, s, emit)
}

// outCols returns the emitted column order.
func (f EventsFormat) outCols() []string {
	if f.sel.Columns == nil {
		return dataflow.ClientEventSchema
	}
	return f.sel.Columns
}

// prune reports whether the zone map proves no row of the chunk can
// match. The name range test uses the pattern's literal head as a string
// prefix — a superset of the componentwise match, which is exactly what
// pruning is allowed to be, since survivors still pass the exact filter.
func (f EventsFormat) prune(m chunk.Meta) bool {
	if f.sel.TimeMin != 0 && m.MaxTs < f.sel.TimeMin {
		return true
	}
	if f.sel.TimeMax != 0 && m.MinTs >= f.sel.TimeMax {
		return true
	}
	if f.hasPrefix {
		if m.MaxName < f.prefix {
			return true
		}
		if up := prefixSuccessor(f.prefix); up != "" && m.MinName >= up {
			return true
		}
	}
	return false
}

// prefixSuccessor returns the smallest string greater than every string
// with the given prefix, or "" when no such bound exists.
func prefixSuccessor(prefix string) string {
	for i := len(prefix) - 1; i >= 0; i-- {
		if prefix[i] != 0xff {
			return prefix[:i] + string(prefix[i]+1)
		}
	}
	return ""
}

// matchTime applies the exact row-level time window.
func (f EventsFormat) matchTime(ts int64) bool {
	if f.sel.TimeMin != 0 && ts < f.sel.TimeMin {
		return false
	}
	if f.sel.TimeMax != 0 && ts >= f.sel.TimeMax {
		return false
	}
	return true
}

// readChunk scans one column chunk: prune on the zone map, decode only
// the referenced column streams, filter exactly, emit projected tuples.
// The name pattern is evaluated once per entry of the chunk's name
// dictionary; rows test a bool by ID.
func (f EventsFormat) readChunk(fs *hdfs.FS, metaFile string, emit func(dataflow.Tuple) error) error {
	m, err := chunk.ReadMeta(fs, metaFile)
	if err != nil {
		return err
	}
	if f.prune(m) {
		tmChunksPruned.Inc()
		return nil
	}
	tmChunksScanned.Inc()
	out := f.outCols()
	var need chunk.Set
	for _, col := range out {
		need |= chunk.ColumnOf(col)
	}
	byName := f.sel.NamePattern != ""
	byTime := f.sel.TimeMin != 0 || f.sel.TimeMax != 0
	if byName {
		need |= chunk.Name
	}
	if byTime {
		need |= chunk.Timestamp
	}
	var cc chunk.Columns
	if err := cc.Load(fs, strings.TrimSuffix(metaFile, ".meta"), m, need); err != nil {
		return err
	}
	tmRowsRead.Add(int64(m.Rows))
	var nameOK []bool
	if byName {
		nameOK = make([]bool, len(cc.Name.Dict))
		for id, name := range cc.Name.Dict {
			nameOK[id] = f.pat.MatchesString(name)
		}
	}
	cols := make([]columnReader, len(out))
	for i, col := range out {
		cols[i] = readerOf(&cc, chunk.ColumnOf(col))
	}
	for row := 0; row < m.Rows; row++ {
		if byName && !nameOK[cc.Name.IDs[row]] {
			continue
		}
		if byTime && !f.matchTime(cc.Timestamp[row]) {
			continue
		}
		t := make(dataflow.Tuple, len(out))
		for i, read := range cols {
			t[i] = read(row)
		}
		if err := emit(t); err != nil {
			return err
		}
	}
	return nil
}

// columnReader renders one row of one loaded chunk column as its dataflow
// tuple value — identical to what ClientEventFormat emits for the same
// event.
type columnReader func(row int) any

// readerOf builds the reader of one column of a loaded chunk.
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
	panic("columnar: reader of unknown column")
}

// dictReader boxes each dictionary entry into an any the first time a row
// uses it and hands that same any to every later row with the entry's ID:
// one allocation per distinct value per chunk rather than one per row,
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

// LoadDay loads one UTC day of client events through the columnar source
// with the given selection — the columnar counterpart of
// dataflow.Job.LoadClientEventsDay.
func LoadDay(j *dataflow.Job, day time.Time, sel dataflow.Selection) (*dataflow.Dataset, error) {
	return j.LoadDirsSelective(dataflow.HourDirs(j.FS, events.Category, day), EventsFormat{}, sel)
}
