package dataflow

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"unilog/internal/recordio"
)

// The reduce side of every external operator is a streaming k-way merge
// over a spill table's sorted runs: each run contributes one cursor
// holding its current (key, sequence, tuple) record, and a binary min-heap
// orders the cursors by (key, order column, sequence) — the same order the
// runs were written in — so the merged stream is globally ordered and a
// reducer detects group boundaries by comparing adjacent keys. Peak merge
// memory is the heap plus one buffered record per run (the run fan-in,
// tracked in Stats.PeakRunFanIn); nothing scales with the number of
// groups. A corrupted or short run surfaces recordio.ErrCorrupt /
// ErrTruncated from the merge instead of a silently incomplete relation.

// runCursor is one sorted run being merged: a run on disk (fileRun) or
// the table's sorted in-memory residue (memRun). advance loads the next
// record, returning io.EOF at the end of the run; key/seq/tuple read the
// current record and are valid until the next advance.
type runCursor interface {
	advance() error
	key() []byte
	seq() uint64
	tuple() Tuple
}

// fileRun streams one sorted run out of a spill or cascade file through
// an io.SectionReader, so every run of a file shares a single descriptor.
// The run's record count is checked at EOF: a truncated file makes a
// section read clean but short, which must surface as ErrTruncated, not as
// a quietly smaller relation.
type fileRun struct {
	path      string
	r         *recordio.CRCReader
	remaining int64
	curKey    []byte
	curSeq    uint64
	curT      Tuple
}

func (c *fileRun) advance() error {
	rec, err := c.r.Next()
	if err == io.EOF {
		if c.remaining != 0 {
			return fmt.Errorf("dataflow: spill file %s: %d records missing from run: %w",
				c.path, c.remaining, recordio.ErrTruncated)
		}
		return io.EOF
	}
	if err != nil {
		return fmt.Errorf("dataflow: spill file %s: %w", c.path, err)
	}
	cur := recordio.NewCursor(rec)
	k := cur.Bytes("run key")
	seq := cur.Uvarint("run sequence")
	t, err := decodeTupleFrom(cur)
	if err != nil {
		return fmt.Errorf("%s: %w", c.path, err)
	}
	// The key aliases the reader's reused record buffer; copy it into the
	// cursor's own buffer so it stays valid while the record sits in the
	// merge heap.
	c.curKey = append(c.curKey[:0], k...)
	c.curSeq = seq
	c.curT = t
	c.remaining--
	return nil
}

func (c *fileRun) key() []byte  { return c.curKey }
func (c *fileRun) seq() uint64  { return c.curSeq }
func (c *fileRun) tuple() Tuple { return c.curT }

// memRun cursors the table's sorted in-memory residue.
type memRun struct {
	st *spillTable
	i  int
}

func (c *memRun) advance() error {
	c.i++
	if c.i >= len(c.st.mem) {
		return io.EOF
	}
	return nil
}

func (c *memRun) key() []byte  { return c.st.key(c.st.mem[c.i].kid) }
func (c *memRun) seq() uint64  { return c.st.mem[c.i].seq }
func (c *memRun) tuple() Tuple { return c.st.mem[c.i].t }

// defaultMaxMergeFanIn is the run-cursor cap of a single streaming merge.
const defaultMaxMergeFanIn = 64

// mergeAll opens one streaming merge over every run on disk plus the
// in-memory residue, yielding the global (key, order, sequence) order
// directly — there is no output re-sort. If the accumulated run count
// exceeds the merge fan-in cap, cascade first folds batches of runs into
// wider ones until the final merge fits the cap. The caller owns Close;
// the table can be merged repeatedly until it is closed.
func (st *spillTable) mergeAll() (*mergeIter, error) {
	if st.closed {
		return nil, errSpillClosed
	}
	if err := st.cascade(); err != nil {
		return nil, err
	}
	m := &mergeIter{st: st}
	if err := m.addRefs(st.runs); err != nil {
		return nil, err
	}
	if len(st.mem) > 0 {
		m.h = append(m.h, &memRun{st: st, i: -1})
	}
	st.chargeMergeFanIn(len(m.h))
	if err := m.prime(); err != nil {
		return nil, err
	}
	return m, nil
}

// chargeMergeFanIn records one merge's run fan-in: MergeRuns totals the
// cursors consumed, PeakRunFanIn the widest single merge held open.
func (st *spillTable) chargeMergeFanIn(fanIn int) {
	st.job.stats.mergeRuns.Add(int64(fanIn))
	st.job.stats.maxRunFanIn(int64(fanIn))
	tmMergeFanInMax.SetMax(int64(fanIn))
}

// fanInCap resolves the job's merge fan-in cap (minimum 2 — a 1-way
// "merge" could never make progress reducing the run count).
func (st *spillTable) fanInCap() int {
	c := st.job.maxMergeFanIn
	if c <= 0 {
		c = defaultMaxMergeFanIn
	}
	if c < 2 {
		c = 2
	}
	return c
}

// cascade brings the table's file-run count under the merge fan-in cap:
// each pass folds batches of runs into single wider sorted runs staged
// in cascade files, retiring source files as their last run is
// consumed. Sorted-run merging is closed under the (key, order,
// sequence) comparator, so any batch produces a run the final merge
// consumes identically; the output relation is byte-for-byte what a
// single unbounded merge would yield. The in-memory residue is never
// cascaded (it is already resident and costs no reread); it reserves its
// cursor slot out of the cap, with a floor of two slots for file runs.
func (st *spillTable) cascade() error {
	eff := st.fanInCap()
	if len(st.mem) > 0 {
		eff--
	}
	if eff < 2 {
		eff = 2
	}
	for len(st.runs) > eff {
		t0 := time.Now()
		st.job.stats.cascadePasses.Add(1)
		tmCascadePasses.Inc()
		old := st.runs
		next := make([]runRef, 0, (len(old)+eff-1)/eff)
		var err error
		for i := 0; i < len(old); i += eff {
			batch := old[i:min(i+eff, len(old))]
			if len(batch) == 1 {
				// A stray singleton carries over unchanged; a later pass or
				// the final merge consumes it.
				next = append(next, batch[0])
				continue
			}
			var out runRef
			if out, err = st.mergeBatch(batch); err != nil {
				// Keep the unconsumed runs reachable so Close still removes
				// every staged file.
				next = append(next, old[i:]...)
				break
			}
			next = append(next, out)
		}
		st.runs = next
		st.dropUnreferenced(old)
		if err != nil {
			return err
		}
		tmCascadeNs.ObserveSince(t0)
	}
	return nil
}

// mergeBatch streams one k-way merge over a batch of file runs into a
// fresh cascade file holding a single sorted run.
func (st *spillTable) mergeBatch(batch []runRef) (runRef, error) {
	m := &mergeIter{st: st}
	if err := m.addRefs(batch); err != nil {
		return runRef{}, err
	}
	if err := m.prime(); err != nil {
		return runRef{}, err
	}
	out, err := os.CreateTemp(st.spillDir(), "unilog-cascade-"+st.job.Name+"-*.crc")
	if err != nil {
		m.Close()
		return runRef{}, fmt.Errorf("dataflow: create cascade file: %w", err)
	}
	fail := func(err error) (runRef, error) {
		m.Close()
		out.Close()
		os.Remove(out.Name())
		return runRef{}, err
	}
	bw := bufio.NewWriterSize(out, 1<<16)
	w := recordio.NewCRCWriter(bw)
	var records int64
	var encBuf []byte
	for {
		k, seq, t, err := m.nextRec()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fail(err)
		}
		encBuf, err = appendRunRec(encBuf[:0], k, seq, t)
		if err != nil {
			return fail(err)
		}
		if err := w.Append(encBuf); err != nil {
			return fail(fmt.Errorf("dataflow: write cascade file %s: %w", out.Name(), err))
		}
		records++
	}
	if err := m.Close(); err != nil {
		return fail(err)
	}
	if err := bw.Flush(); err != nil {
		return fail(fmt.Errorf("dataflow: seal cascade file %s: %w", out.Name(), err))
	}
	if err := out.Close(); err != nil {
		os.Remove(out.Name())
		return runRef{}, fmt.Errorf("dataflow: seal cascade file %s: %w", out.Name(), err)
	}
	st.job.stats.cascadeRuns.Add(1)
	tmCascadeRuns.Inc()
	st.chargeMergeFanIn(len(batch))
	return runRef{path: out.Name(), off: 0, len: w.Bytes(), records: records}, nil
}

// dropUnreferenced removes the files of old runs that the table's current
// runs no longer reference — spill files shrink as passes retire them
// instead of lingering at full size until Close.
func (st *spillTable) dropUnreferenced(old []runRef) {
	live := make(map[string]bool, len(st.runs))
	for _, r := range st.runs {
		live[r.path] = true
	}
	for _, r := range old {
		if live[r.path] {
			continue
		}
		live[r.path] = true // one removal per file
		os.Remove(r.path)
		if r.path == st.path {
			st.path = ""
		}
	}
}

// mergeIter is the k-way merge: a min-heap of run cursors. The root's
// record is handed out and the root advanced lazily on the next call, so a
// returned key stays valid until next is called again. Errors are sticky —
// a failed run cannot be skipped into a silently partial relation.
type mergeIter struct {
	st      *spillTable
	h       []runCursor
	files   []*os.File
	pending bool // the root's record has been handed out; advance before the next pop
	err     error
}

// addRefs opens cursors for a set of file runs, sharing one descriptor
// per distinct file. On error the iterator has been closed.
func (m *mergeIter) addRefs(refs []runRef) error {
	files := make(map[string]*os.File)
	for _, r := range refs {
		f := files[r.path]
		if f == nil {
			var err error
			f, err = os.Open(r.path)
			if err != nil {
				m.Close()
				return fmt.Errorf("dataflow: reopen run file: %w", err)
			}
			files[r.path] = f
			m.files = append(m.files, f)
		}
		sec := io.NewSectionReader(f, r.off, r.len)
		m.h = append(m.h, &fileRun{path: r.path, r: recordio.NewCRCReader(sec), remaining: r.records})
	}
	return nil
}

// prime advances every cursor once, drops the (theoretical) empty ones,
// and orders the heap. On error the iterator has been closed.
func (m *mergeIter) prime() error {
	kept := m.h[:0]
	for _, c := range m.h {
		switch err := c.advance(); {
		case err == io.EOF:
		case err != nil:
			m.Close()
			return err
		default:
			kept = append(kept, c)
		}
	}
	m.h = kept
	for i := len(m.h)/2 - 1; i >= 0; i-- {
		m.down(i)
	}
	return nil
}

// next returns the next record in global order, io.EOF after the last. The
// key is valid until the following call; the tuple is the caller's.
func (m *mergeIter) next() ([]byte, Tuple, error) {
	k, _, t, err := m.nextRec()
	return k, t, err
}

// nextRec is next plus the record's insertion sequence — the cascade
// rewrites runs and must preserve the sequence for downstream tiebreaks.
func (m *mergeIter) nextRec() ([]byte, uint64, Tuple, error) {
	if m.err != nil {
		return nil, 0, nil, m.err
	}
	if m.pending {
		m.pending = false
		switch err := m.h[0].advance(); {
		case err == io.EOF:
			n := len(m.h) - 1
			m.h[0] = m.h[n]
			m.h[n] = nil
			m.h = m.h[:n]
			if len(m.h) > 0 {
				m.down(0)
			}
		case err != nil:
			m.err = err
			return nil, 0, nil, err
		default:
			m.down(0)
		}
	}
	if len(m.h) == 0 {
		return nil, 0, nil, io.EOF
	}
	m.pending = true
	c := m.h[0]
	return c.key(), c.seq(), c.tuple(), nil
}

// less orders two cursors by the table's run order (sortKey.less).
func (m *mergeIter) less(i, j int) bool {
	a, b := m.h[i], m.h[j]
	return m.st.order.less(a.key(), b.key(), a.tuple(), b.tuple(), a.seq(), b.seq())
}

func (m *mergeIter) down(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < len(m.h) && m.less(l, s) {
			s = l
		}
		if r < len(m.h) && m.less(r, s) {
			s = r
		}
		if s == i {
			return
		}
		m.h[i], m.h[s] = m.h[s], m.h[i]
		i = s
	}
}

// Close releases the merge's open run-file handles (one per file; the
// files themselves belong to the spill table). Safe to call more than
// once, including mid-merge abandonment.
func (m *mergeIter) Close() error {
	var err error
	for _, f := range m.files {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	m.files = nil
	m.h = nil
	return err
}

// compareValues orders two column values the way OrderBy always has:
// integer kinds compare exactly, any numeric pair compares as float64, and
// everything else by its %v rendering — with numerics before non-numerics
// so mixed-type columns still have one total order shared by the run sort
// and the merge.
func compareValues(a, b Value) int {
	aInt, aNum := numericKind(a)
	bInt, bNum := numericKind(b)
	switch {
	case aNum && bNum:
		if aInt && bInt {
			ai, bi := toI(a), toI(b)
			switch {
			case ai < bi:
				return -1
			case ai > bi:
				return 1
			}
			return 0
		}
		af, bf := toF(a), toF(b)
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		}
		return 0
	case aNum:
		return -1
	case bNum:
		return 1
	}
	if as, ok := a.(string); ok {
		if bs, ok := b.(string); ok {
			return strings.Compare(as, bs)
		}
	}
	return bytes.Compare(renderValue(a), renderValue(b))
}

// numericKind reports whether v is an integer kind and whether it is
// numeric at all.
func numericKind(v Value) (isInt, isNum bool) {
	switch v.(type) {
	case int64, int32, int:
		return true, true
	case float64:
		return false, true
	}
	return false, false
}

func toF(v Value) float64 {
	switch x := v.(type) {
	case int64:
		return float64(x)
	case int32:
		return float64(x)
	case int:
		return float64(x)
	case float64:
		return x
	}
	return 0
}

func toI(v Value) int64 {
	switch x := v.(type) {
	case int64:
		return x
	case int32:
		return int64(x)
	case int:
		return int64(x)
	case float64:
		return int64(x)
	}
	return 0
}

func renderValue(v Value) []byte {
	if s, ok := v.(string); ok {
		return []byte(s)
	}
	return fmt.Appendf(nil, "%v", v)
}
