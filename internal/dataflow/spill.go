package dataflow

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"sort"
	"time"

	"unilog/internal/recordio"
)

// An external operator (GroupBy, GroupAll, Join, OrderBy) cannot assume
// its input fits in memory. spillTable is the shared machinery, and — like
// the sort-merge shuffle of the MapReduce jobs this engine models — it is
// sort-based: tuples are buffered with their rendered key, and when the
// buffered bytes exceed Job.MemoryBudget the buffer is *sorted* (key, then
// the optional order column, then insertion sequence) and appended to the
// table's spill file as one budget-sized sorted run. The reduce side is a
// streaming k-way merge over every run plus the sorted in-memory residue
// (merge.go): tuples arrive in global (key, order, sequence) order, so
// reducers fold group boundaries as they stream by and never hold a
// per-group hash map — peak reduce memory is the merge heap plus one
// buffered tuple per run. With MemoryBudget <= 0 the budget never trips:
// the same table with one never-spilled run, and identical output order.

// sortKey is the optional secondary order of a spill table: tuples with
// equal keys are delivered ordered by the col'th tuple column, descending
// when desc, ties broken by insertion sequence. col < 0 (noSort) means
// insertion order alone — the classic GroupBy contract. OrderBy uses an
// empty key with a sortKey, making the whole table one ordered stream.
type sortKey struct {
	col  int
	desc bool
}

// noSort is the sortKey of operators that only need key grouping.
var noSort = sortKey{col: -1}

// less orders two records by (rendered key, order column, insertion
// sequence) — the one comparator behind both the run sort (sortMem) and
// the merge heap (merge.go), so the merge preserves the runs' order
// globally. Sequences are unique, so the order is total.
func (o sortKey) less(ka, kb []byte, ta, tb Tuple, sa, sb uint64) bool {
	if c := bytes.Compare(ka, kb); c != 0 {
		return c < 0
	}
	if o.col >= 0 {
		if c := compareValues(ta[o.col], tb[o.col]); c != 0 {
			if o.desc {
				return c > 0
			}
			return c < 0
		}
	}
	return sa < sb
}

// memTuple is one buffered tuple: its rendered key (an arena slice), its
// global insertion sequence (the stability tiebreak), and the tuple. The
// arena offset is an int: an unbudgeted table never resets the arena, so
// a narrower offset could silently wrap on a multi-GiB key volume.
type memTuple struct {
	keyOff int
	keyLen int
	seq    uint64
	t      Tuple
}

// runRef is one sorted run on disk: a section of the table's spill file,
// or a whole cascade file (merge.go) that replaced several earlier runs.
type runRef struct {
	path    string
	off     int64
	len     int64
	records int64
}

// spillTable turns one operator input into sorted runs: an in-memory
// buffer plus, once the budget has tripped, a spill file holding earlier
// tuples as sorted runs.
type spillTable struct {
	job    *Job
	keyIdx []int
	order  sortKey
	budget int64 // <= 0: unlimited (never spills)
	seq    uint64

	mem      []memTuple
	keyArena []byte
	memBytes int64 // tuple+key bytes currently buffered
	scratch  []byte
	encBuf   []byte

	path string // spill file; "" until first overflow
	f    *os.File
	bw   *bufio.Writer
	w    *recordio.CRCWriter
	runs []runRef // every run on disk; the cascade (merge.go) rewrites it

	closed bool
}

func newSpillTable(j *Job, keyIdx []int, order sortKey) *spillTable {
	return &spillTable{job: j, keyIdx: keyIdx, order: order, budget: j.MemoryBudget}
}

// spillDir returns where this job stages spill files.
func (st *spillTable) spillDir() string {
	if st.job.SpillDir != "" {
		return st.job.SpillDir
	}
	return os.TempDir()
}

// key returns the rendered key of a buffered tuple.
func (st *spillTable) key(m *memTuple) []byte {
	return st.keyArena[m.keyOff : m.keyOff+m.keyLen]
}

// add buffers one tuple, charging the shuffle and spilling a sorted run
// when the budget trips. On error the table has already been cleaned up.
func (st *spillTable) add(t Tuple) error {
	b := tupleBytes(t)
	st.job.stats.shuffleBytes.Add(b)
	st.job.stats.shuffleRecords.Add(1)
	st.scratch = st.scratch[:0]
	if len(st.keyIdx) > 0 {
		st.scratch = appendKey(st.scratch, t, st.keyIdx)
	}
	off := len(st.keyArena)
	st.keyArena = append(st.keyArena, st.scratch...)
	st.mem = append(st.mem, memTuple{keyOff: off, keyLen: len(st.scratch), seq: st.seq, t: t})
	st.seq++
	st.memBytes += b + int64(len(st.scratch)) // the rendered key is buffered too
	if st.budget > 0 && st.memBytes > st.budget {
		if err := st.spill(); err != nil {
			st.Close()
			return err
		}
	}
	return nil
}

// fill consumes an entire dataset into the table, then seals the spill
// file and sorts the residue for merging. On error the table has been
// cleaned up.
func (st *spillTable) fill(d *Dataset) error {
	t0 := time.Now()
	before := st.job.stats.shuffleBytes.Load()
	if err := d.Each(st.add); err != nil {
		st.Close()
		return err
	}
	err := st.finish()
	// The shuffle stage is accounted here, once per table fill, from the
	// same Stats fields add() charges per tuple — no per-tuple telemetry.
	tmShuffleBytes.Add(st.job.stats.shuffleBytes.Load() - before)
	tmShuffleNs.ObserveSince(t0)
	return err
}

// sortMem orders the buffer by (key, order column, sequence) — the run
// order the merge relies on; the sort is stable by construction.
func (st *spillTable) sortMem() {
	mem := st.mem
	sort.Slice(mem, func(i, j int) bool {
		a, b := &mem[i], &mem[j]
		return st.order.less(st.key(a), st.key(b), a.t, b.t, a.seq, b.seq)
	})
}

// spill sorts the buffer, appends it to the spill file as one sorted run,
// and empties it.
func (st *spillTable) spill() error {
	t0 := time.Now()
	st.sortMem()
	if st.f == nil {
		f, err := os.CreateTemp(st.spillDir(), "unilog-spill-"+st.job.Name+"-*.crc")
		if err != nil {
			return fmt.Errorf("dataflow: create spill file: %w", err)
		}
		st.f = f
		st.path = f.Name()
		st.bw = bufio.NewWriterSize(f, 1<<16)
		st.w = recordio.NewCRCWriter(st.bw)
	}
	before := st.w.Bytes()
	for i := range st.mem {
		m := &st.mem[i]
		var err error
		st.encBuf, err = appendRunRec(st.encBuf[:0], st.key(m), m.seq, m.t)
		if err != nil {
			return err
		}
		if err := st.w.Append(st.encBuf); err != nil {
			return fmt.Errorf("dataflow: write spill file %s: %w", st.path, err)
		}
	}
	records, size := int64(len(st.mem)), st.w.Bytes()-before
	st.runs = append(st.runs, runRef{path: st.path, off: before, len: size, records: records})
	st.job.stats.spillRuns.Add(1)
	st.job.stats.spilledRecords.Add(records)
	st.job.stats.spilledBytes.Add(size)
	tmSpillRuns.Inc()
	tmSpillRecords.Add(records)
	tmSpillBytes.Add(size)
	tmSpillFlushNs.ObserveSince(t0)
	// Drop the tuple references: the budget exists to bound live tuples.
	clear(st.mem)
	st.mem = st.mem[:0]
	st.keyArena = st.keyArena[:0]
	st.memBytes = 0
	return nil
}

// finish sorts the in-memory residue and flushes and closes the spill
// file for writing; the table is then ready for (repeated) merge reads.
// On error the table has been cleaned up.
func (st *spillTable) finish() error {
	st.sortMem()
	if st.f == nil {
		return nil
	}
	err := st.bw.Flush()
	if cerr := st.f.Close(); err == nil {
		err = cerr
	}
	st.f, st.bw, st.w = nil, nil, nil
	if err != nil {
		path := st.path
		st.Close()
		return fmt.Errorf("dataflow: seal spill file %s: %w", path, err)
	}
	return nil
}

// errSpillClosed guards use-after-Close: without it a reduce pass over a
// closed table would see an empty buffer and return a silently empty
// relation.
var errSpillClosed = errors.New("dataflow: spilled operator state is closed")

// Close removes the spill file and every cascade file and drops the
// buffer. It is safe to call more than once; after Close the table cannot
// be read.
func (st *spillTable) Close() error {
	if st.closed {
		return nil
	}
	st.closed = true
	if st.f != nil {
		st.f.Close()
		st.f, st.bw, st.w = nil, nil, nil
	}
	var err error
	removed := make(map[string]bool)
	remove := func(path string) {
		if path == "" || removed[path] {
			return
		}
		removed[path] = true
		if rerr := os.Remove(path); rerr != nil && err == nil {
			err = rerr
		}
	}
	remove(st.path)
	for _, r := range st.runs {
		remove(r.path)
	}
	st.path = ""
	st.runs = nil
	st.mem = nil
	st.keyArena = nil
	st.memBytes = 0
	return err
}
