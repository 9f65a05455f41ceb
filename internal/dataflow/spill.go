package dataflow

import (
	"bufio"
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"os"
	"slices"
	"time"

	"unilog/internal/recordio"
)

// An external operator (GroupBy, GroupAll, Join, OrderBy) cannot assume
// its input fits in memory. spillTable is the shared machinery, and — like
// the sort-merge shuffle of the MapReduce jobs this engine models — it is
// sort-based: each tuple's key is rendered once, and the buffer numbers
// its distinct rendered keys (Pinot-style dictionary encoding), so a
// buffered tuple carries a small key ID rather than its own copy of the
// key. When the buffered bytes exceed Job.MemoryBudget the buffer is
// *sorted* (key, then the optional order column, then insertion sequence)
// and appended to the table's spill file as one budget-sized sorted run.
// The sort compares rendered keys only to rank the distinct ones; the
// tuples themselves move by a counting sort on those ranks (sortMem). The
// reduce side is a streaming k-way merge over every run plus the sorted
// in-memory residue (merge.go): tuples arrive in global (key, order,
// sequence) order, so reducers fold group boundaries as they stream by
// and never hold a per-group hash map — peak reduce memory is the merge
// heap plus one buffered tuple per run. With MemoryBudget <= 0 the budget
// never trips: the same table with one never-spilled run, and identical
// output order.

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
// sequence) — the order of the runs sortMem writes and the comparator of
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

// memTuple is one buffered tuple: the buffer's number for its rendered key
// (spillTable.key), its order column when that is an integer kind (ord;
// see ordMixed), its global insertion sequence (the stability tiebreak),
// and the tuple.
type memTuple struct {
	kid uint32
	ord int64
	seq uint64
	t   Tuple
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

	// When the table opened and the job's shuffle bytes then: finish books
	// the shuffle stage from them, once per table, from the same Stats
	// fields add charges per tuple — no per-tuple telemetry.
	t0        time.Time
	shuffled0 int64

	mem []memTuple
	// The distinct keys buffered since the last spill: keyIDs numbers them
	// in first-seen order, and key kid is keyArena[keyEnds[kid-1]:keyEnds[kid]].
	// Arena offsets are ints: an unbudgeted table never resets the arena,
	// so a narrower offset could silently wrap on a multi-GiB key volume.
	keyIDs   map[string]uint32
	keyEnds  []int
	keyArena []byte
	// ordMixed is set once a buffered order value is not an int64, int32
	// or int; sortMem then compares the values themselves, not ord.
	ordMixed bool
	memBytes int64      // tuple+key bytes currently buffered, charged per tuple
	sortBuf  []memTuple // sortMem's counting-sort destination, swapped with mem
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
	return &spillTable{job: j, keyIdx: keyIdx, order: order, budget: j.MemoryBudget,
		t0: time.Now(), shuffled0: j.stats.shuffleBytes.Load()}
}

// spillDir returns where this job stages spill files.
func (st *spillTable) spillDir() string {
	if st.job.SpillDir != "" {
		return st.job.SpillDir
	}
	return os.TempDir()
}

// key returns the rendered key numbered kid.
func (st *spillTable) key(kid uint32) []byte {
	start := 0
	if kid > 0 {
		start = st.keyEnds[kid-1]
	}
	return st.keyArena[start:st.keyEnds[kid]]
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
	kid, ok := st.keyIDs[string(st.scratch)]
	if !ok {
		if st.keyIDs == nil {
			st.keyIDs = make(map[string]uint32)
		}
		kid = uint32(len(st.keyEnds))
		st.keyIDs[string(st.scratch)] = kid
		st.keyArena = append(st.keyArena, st.scratch...)
		st.keyEnds = append(st.keyEnds, len(st.keyArena))
	}
	m := memTuple{kid: kid, seq: st.seq, t: t}
	if st.order.col >= 0 {
		switch v := t[st.order.col].(type) {
		case int64:
			m.ord = v
		case int32:
			m.ord = int64(v)
		case int:
			m.ord = int64(v)
		default:
			st.ordMixed = true
		}
	}
	st.mem = append(st.mem, m)
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
	if err := d.Each(st.add); err != nil {
		st.Close()
		return err
	}
	return st.finish()
}

// sortMem orders the buffer by (key, order column, sequence) — the run
// order the merge relies on, the same total order as sortKey.less. It
// ranks the distinct keys (the only place rendered keys are compared),
// moves the tuples by a stable counting sort on those ranks — the buffer
// is in sequence order, so each key's bucket stays in sequence order —
// and, with an order column, sorts each bucket by (order, sequence).
func (st *spillTable) sortMem() {
	if n := len(st.keyEnds); n > 1 {
		byKey := make([]uint32, n)
		for i := range byKey {
			byKey[i] = uint32(i)
		}
		slices.SortFunc(byKey, func(a, b uint32) int { return bytes.Compare(st.key(a), st.key(b)) })
		rank := make([]uint32, n)
		for r, kid := range byKey {
			rank[kid] = uint32(r)
		}
		next := make([]int, n) // next[r]: where bucket r's next tuple goes
		for i := range st.mem {
			next[rank[st.mem[i].kid]]++
		}
		pos := 0
		for r, c := range next {
			next[r] = pos
			pos += c
		}
		out := slices.Grow(st.sortBuf[:0], len(st.mem))[:len(st.mem)]
		for i := range st.mem {
			r := rank[st.mem[i].kid]
			out[next[r]] = st.mem[i]
			next[r]++
		}
		clear(st.mem)
		st.mem, st.sortBuf = out, st.mem[:0]
	}
	if st.order.col < 0 {
		return
	}
	byOrder := st.bucketOrder()
	mem := st.mem
	for lo := 0; lo < len(mem); {
		hi := lo + 1
		for hi < len(mem) && mem[hi].kid == mem[lo].kid {
			hi++
		}
		if hi-lo > 1 {
			slices.SortFunc(mem[lo:hi], byOrder)
		}
		lo = hi
	}
}

// bucketOrder returns the (order column, sequence) comparator of one key's
// bucket: on the captured integers, or — once a buffered value was not an
// integer kind — on compareValues, as sortKey.less does.
func (st *spillTable) bucketOrder() func(a, b memTuple) int {
	col, desc, mixed := st.order.col, st.order.desc, st.ordMixed
	return func(a, b memTuple) int {
		var c int
		if mixed {
			c = compareValues(a.t[col], b.t[col])
		} else {
			c = cmp.Compare(a.ord, b.ord)
		}
		if desc {
			c = -c
		}
		if c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	}
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
		st.encBuf, err = appendRunRec(st.encBuf[:0], st.key(m.kid), m.seq, m.t)
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
	clear(st.keyIDs)
	st.keyEnds = st.keyEnds[:0]
	st.keyArena = st.keyArena[:0]
	st.ordMixed = false
	st.memBytes = 0
	return nil
}

// finish sorts the in-memory residue and flushes and closes the spill
// file for writing; the table is then ready for (repeated) merge reads.
// On error the table has been cleaned up.
func (st *spillTable) finish() error {
	defer tmShuffleNs.ObserveSince(st.t0)
	tmShuffleBytes.Add(st.job.stats.shuffleBytes.Load() - st.shuffled0)
	st.sortMem()
	st.keyIDs, st.sortBuf = nil, nil // no more adds, no more sorts
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
	st.mem, st.sortBuf = nil, nil
	st.keyIDs, st.keyEnds, st.keyArena = nil, nil, nil
	st.memBytes = 0
	return err
}
