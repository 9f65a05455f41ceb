package dataflow

import (
	"bytes"
	"fmt"
	"io"
	"strconv"
	"time"
)

// Filter keeps tuples accepted by pred. It is map-side (no shuffle) and
// streams.
func (d *Dataset) Filter(pred func(Tuple) bool) *Dataset {
	return &Dataset{job: d.job, schema: d.schema, cleanup: d.cleanup, open: func() (Iterator, error) {
		it, err := d.open()
		if err != nil {
			return nil, err
		}
		return &iterFunc{next: func() (Tuple, error) {
			for {
				t, err := it.Next()
				if err != nil {
					return nil, err
				}
				if pred(t) {
					return t, nil
				}
			}
		}, close: it.Close}, nil
	}}
}

// Project keeps only the named columns, in the given order — the "early
// projection" idiom of §4.1 that keeps shuffle volume down. Column
// resolution is eager, against this dataset's schema. On a bare scan of
// ClientEventFormat (LoadDirsSelective, LoadClientEventsDay) the projection
// folds into the scan, which then builds only these columns; on anything
// else it streams.
func (d *Dataset) Project(cols ...string) (*Dataset, error) {
	idx := make([]int, len(cols))
	for i, c := range cols {
		j, err := d.schema.Index(c)
		if err != nil {
			return nil, err
		}
		idx[i] = j
	}
	schema := append(Schema(nil), cols...)
	if d.scan != nil && len(cols) > 0 {
		sel := d.scan.pushed.sel
		sel.Columns = schema
		if p, ok := d.job.pushdownDataset(d.scan.splits, sel); ok {
			return p, nil
		}
	}
	return &Dataset{job: d.job, schema: schema, cleanup: d.cleanup, open: func() (Iterator, error) {
		it, err := d.open()
		if err != nil {
			return nil, err
		}
		return &iterFunc{next: func() (Tuple, error) {
			t, err := it.Next()
			if err != nil {
				return nil, err
			}
			nt := make(Tuple, len(idx))
			for k, j := range idx {
				nt[k] = t[j]
			}
			return nt, nil
		}, close: it.Close}, nil
	}}, nil
}

// Union concatenates this dataset with others of the same schema,
// streaming each input in turn.
func (d *Dataset) Union(others ...*Dataset) *Dataset {
	all := append([]*Dataset{d}, others...)
	cleanup := func() error {
		var err error
		for _, ds := range all {
			if cerr := ds.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
		return err
	}
	return &Dataset{job: d.job, schema: d.schema, cleanup: cleanup, open: func() (Iterator, error) {
		var cur Iterator
		var sticky error
		i := 0
		return &iterFunc{next: func() (Tuple, error) {
			if sticky != nil {
				return nil, sticky
			}
			for {
				if cur == nil {
					if i >= len(all) {
						return nil, io.EOF
					}
					var err error
					cur, err = all[i].open()
					i++
					if err != nil {
						// Sticky: re-polling must not skip this input and
						// serve a silently incomplete union.
						sticky = err
						return nil, err
					}
				}
				t, err := cur.Next()
				if err == io.EOF {
					cur.Close()
					cur = nil
					continue
				}
				if err != nil {
					sticky = err
				}
				return t, err
			}
		}, close: func() error {
			if cur != nil {
				err := cur.Close()
				cur = nil
				return err
			}
			return nil
		}}, nil
	}}
}

// appendKey renders the indexed columns of t into dst as a comparable
// key. It replaces a fmt.Sprintf per column with type-switched appends
// into a caller-reused scratch buffer — the hot path of every shuffle.
// The rendering matches %v for strings, ints, bools, and floats, so key
// equality and sort order are unchanged for those kinds; []byte
// deliberately appends raw bytes instead of %v's "[104 105]" form
// (cheaper, still deterministic — byte-slice key columns group by
// content, and, like the numeric kinds, collide with a string rendering
// the same bytes).
//
// Components are terminated with 0x00 0x01, and any 0x00 inside a
// rendered value is escaped as 0x00 0xFF (the memcomparable idiom), so a
// NUL embedded in one column can never shift a component boundary and
// merge two distinct multi-column keys. The escape keeps lexicographic
// order: a component's end (0x00 0x01) sorts below any continuation.
func appendKey(dst []byte, t Tuple, idx []int) []byte {
	for _, i := range idx {
		n := len(dst)
		dst = appendKeyValue(dst, t[i])
		if bytes.IndexByte(dst[n:], 0) >= 0 {
			// Rare path: rewrite the component with NULs escaped.
			esc := make([]byte, 0, (len(dst)-n)+2)
			for _, b := range dst[n:] {
				if b == 0 {
					esc = append(esc, 0, 0xFF)
				} else {
					esc = append(esc, b)
				}
			}
			dst = append(dst[:n], esc...)
		}
		dst = append(dst, 0, 1)
	}
	return dst
}

func appendKeyValue(dst []byte, v Value) []byte {
	switch x := v.(type) {
	case string:
		return append(dst, x...)
	case int64:
		return strconv.AppendInt(dst, x, 10)
	case int32:
		return strconv.AppendInt(dst, int64(x), 10)
	case int:
		return strconv.AppendInt(dst, int64(x), 10)
	case bool:
		if x {
			return append(dst, "true"...)
		}
		return append(dst, "false"...)
	case float64:
		return strconv.AppendFloat(dst, x, 'g', -1, 64)
	case []byte:
		return append(dst, x...)
	default:
		return fmt.Appendf(dst, "%v", x)
	}
}

// Grouped is the result of a GroupBy: sorted spill runs awaiting
// reduce-side merge passes. Every reduce pass is a streaming k-way merge
// (merge.go): groups arrive in ascending key order — globally, for free,
// because the runs are sorted — and within each group tuples arrive in
// input order (GroupBy) or ordered by the requested column
// (GroupByOrdered). A Grouped supports multiple reduce passes (Sum, then
// EachGroup, say); Close releases its spill files.
type Grouped struct {
	job     *Job
	schema  Schema
	keyCols []string
	keyIdx  []int
	st      *spillTable
	all     bool // GROUP ALL: a single global group, present even when empty
}

// GroupBy shuffles the dataset by the named key columns — the reduce-side
// step the paper's session reconstruction pays on every raw-log query
// ("essentially, a large group-by across potentially terabytes of data").
// The input is consumed here, spilling sorted runs under
// Job.MemoryBudget. Each group's tuples are delivered in input order.
func (d *Dataset) GroupBy(keyCols ...string) (*Grouped, error) {
	return d.groupBy(noSort, keyCols, false)
}

// GroupByOrdered is GroupBy with a secondary sort: each group's tuples are
// delivered ordered ascending by orderCol (ties in input order) — the
// sort-merge shuffle's "secondary sort" idiom that lets sessionization and
// funnel walks consume each group without re-sorting it.
func (d *Dataset) GroupByOrdered(orderCol string, keyCols ...string) (*Grouped, error) {
	oi, err := d.schema.Index(orderCol)
	if err != nil {
		return nil, err
	}
	return d.groupBy(sortKey{col: oi}, keyCols, false)
}

// GroupAll groups every tuple into a single group (Pig's GROUP ... ALL),
// the idiom that ends the paper's counting scripts. The single group still
// spills under the memory budget; an empty input still has its one group.
func (d *Dataset) GroupAll() (*Grouped, error) {
	return d.groupBy(noSort, nil, true)
}

// groupBy pushes the whole dataset through a Shuffle.
func (d *Dataset) groupBy(order sortKey, keyCols []string, all bool) (*Grouped, error) {
	s, err := d.job.newShuffle(d.schema, order, keyCols, all)
	if err != nil {
		return nil, err
	}
	if err := d.Each(s.Add); err != nil {
		s.Close()
		return nil, err
	}
	return s.Group()
}

// Shuffle is the push side of a group-by, the one shuffle path under
// GroupBy, GroupByOrdered and GroupAll: a producer that is not a Dataset —
// a map-side combiner folding column batches — adds its tuples one at a
// time, then Group seals them into the Grouped a reducer reads. Tuples are
// charged to the job's shuffle and spill under Job.MemoryBudget exactly as
// GroupBy's input is, and each group's tuples are delivered in the order
// they were added. A Shuffle that is not grouped must be closed.
type Shuffle struct {
	g Grouped
}

// NewShuffle starts a group-by on keyCols of tuples with the given schema.
func (j *Job) NewShuffle(schema Schema, keyCols ...string) (*Shuffle, error) {
	return j.newShuffle(schema, noSort, keyCols, false)
}

func (j *Job) newShuffle(schema Schema, order sortKey, keyCols []string, all bool) (*Shuffle, error) {
	idx := make([]int, len(keyCols))
	for i, c := range keyCols {
		k, err := schema.Index(c)
		if err != nil {
			return nil, err
		}
		idx[i] = k
	}
	st := newSpillTable(j, idx, order)
	return &Shuffle{g: Grouped{job: j, schema: schema, keyCols: keyCols, keyIdx: idx, st: st, all: all}}, nil
}

// Add buffers one tuple, which the shuffle keeps: the caller must not
// reuse it. On error the shuffle has been closed.
func (s *Shuffle) Add(t Tuple) error { return s.g.st.add(t) }

// Group seals the added tuples — the residue sorted, the spill file
// flushed — and returns them grouped. The Shuffle is spent; Close the
// Grouped to release its runs. On error everything has been released.
func (s *Shuffle) Group() (*Grouped, error) {
	if err := s.g.st.finish(); err != nil {
		return nil, err
	}
	g := s.g
	return &g, nil
}

// Close releases an ungrouped shuffle's buffer and spill file.
func (s *Shuffle) Close() error { return s.g.st.Close() }

// Close removes the spill files backing the sorted runs. The Grouped
// cannot be reduced again afterwards.
func (g *Grouped) Close() error { return g.st.Close() }

// mergePass drives one streaming merge-reduce: the sorted runs merge into
// one globally ordered stream, each tuple folds into the current group's
// state, and a key change emits the finished group. There is no per-group
// index map and no output re-sort — peak memory is the merge fan-in (one
// buffered tuple per run) plus one group state. It returns the number of
// distinct groups; this loop is the shared skeleton under EachGroup and
// Sum. A fold or emit error aborts the merge.
func mergePass[S any](g *Grouped, newState func(first Tuple) S, fold func(S, Tuple) (S, error), emit func(s S) error) (int, error) {
	g.job.stats.mergePasses.Add(1)
	tmMergePasses.Inc()
	defer tmMergePassNs.ObserveSince(time.Now())
	m, err := g.st.mergeAll()
	if err != nil {
		return 0, err
	}
	defer m.Close()
	total := 0
	var curKey []byte
	var state S
	open := false
	for {
		key, t, err := m.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, err
		}
		if !open || !bytes.Equal(key, curKey) {
			if open {
				if err := emit(state); err != nil {
					return 0, err
				}
			}
			curKey = append(curKey[:0], key...)
			state = newState(t)
			open = true
			total++
		}
		if state, err = fold(state, t); err != nil {
			return 0, err
		}
	}
	if open {
		if err := emit(state); err != nil {
			return 0, err
		}
	}
	return total, nil
}

// EachGroup streams every group through fn: groups in ascending key order,
// each group's tuples in its delivery order (input order, or the
// GroupByOrdered column). Only one group is materialized at a time, so a
// raw-log sessionization walks a spilled day in group-sized memory. A fn
// error aborts the merge.
func (g *Grouped) EachGroup(fn func(key Tuple, group []Tuple) error) error {
	total, err := mergePass(g,
		func(Tuple) []Tuple { return nil },
		func(group []Tuple, t Tuple) ([]Tuple, error) { return append(group, t), nil },
		func(group []Tuple) error { return fn(g.keyOf(group[0]), group) })
	if err != nil {
		return err
	}
	if g.all && total == 0 {
		// GROUP ALL of an empty relation still visits its single group.
		return fn(Tuple{}, nil)
	}
	return nil
}

// keyOf copies the key columns out of one of a group's tuples.
func (g *Grouped) keyOf(t Tuple) Tuple {
	key := make(Tuple, len(g.keyIdx))
	for i, idx := range g.keyIdx {
		key[i] = t[idx]
	}
	return key
}

// ForEachGroup reduces each group to one tuple. The emitted schema is the
// key columns followed by outCols; the relation arrives already in global
// key order off the merge. fn sees each group's tuples in delivery order
// (input order, or the GroupByOrdered column).
func (g *Grouped) ForEachGroup(outCols Schema, fn func(key Tuple, group []Tuple) Tuple) (*Dataset, error) {
	schema := append(append(Schema(nil), g.keyCols...), outCols...)
	var rows []Tuple
	err := g.EachGroup(func(key Tuple, group []Tuple) error {
		if res := fn(key, group); res != nil {
			rows = append(rows, append(append(Tuple(nil), key...), res...))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return NewDataset(g.job, schema, rows), nil
}

// Sum reduces each group to SUM(col) — the paper's counting idiom — with a
// streaming merge-fold that holds one running total, never the group's
// tuples, so even a spilled GROUP ALL sums in fan-in-bounded memory. The
// emitted schema is the key columns followed by out, an int64; rows arrive
// in global key order, and GROUP ALL over an empty input still yields its
// one row, holding 0. col must hold int64, int32 or int values: any other
// value fails the pass with an error naming the column and its type.
func (g *Grouped) Sum(col, out string) (*Dataset, error) {
	ci, err := g.schema.Index(col)
	if err != nil {
		return nil, err
	}
	type groupSum struct {
		key Tuple
		sum int64
	}
	var rows []Tuple
	total, err := mergePass(g,
		func(t Tuple) groupSum { return groupSum{key: g.keyOf(t)} },
		func(s groupSum, t Tuple) (groupSum, error) {
			switch v := t[ci].(type) {
			case int64:
				s.sum += v
			case int32:
				s.sum += int64(v)
			case int:
				s.sum += int64(v)
			default:
				return s, fmt.Errorf("dataflow: SUM(%s): cannot sum a %T value", col, v)
			}
			return s, nil
		},
		func(s groupSum) error {
			rows = append(rows, append(s.key, s.sum))
			return nil
		})
	if err != nil {
		return nil, err
	}
	if g.all && total == 0 {
		rows = append(rows, Tuple{int64(0)})
	}
	schema := append(append(Schema(nil), g.keyCols...), out)
	return NewDataset(g.job, schema, rows), nil
}

// Join sort-merge-joins two datasets on equality of leftCol and rightCol:
// both sides shuffle into sorted spill runs under Job.MemoryBudget, and
// the merge advances the two ordered streams in lockstep — buffering only
// the right tuples of the *current* key, never a hash table. Output schema is the left schema followed by the right schema
// with joined-column collisions suffixed "_r"; rows arrive in key order,
// left-input order within a key. Close the returned dataset to release the
// spill files.
func (d *Dataset) Join(other *Dataset, leftCol, rightCol string) (*Dataset, error) {
	li, err := d.schema.Index(leftCol)
	if err != nil {
		return nil, err
	}
	ri, err := other.schema.Index(rightCol)
	if err != nil {
		return nil, err
	}
	lt := newSpillTable(d.job, []int{li}, noSort)
	if err := lt.fill(d); err != nil {
		return nil, err
	}
	rt := newSpillTable(d.job, []int{ri}, noSort)
	if err := rt.fill(other); err != nil {
		lt.Close()
		return nil, err
	}
	schema := append(Schema(nil), d.schema...)
	for _, c := range other.schema {
		if _, err := d.schema.Index(c); err == nil {
			schema = append(schema, c+"_r")
		} else {
			schema = append(schema, c)
		}
	}
	js := &joinState{job: d.job, lt: lt, rt: rt}
	return &Dataset{job: d.job, schema: schema, open: js.open, cleanup: js.close}, nil
}

// joinState is the sorted both-sides shuffle behind a Join output; every
// iteration of the output dataset merges it again.
type joinState struct {
	job    *Job
	lt, rt *spillTable
}

func (s *joinState) open() (Iterator, error) {
	s.job.stats.mergePasses.Add(1)
	tmMergePasses.Inc()
	lm, err := s.lt.mergeAll()
	if err != nil {
		return nil, err
	}
	rm, err := s.rt.mergeAll()
	if err != nil {
		lm.Close()
		return nil, err
	}
	return &joinIter{s: s, lm: lm, rm: rm}, nil
}

func (s *joinState) close() error {
	err := s.lt.Close()
	if rerr := s.rt.Close(); err == nil {
		err = rerr
	}
	return err
}

// joinIter merges the two key-ordered streams. The right stream holds a
// one-record lookahead; matches is the right group of the current left
// key, reused key over key.
type joinIter struct {
	s      *joinState
	lm, rm *mergeIter

	cur     Tuple // current left tuple
	matches []Tuple
	mi      int
	matched []byte // key of the buffered matches
	haveKey bool

	rKey  []byte // right lookahead
	rTup  Tuple
	rOK   bool
	rDone bool

	err error // sticky: a failed side cannot be skipped
}

func (it *joinIter) Next() (Tuple, error) {
	if it.err != nil {
		return nil, it.err
	}
	t, err := it.next()
	if err != nil && err != io.EOF {
		it.err = err
	}
	return t, err
}

func (it *joinIter) next() (Tuple, error) {
	for {
		if it.mi < len(it.matches) {
			rt := it.matches[it.mi]
			it.mi++
			nt := make(Tuple, 0, len(it.cur)+len(rt))
			nt = append(nt, it.cur...)
			nt = append(nt, rt...)
			return nt, nil
		}
		lkey, lt, err := it.lm.next()
		if err == io.EOF {
			return nil, io.EOF
		}
		if err != nil {
			return nil, err
		}
		if !it.haveKey || !bytes.Equal(lkey, it.matched) {
			if err := it.seekRight(lkey); err != nil {
				return nil, err
			}
		}
		it.cur = lt
		it.mi = 0
	}
}

// advanceRight loads the right lookahead.
func (it *joinIter) advanceRight() (bool, error) {
	if it.rDone {
		return false, nil
	}
	key, t, err := it.rm.next()
	if err == io.EOF {
		it.rDone = true
		return false, nil
	}
	if err != nil {
		return false, err
	}
	it.rKey = append(it.rKey[:0], key...)
	it.rTup = t
	it.rOK = true
	return true, nil
}

// seekRight positions the right stream at key k, buffering the right
// tuples that match it.
func (it *joinIter) seekRight(k []byte) error {
	it.matches = it.matches[:0]
	it.matched = append(it.matched[:0], k...)
	it.haveKey = true
	for {
		if !it.rOK {
			ok, err := it.advanceRight()
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
		}
		switch c := bytes.Compare(it.rKey, k); {
		case c < 0:
			it.rOK = false
		case c == 0:
			it.matches = append(it.matches, it.rTup)
			it.rOK = false
		default:
			return nil // lookahead kept for a later left key
		}
	}
}

func (it *joinIter) Close() error {
	err := it.lm.Close()
	if rerr := it.rm.Close(); err == nil {
		err = rerr
	}
	return err
}

// OrderBy sorts by the named column; numeric columns sort numerically and
// the sort is stable (equal keys keep input order, for descending too).
// It is an external merge sort: the input streams into sorted runs through
// the shared run machinery — spilled under Job.MemoryBudget, one resident
// run without a budget — and every iteration of the result is a k-way
// merge, so peak memory is the run fan-in. Close the returned dataset to
// release the runs (and any operator state upstream).
func (d *Dataset) OrderBy(col string, ascending bool) (*Dataset, error) {
	ci, err := d.schema.Index(col)
	if err != nil {
		return nil, err
	}
	st := newSpillTable(d.job, nil, sortKey{col: ci, desc: !ascending})
	if err := st.fill(d); err != nil {
		return nil, err
	}
	upstream := d.cleanup
	cleanup := func() error {
		err := st.Close()
		if upstream != nil {
			if uerr := upstream(); err == nil {
				err = uerr
			}
		}
		return err
	}
	job := d.job
	return &Dataset{job: job, schema: d.schema, cleanup: cleanup, open: func() (Iterator, error) {
		job.stats.mergePasses.Add(1)
		tmMergePasses.Inc()
		m, err := st.mergeAll()
		if err != nil {
			return nil, err
		}
		return &mergeTupleIter{m: m}, nil
	}}, nil
}

// mergeTupleIter adapts a run merge into a plain tuple Iterator.
type mergeTupleIter struct{ m *mergeIter }

func (it *mergeTupleIter) Next() (Tuple, error) {
	_, t, err := it.m.next()
	return t, err
}

func (it *mergeTupleIter) Close() error { return it.m.Close() }
