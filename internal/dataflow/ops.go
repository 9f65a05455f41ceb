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
// resolution is eager; execution streams.
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

// ForEach transforms every tuple (Pig's FOREACH ... GENERATE); returning
// nil drops the tuple. It streams.
func (d *Dataset) ForEach(schema Schema, fn func(Tuple) Tuple) *Dataset {
	return &Dataset{job: d.job, schema: schema, cleanup: d.cleanup, open: func() (Iterator, error) {
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
				if nt := fn(t); nt != nil {
					return nt, nil
				}
			}
		}, close: it.Close}, nil
	}}
}

// FlatMap transforms every tuple into zero or more tuples. It streams; only
// one input tuple's expansion is buffered at a time.
func (d *Dataset) FlatMap(schema Schema, fn func(Tuple) []Tuple) *Dataset {
	return &Dataset{job: d.job, schema: schema, cleanup: d.cleanup, open: func() (Iterator, error) {
		it, err := d.open()
		if err != nil {
			return nil, err
		}
		var pending []Tuple
		return &iterFunc{next: func() (Tuple, error) {
			for {
				if len(pending) > 0 {
					t := pending[0]
					pending = pending[1:]
					return t, nil
				}
				t, err := it.Next()
				if err != nil {
					return nil, err
				}
				pending = fn(t)
			}
		}, close: it.Close}, nil
	}}
}

// Limit keeps the first n tuples, stopping the upstream scan early.
func (d *Dataset) Limit(n int) *Dataset {
	return &Dataset{job: d.job, schema: d.schema, cleanup: d.cleanup, open: func() (Iterator, error) {
		it, err := d.open()
		if err != nil {
			return nil, err
		}
		remaining := n
		return &iterFunc{next: func() (Tuple, error) {
			if remaining <= 0 {
				return nil, io.EOF
			}
			t, err := it.Next()
			if err != nil {
				return nil, err
			}
			remaining--
			return t, nil
		}, close: it.Close}, nil
	}}
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
// (GroupByOrdered). A Grouped supports multiple reduce passes (NumGroups,
// then Aggregate, say); Close releases its spill files.
type Grouped struct {
	job     *Job
	schema  Schema
	keyCols []string
	keyIdx  []int
	st      *spillTable
	all     bool // GROUP ALL: a single global group, present even when empty
	groups  int  // distinct keys; -1 until a reduce pass has counted
}

// GroupBy shuffles the dataset by the named key columns — the reduce-side
// step the paper's session reconstruction pays on every raw-log query
// ("essentially, a large group-by across potentially terabytes of data").
// The input is consumed here, spilling sorted runs under
// Job.MemoryBudget. Each group's tuples are delivered in input order.
func (d *Dataset) GroupBy(keyCols ...string) (*Grouped, error) {
	return d.groupBy(noSort, keyCols)
}

// GroupByOrdered is GroupBy with a secondary sort: each group's tuples are
// delivered ordered ascending by orderCol (ties in input order) — the
// sort-merge shuffle's "secondary sort" idiom that lets sessionization and
// funnel walks consume each group without re-sorting it.
func (d *Dataset) GroupByOrdered(orderCol string, keyCols ...string) (*Grouped, error) {
	return d.GroupByOrderedColumns([]Order{{Col: orderCol}}, keyCols...)
}

// Order is one column of a multi-column sort: the named column, descending
// when Desc. OrderByColumns and GroupByOrderedColumns take a list of them
// applied in sequence, ties within all of them broken by input order.
type Order struct {
	Col  string
	Desc bool
}

// resolveOrders maps a public Order list onto column indexes.
func (d *Dataset) resolveOrders(orders []Order) (sortSpec, error) {
	spec := make(sortSpec, len(orders))
	for i, o := range orders {
		j, err := d.schema.Index(o.Col)
		if err != nil {
			return nil, err
		}
		spec[i] = sortKey{col: j, desc: o.Desc}
	}
	return spec, nil
}

// GroupByOrderedColumns is GroupByOrdered with a multi-column secondary
// sort: each group's tuples are delivered ordered by each Order in turn
// (ties in input order).
func (d *Dataset) GroupByOrderedColumns(orderCols []Order, keyCols ...string) (*Grouped, error) {
	spec, err := d.resolveOrders(orderCols)
	if err != nil {
		return nil, err
	}
	return d.groupBy(spec, keyCols)
}

func (d *Dataset) groupBy(order sortSpec, keyCols []string) (*Grouped, error) {
	idx := make([]int, len(keyCols))
	for i, c := range keyCols {
		j, err := d.schema.Index(c)
		if err != nil {
			return nil, err
		}
		idx[i] = j
	}
	st := newSpillTable(d.job, idx, order)
	if err := st.fill(d); err != nil {
		return nil, err
	}
	d.job.stats.reduceTasks.Add(1) // base reduce wave; topped up when the group count is known
	return &Grouped{job: d.job, schema: d.schema, keyCols: keyCols, keyIdx: idx, st: st, groups: -1}, nil
}

// GroupAll groups every tuple into a single group (Pig's GROUP ... ALL),
// the idiom that ends the paper's counting scripts. The single group still
// spills under the memory budget; an empty input still has its one group.
func (d *Dataset) GroupAll() (*Grouped, error) {
	st := newSpillTable(d.job, nil, noSort)
	if err := st.fill(d); err != nil {
		return nil, err
	}
	d.job.stats.reduceTasks.Add(1)
	g := &Grouped{job: d.job, schema: d.schema, st: st, all: true, groups: -1}
	g.setGroups(1)
	return g, nil
}

// setGroups records the group count the first time a reduce pass learns
// it, topping the base reducer charged at construction up to the
// group-scaled wave.
func (g *Grouped) setGroups(n int) {
	if g.groups >= 0 {
		return
	}
	g.groups = n
	g.job.stats.reduceTasks.Add(int64(reducersFor(n) - 1))
}

// Close removes the spill files backing the sorted runs. The Grouped
// cannot be reduced again afterwards.
func (g *Grouped) Close() error { return g.st.Close() }

// mergePass drives one streaming merge-reduce: the sorted runs merge into
// one globally ordered stream, each tuple folds into the current group's
// state, and a key change emits the finished group. There is no per-group
// index map and no output re-sort — peak memory is the merge fan-in (one
// buffered tuple per run) plus one group state. It returns the number of
// distinct groups; this loop is the shared skeleton under NumGroups,
// EachGroup, and Aggregate.
func mergePass[S any](g *Grouped, newState func(first Tuple) S, fold func(S, Tuple) S, emit func(s S) error) (int, error) {
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
			if open && emit != nil {
				if err := emit(state); err != nil {
					return 0, err
				}
			}
			curKey = append(curKey[:0], key...)
			state = newState(t)
			open = true
			total++
		}
		state = fold(state, t)
	}
	if open && emit != nil {
		if err := emit(state); err != nil {
			return 0, err
		}
	}
	return total, nil
}

// NumGroups returns the number of distinct keys, counting them with a
// streaming merge if no reduce has run yet; nothing is buffered per group.
func (g *Grouped) NumGroups() (int, error) {
	if g.groups >= 0 {
		return g.groups, nil
	}
	total, err := mergePass(g,
		func(Tuple) struct{} { return struct{}{} },
		func(s struct{}, _ Tuple) struct{} { return s },
		nil)
	if err != nil {
		return 0, err
	}
	if g.all && total == 0 {
		total = 1
	}
	g.setGroups(total)
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
		func(group []Tuple, t Tuple) []Tuple { return append(group, t) },
		func(group []Tuple) error {
			keyVals := make(Tuple, len(g.keyIdx))
			for i, idx := range g.keyIdx {
				keyVals[i] = group[0][idx]
			}
			return fn(keyVals, group)
		})
	if err != nil {
		return err
	}
	if g.all && total == 0 {
		// GROUP ALL of an empty relation still visits its single group.
		total = 1
		if err := fn(Tuple{}, nil); err != nil {
			return err
		}
	}
	g.setGroups(total)
	return nil
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
	g.job.stats.outputRecords.Add(int64(len(rows)))
	return NewDataset(g.job, schema, rows), nil
}

// Agg is one aggregate computed per group.
type Agg struct {
	Name string
	Col  string // input column; ignored by COUNT(*)
	Kind AggKind
}

// AggKind selects the aggregate function.
type AggKind int

// Aggregate kinds.
const (
	AggCount AggKind = iota // COUNT(*)
	AggSum
	AggMin
	AggMax
	AggAvg
	AggCountDistinct
)

// Count is COUNT(*) named as out.
func Count(out string) Agg { return Agg{Name: out, Kind: AggCount} }

// Sum is SUM(col) over int64 or float64 columns.
func Sum(col, out string) Agg { return Agg{Name: out, Col: col, Kind: AggSum} }

// Min is MIN(col) over int64 columns.
func Min(col, out string) Agg { return Agg{Name: out, Col: col, Kind: AggMin} }

// Max is MAX(col) over int64 columns.
func Max(col, out string) Agg { return Agg{Name: out, Col: col, Kind: AggMax} }

// Avg is AVG(col) over numeric columns, producing float64.
func Avg(col, out string) Agg { return Agg{Name: out, Col: col, Kind: AggAvg} }

// CountDistinct counts distinct values of col per group.
func CountDistinct(col, out string) Agg { return Agg{Name: out, Col: col, Kind: AggCountDistinct} }

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

// aggCell is the incremental state of one aggregate over one group. The
// fold never materializes the group's tuples, so the reduce side of an
// Aggregate holds one group's cells at a time, not the group's tuples.
type aggCell struct {
	count    int64
	isum     int64
	fsum     float64
	extreme  int64
	started  bool
	distinct map[string]struct{}
}

func (c *aggCell) fold(kind AggKind, v Value, scratch []byte) []byte {
	switch kind {
	case AggCount:
		c.count++
	case AggSum:
		c.isum += toI(v)
	case AggMin:
		if x := toI(v); !c.started || x < c.extreme {
			c.extreme = x
		}
		c.started = true
	case AggMax:
		if x := toI(v); !c.started || x > c.extreme {
			c.extreme = x
		}
		c.started = true
	case AggAvg:
		c.fsum += toF(v)
		c.count++
	case AggCountDistinct:
		scratch = appendKeyValue(scratch[:0], v)
		if c.distinct == nil {
			c.distinct = make(map[string]struct{})
		}
		if _, ok := c.distinct[string(scratch)]; !ok {
			c.distinct[string(scratch)] = struct{}{}
		}
	}
	return scratch
}

func (c *aggCell) final(kind AggKind) Value {
	switch kind {
	case AggCount:
		return c.count
	case AggSum:
		return c.isum
	case AggMin, AggMax:
		return c.extreme
	case AggAvg:
		if c.count == 0 {
			return float64(0)
		}
		return c.fsum / float64(c.count)
	case AggCountDistinct:
		return int64(len(c.distinct))
	}
	return nil
}

// Aggregate computes the given aggregates for every group with a streaming
// merge-fold: the sorted runs stream by once and only the *current*
// group's aggregate cells are live (per distinct value for CountDistinct),
// so even a spilled GROUP ALL aggregates in fan-in-bounded memory. Output
// rows arrive in global key order.
func (g *Grouped) Aggregate(aggs ...Agg) (*Dataset, error) {
	idx := make([]int, len(aggs))
	outCols := make(Schema, len(aggs))
	for i, a := range aggs {
		outCols[i] = a.Name
		if a.Kind == AggCount {
			idx[i] = -1
			continue
		}
		j, err := g.schema.Index(a.Col)
		if err != nil {
			return nil, err
		}
		idx[i] = j
	}
	schema := append(append(Schema(nil), g.keyCols...), outCols...)

	type groupState struct {
		keyVals Tuple
		cells   []aggCell
		scratch []byte
	}
	var rows []Tuple
	total, err := mergePass(g,
		func(t Tuple) *groupState {
			keyVals := make(Tuple, len(g.keyIdx))
			for i, kidx := range g.keyIdx {
				keyVals[i] = t[kidx]
			}
			return &groupState{keyVals: keyVals, cells: make([]aggCell, len(aggs))}
		},
		func(st *groupState, t Tuple) *groupState {
			for ai, a := range aggs {
				var v Value
				if idx[ai] >= 0 {
					v = t[idx[ai]]
				}
				st.scratch = st.cells[ai].fold(a.Kind, v, st.scratch)
			}
			return st
		},
		func(st *groupState) error {
			row := append(Tuple(nil), st.keyVals...)
			for ai, a := range aggs {
				row = append(row, st.cells[ai].final(a.Kind))
			}
			rows = append(rows, row)
			return nil
		})
	if err != nil {
		return nil, err
	}
	if g.all && total == 0 {
		// GROUP ALL of an empty relation still emits its single row of
		// zero-valued aggregates.
		total = 1
		row := Tuple{}
		var zero aggCell
		for _, a := range aggs {
			row = append(row, zero.final(a.Kind))
		}
		rows = append(rows, row)
	}
	g.setGroups(total)
	g.job.stats.outputRecords.Add(int64(len(rows)))
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
	// Both sides shuffled: one base reduce wave per side now (as the eager
	// engine charged), topped up when a full merge learns the key count.
	d.job.stats.reduceTasks.Add(2)
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

	rSeen         bool
	rLast         []byte // last right key, for the distinct count
	distinctRight int
	charged       bool

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
			it.s.job.stats.outputRecords.Add(1)
			return nt, nil
		}
		lkey, lt, err := it.lm.next()
		if err == io.EOF {
			// Finish the right-side key count so the reduce wave is charged
			// as the hash engine charged it.
			if err := it.drainRight(); err != nil {
				return nil, err
			}
			if !it.charged {
				it.charged = true
				it.s.job.stats.reduceTasks.Add(int64(2 * (reducersFor(it.distinctRight) - 1)))
			}
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

// advanceRight loads the right lookahead, counting distinct right keys as
// they stream past.
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
	if !it.rSeen || !bytes.Equal(key, it.rLast) {
		it.rSeen = true
		it.distinctRight++
		it.rLast = append(it.rLast[:0], key...)
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

// drainRight consumes the rest of the right stream for key counting.
func (it *joinIter) drainRight() error {
	it.rOK = false
	for {
		ok, err := it.advanceRight()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		it.rOK = false
	}
}

func (it *joinIter) Close() error {
	err := it.lm.Close()
	if rerr := it.rm.Close(); err == nil {
		err = rerr
	}
	return err
}

// Distinct removes duplicate tuples (whole-row comparison). It is an
// external operator: rows shuffle into sorted runs under Job.MemoryBudget
// and the merge emits the first occurrence of each key, so deduplication
// holds no seen-set — one key comparison per tuple. Output arrives in
// ascending (whole-row) key order.
func (d *Dataset) Distinct() *Dataset {
	idx := make([]int, len(d.schema))
	for i := range idx {
		idx[i] = i
	}
	return &Dataset{job: d.job, schema: d.schema, cleanup: d.cleanup, open: func() (Iterator, error) {
		st := newSpillTable(d.job, idx, noSort)
		if err := st.fill(d); err != nil {
			return nil, err
		}
		d.job.stats.reduceTasks.Add(1) // base wave; topped up at end of merge
		d.job.stats.mergePasses.Add(1)
		tmMergePasses.Inc()
		m, err := st.mergeAll()
		if err != nil {
			st.Close()
			return nil, err
		}
		return &distinctIter{job: d.job, st: st, m: m}, nil
	}}
}

type distinctIter struct {
	job     *Job
	st      *spillTable
	m       *mergeIter
	last    []byte
	started bool
	total   int
	charged bool
	err     error // sticky: a failed merge cannot be skipped
}

func (it *distinctIter) Next() (Tuple, error) {
	if it.err != nil {
		return nil, it.err
	}
	for {
		key, t, err := it.m.next()
		if err == io.EOF {
			if !it.charged {
				it.charged = true
				it.job.stats.reduceTasks.Add(int64(reducersFor(it.total) - 1))
			}
			return nil, io.EOF
		}
		if err != nil {
			it.err = err
			return nil, err
		}
		if it.started && bytes.Equal(key, it.last) {
			continue
		}
		it.started = true
		it.last = append(it.last[:0], key...)
		it.total++
		return t, nil
	}
}

func (it *distinctIter) Close() error {
	err := it.m.Close()
	if cerr := it.st.Close(); err == nil {
		err = cerr
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
	return d.OrderByColumns(Order{Col: col, Desc: !ascending})
}

// OrderByColumns sorts by multiple columns applied in sequence — the
// multi-column generalization of OrderBy, with the same stability.
func (d *Dataset) OrderByColumns(orders ...Order) (*Dataset, error) {
	spec, err := d.resolveOrders(orders)
	if err != nil {
		return nil, err
	}
	st := newSpillTable(d.job, nil, spec)
	if err := st.fill(d); err != nil {
		return nil, err
	}
	d.job.stats.reduceTasks.Add(1) // the sort's reduce wave
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
