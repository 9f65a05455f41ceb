package dataflow

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"testing"
	"time"

	"unilog/internal/hdfs"
)

// parJob is spillJob with an explicit worker cap and merge fan-in.
func parJob(t *testing.T, budget int64, par, fanIn int) *Job {
	t.Helper()
	j := spillJob(t, budget)
	j.Parallelism = par
	j.maxMergeFanIn = fanIn
	return j
}

type opsSuiteResult struct {
	agg, red, ordered, asc, desc string
	stats                        Stats
}

// opsSuiteSplits is how many splits each input of the ops suite is cut
// into: enough that a pool of 8 decodes them out of plan order.
const opsSuiteSplits = 10

// runOpsSuite executes one fixed relational workload — every external
// operator, each fed by a scan of opsSuiteSplits splits whose earliest
// splits finish last — under the given budget/parallelism/fan-in and
// renders each output relation to a string. Two runs are equivalent iff
// the strings (rows AND order) and the stats match.
func runOpsSuite(t *testing.T, budget int64, par, fanIn int) opsSuiteResult {
	t.Helper()
	j := parJob(t, budget, par, fanIn)
	build := func() *Dataset {
		rng := rand.New(rand.NewSource(401))
		tuples := make([]Tuple, 2500)
		for i := range tuples {
			tuples[i] = Tuple{
				fmt.Sprintf("k%03d", rng.Intn(60)),
				mixedValue(rng),
				int64(i),
			}
		}
		return scanDataset(t, j, splitFixture(Schema{"k", "v", "pos"}, tuples, opsSuiteSplits))
	}
	var res opsSuiteResult
	render := func(d *Dataset) string {
		t.Helper()
		rows, err := d.Tuples()
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%v", rows)
	}

	g, err := build().GroupBy("k")
	if err != nil {
		t.Fatal(err)
	}
	agg, err := g.Sum("pos", "sum")
	if err != nil {
		t.Fatal(err)
	}
	res.agg = render(agg)
	red, err := g.ForEachGroup(Schema{"size", "first"}, func(key Tuple, group []Tuple) Tuple {
		return Tuple{int64(len(group)), group[0][2]}
	})
	if err != nil {
		t.Fatal(err)
	}
	res.red = render(red)
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}

	// Ordered grouping: within-group tuple order is part of the contract.
	og, err := build().GroupByOrdered("v", "k")
	if err != nil {
		t.Fatal(err)
	}
	ored, err := og.ForEachGroup(Schema{"rows"}, func(key Tuple, group []Tuple) Tuple {
		return Tuple{fmt.Sprintf("%v", group)}
	})
	if err != nil {
		t.Fatal(err)
	}
	res.ordered = render(ored)
	if err := og.Close(); err != nil {
		t.Fatal(err)
	}

	for _, asc := range []bool{true, false} {
		sorted, err := build().OrderBy("v", asc)
		if err != nil {
			t.Fatal(err)
		}
		s := render(sorted)
		if err := sorted.Close(); err != nil {
			t.Fatal(err)
		}
		if asc {
			res.asc = s
		} else {
			res.desc = s
		}
	}

	if files := spillFiles(t, j); len(files) != 0 {
		t.Fatalf("par=%d budget=%d left spill files: %v", par, budget, files)
	}
	res.stats = j.Stats()
	return res
}

// TestParallelOpsByteIdenticalToSerial is the equivalence property of
// the one parallel stage: for every external operator, a pipeline fed by
// the parallel scan produces relations byte-identical to one fed by the
// serial scan — same rows, same order — and identical cost accounting,
// run geometry included, across worker counts and budgets (in-memory,
// spilling, and spilling with a tiny fan-in that forces cascaded merges).
func TestParallelOpsByteIdenticalToSerial(t *testing.T) {
	cells := []struct {
		budget int64
		fanIn  int
	}{
		{0, 0},
		{32 << 10, 0},
		{2 << 10, 2}, // cascade-forcing: many runs, fan-in 2
	}
	for _, cell := range cells {
		ref := runOpsSuite(t, cell.budget, 1, cell.fanIn)
		if cell.budget > 0 && ref.stats.SpillRuns == 0 {
			t.Fatalf("budget %d never spilled — cell does not exercise the out-of-core path", cell.budget)
		}
		if cell.fanIn == 2 && ref.stats.CascadePasses == 0 {
			t.Fatal("fan-in 2 cell never cascaded")
		}
		for _, par := range []int{2, 8} {
			got := runOpsSuite(t, cell.budget, par, cell.fanIn)
			for what, pair := range map[string][2]string{
				"sum":            {ref.agg, got.agg},
				"foreachgroup":   {ref.red, got.red},
				"groupbyordered": {ref.ordered, got.ordered},
				"orderby-asc":    {ref.asc, got.asc},
				"orderby-desc":   {ref.desc, got.desc},
			} {
				if pair[0] != pair[1] {
					t.Fatalf("budget %d fanIn %d par %d: %s diverged from serial\nserial:   %.240s\nparallel: %.240s",
						cell.budget, cell.fanIn, par, what, pair[0], pair[1])
				}
			}
			if ref.stats != got.stats {
				t.Fatalf("budget %d fanIn %d par %d: stats diverged\nserial:   %+v\nparallel: %+v",
					cell.budget, cell.fanIn, par, ref.stats, got.stats)
			}
		}
	}
}

// fakeFormat is an in-package InputFormat over fabricated splits, with
// per-split artificial latency (so completion order differs from plan
// order) and injectable decode failures.
type fakeFormat struct {
	schema Schema
	rows   map[string][]Tuple
	delays map[string]time.Duration
	fail   map[string]error
}

func (f *fakeFormat) Schema() Schema { return f.schema }

func (f *fakeFormat) Splits(fs *hdfs.FS, dir string) ([]Split, error) {
	var paths []string
	for p := range f.rows {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	splits := make([]Split, len(paths))
	for i, p := range paths {
		splits[i] = Split{Path: p, Size: int64(len(f.rows[p]))}
	}
	return splits, nil
}

func (f *fakeFormat) ReadSplit(fs *hdfs.FS, sp Split, emit func(Tuple) error) error {
	time.Sleep(f.delays[sp.Path])
	if err := f.fail[sp.Path]; err != nil {
		return err
	}
	for _, t := range f.rows[sp.Path] {
		if err := emit(append(Tuple(nil), t...)); err != nil {
			return err
		}
	}
	return nil
}

// scanFixture builds n splits where the EARLIEST splits are the slowest,
// so a parallel pool completes them out of plan order.
func scanFixture(n int) *fakeFormat {
	f := &fakeFormat{schema: Schema{"path", "seq"}, rows: map[string][]Tuple{}, delays: map[string]time.Duration{}, fail: map[string]error{}}
	for i := 0; i < n; i++ {
		path := fmt.Sprintf("split-%02d", i)
		for r := 0; r <= i%4; r++ {
			f.rows[path] = append(f.rows[path], Tuple{path, int64(r)})
		}
		f.delays[path] = time.Duration(n-i) * time.Millisecond
	}
	return f
}

// splitFixture cuts a relation into n contiguous splits, again with the
// earliest splits the slowest, so any operator can be fed by a scan that
// completes out of plan order.
func splitFixture(schema Schema, tuples []Tuple, n int) *fakeFormat {
	f := &fakeFormat{schema: schema, rows: map[string][]Tuple{}, delays: map[string]time.Duration{}}
	per := (len(tuples) + n - 1) / n
	for i := 0; i < n; i++ {
		path := fmt.Sprintf("split-%02d", i)
		f.rows[path] = tuples[min(i*per, len(tuples)):min((i+1)*per, len(tuples))]
		f.delays[path] = time.Duration(n-i) * 100 * time.Microsecond
	}
	return f
}

func scanDataset(t *testing.T, j *Job, f *fakeFormat) *Dataset {
	t.Helper()
	splits, err := f.Splits(j.FS, "")
	if err != nil {
		t.Fatal(err)
	}
	return j.datasetForSplits(f, splits)
}

// TestParallelScanOrderedByteIdentical: the default (ordered) parallel
// scan delivers tuples in exactly serial plan order even when split
// completion order is reversed, with identical cost accounting.
func TestParallelScanOrderedByteIdentical(t *testing.T) {
	f := scanFixture(12)
	run := func(par int) (string, Stats) {
		j := NewJob("scan", hdfs.New(0))
		j.Parallelism = par
		rows, err := scanDataset(t, j, f).Tuples()
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%v", rows), j.Stats()
	}
	serialRows, serialStats := run(1)
	for _, par := range []int{2, 4, 8, 32} {
		rows, stats := run(par)
		if rows != serialRows {
			t.Fatalf("par %d: scan order diverged\nserial:   %.200s\nparallel: %.200s", par, serialRows, rows)
		}
		if stats != serialStats {
			t.Fatalf("par %d: scan stats diverged\nserial:   %+v\nparallel: %+v", par, serialStats, stats)
		}
	}
}

// TestParallelScanErrorSticky: a failing split surfaces its error at the
// same plan-order position as the serial scan, charges the same
// plan-order prefix of map tasks, and stays sticky on further Next calls.
func TestParallelScanErrorSticky(t *testing.T) {
	boom := errors.New("decode failed")
	run := func(par int) (int, Stats) {
		f := scanFixture(12)
		f.fail["split-07"] = boom
		j := NewJob("scan", hdfs.New(0))
		j.Parallelism = par
		it, err := scanDataset(t, j, f).open()
		if err != nil {
			t.Fatal(err)
		}
		defer it.Close()
		delivered := 0
		for {
			_, err := it.Next()
			if err == nil {
				delivered++
				continue
			}
			if !errors.Is(err, boom) {
				t.Fatalf("par %d: err = %v, want the decode error", par, err)
			}
			break
		}
		if _, err := it.Next(); !errors.Is(err, boom) {
			t.Fatalf("par %d: error not sticky, got %v", par, err)
		}
		return delivered, j.Stats()
	}
	serialN, serialStats := run(1)
	parN, parStats := run(4)
	if parN != serialN {
		t.Fatalf("delivered %d tuples before the error, serial delivered %d", parN, serialN)
	}
	if parStats != serialStats {
		t.Fatalf("error-path stats diverged:\nserial:   %+v\nparallel: %+v", serialStats, parStats)
	}
	if parStats.MapTasks != 8 {
		t.Fatalf("MapTasks = %d, want the plan-order prefix 8 (splits 0..7)", parStats.MapTasks)
	}
}

// TestParallelScanLimitChargesPrefix: a consumer that stops early (a
// limit: its Each callback returns an error after the first tuple) charges
// only the plan-order prefix of splits it consumed, exactly like the
// serial scan — regardless of how many splits the prefetch pool decoded.
func TestParallelScanLimitChargesPrefix(t *testing.T) {
	f := scanFixture(12)
	enough := errors.New("limit reached")
	run := func(par int) Stats {
		j := NewJob("scan", hdfs.New(0))
		j.Parallelism = par
		n := 0
		err := scanDataset(t, j, f).Each(func(Tuple) error {
			n++
			return enough
		})
		if !errors.Is(err, enough) || n != 1 {
			t.Fatalf("par %d: limit consumed %d tuples, %v", par, n, err)
		}
		return j.Stats()
	}
	serialStats := run(1)
	parStats := run(4)
	if parStats != serialStats {
		t.Fatalf("limit stats diverged:\nserial:   %+v\nparallel: %+v", serialStats, parStats)
	}
	if parStats.MapTasks != 1 {
		t.Fatalf("MapTasks = %d, want 1 (only the first split was delivered)", parStats.MapTasks)
	}
}

// drainIter reads an iterator to EOF, failing the test on any error.
func drainIter(t *testing.T, it Iterator) int {
	t.Helper()
	n := 0
	for {
		_, err := it.Next()
		if err == io.EOF {
			return n
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
}

// TestParallelScanCloseMidStream: abandoning a parallel scan mid-stream
// (Close without EOF) joins the worker pool without deadlock and the
// next pipeline over the same spec still sees every tuple.
func TestParallelScanCloseMidStream(t *testing.T) {
	f := scanFixture(12)
	j := NewJob("scan", hdfs.New(0))
	j.Parallelism = 4
	d := scanDataset(t, j, f)
	it, err := d.open()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := it.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	it2, err := d.open()
	if err != nil {
		t.Fatal(err)
	}
	defer it2.Close()
	want := 0
	for _, rows := range f.rows {
		want += len(rows)
	}
	if n := drainIter(t, it2); n != want {
		t.Fatalf("re-opened scan delivered %d tuples, want %d", n, want)
	}
}
