// Package dataflow is a miniature Pig: a dataflow query engine over the
// warehouse filesystem that executes with MapReduce-shaped cost accounting.
//
// The paper's performance argument (§4) is not about absolute runtimes but
// about cluster mechanics: how many map tasks a query spawns, how many bytes
// it brute-force scans, and how much data the session group-by shuffles.
// This engine meters exactly those three quantities, and simulates no
// cluster time on top of them:
//
//   - one map task per input file (warehouse files are gzipped record
//     streams, and gzip is not splittable — as in Hadoop), the count behind
//     the paper's complaint that raw-log jobs "routinely spawned tens of
//     thousands of mappers and clogged our Hadoop jobtracker";
//   - bytes read come from the filesystem's own accounting;
//   - every GroupBy, GroupAll, Join and OrderBy charges shuffle bytes for
//     the tuples that move between the map and reduce sides.
//
// Execution is out-of-core, the way the MapReduce jobs it models are:
//
//   - A Dataset is a lazy pipeline node, not a materialized relation.
//     Filter, Project, and Union compose pull-based Iterators
//     (Volcano-style) and hold no tuples of their own; a scan buffers one
//     split at a time — exactly a map task's working set. A Project
//     directly on a scan of ClientEventFormat (pushdown.go) is not an
//     operator at all: it re-plans the scan with its columns, so the
//     reader builds only those (§4.1's early projection, pushed to where
//     the bytes are decoded).
//   - GroupBy, GroupAll, Join, and OrderBy are the pipeline breakers, and
//     they are external operators with a *sort-merge* shuffle, like the
//     Hadoop jobs they model: input tuples are buffered in one buffer that
//     numbers their distinct rendered keys and — each time the buffered
//     bytes exceed Job.MemoryBudget — sorted on (rendered key, optional
//     order column, insertion sequence) and appended to a CRC-framed spill
//     file as one budget-sized sorted run (spill.go). The sort compares
//     the distinct keys once to rank them and moves the tuples by a
//     counting sort on those ranks. The reduce side is a streaming
//     k-way merge over the runs (merge.go): groups arrive in global key
//     order with ordered tuples inside, reducers fold each group as it
//     streams by without any per-group hash map, and OrderBy is a merge
//     sort over the same runs. Peak reduce memory is the run fan-in — one
//     buffered tuple per run — not the group count. A zero or negative
//     budget (the default) never trips: the same table with one
//     never-spilled run, and identical output order.
//   - The group-bys are one push-fed shuffle (Shuffle): GroupBy,
//     GroupByOrdered and GroupAll pour a dataset into it, and a map-side
//     combiner that is not a dataset — a fold over column batches — adds
//     its partials to it directly, then groups them for the same reduce.
//   - A pushed-down projection can also be read without tuples:
//     Dataset.EachBatch (pushdown.go) hands ClientEventFormat's splits to
//     a fold one chunk.Batch of column vectors at a time — the batch the
//     tuple scan builds its tuples from — metering map tasks, records and
//     bytes read exactly as the tuple scan does.
//   - Only the tuple scan runs on more than one goroutine (parallel.go):
//     splits decode on a worker pool behind a reorder buffer that restores
//     plan order. EachBatch folds serially on the calling goroutine.
//     Everything after the scan is one streaming path.
//   - Terminal operations (Each, Tuples, Count, and the reduce-side calls
//     on Grouped) drive the pipeline. Every execution is metered: re-running
//     a pipeline really is another job, and the stats say so.
package dataflow

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"time"

	"unilog/internal/hdfs"
)

// ErrNoColumn reports a reference to a column missing from a schema.
var ErrNoColumn = errors.New("dataflow: no such column")

// Value is one field of a tuple: int64, float64, string, bool, or an opaque
// payload such as map[string]string.
type Value = any

// Tuple is one row.
type Tuple []Value

// Schema names the fields of a relation's tuples.
type Schema []string

// Index returns the position of the named column.
func (s Schema) Index(name string) (int, error) {
	for i, c := range s {
		if c == name {
			return i, nil
		}
	}
	return -1, fmt.Errorf("%w: %q in %v", ErrNoColumn, name, []string(s))
}

// MustIndex is Index for statically known columns.
func (s Schema) MustIndex(name string) int {
	i, err := s.Index(name)
	if err != nil {
		panic(err)
	}
	return i
}

// Stats aggregates the cost of every operator executed under one Job.
type Stats struct {
	// The §4 cost model: map tasks (one per split delivered to the
	// pipeline), the records and filesystem bytes those tasks read, and the
	// tuples and estimated bytes the external operators shuffled.
	MapTasks       int
	RecordsRead    int64
	BytesRead      int64
	ShuffleRecords int64
	ShuffleBytes   int64

	// Out-of-core accounting: what the external operators pushed to disk
	// when Job.MemoryBudget was exceeded — the peak-memory proxy.
	SpilledBytes   int64 // framed bytes written to spill files
	SpilledRecords int64 // tuples written to spill files
	SpillRuns      int   // sorted runs written, one per buffer-to-disk flush
	MergePasses    int   // streaming merge-reduce passes executed
	MergeRuns      int   // run cursors (spilled runs + sorted residues) consumed by merges
	PeakRunFanIn   int   // widest single k-way merge: peak reduce memory is one buffered tuple per run at this width
	CascadePasses  int   // cascade waves run to bring the run count under the merge fan-in cap
	CascadeRuns    int   // intermediate wider runs written by cascade passes
}

// Job is one logical analytics job; all datasets derived from it share its
// statistics and its memory budget.
type Job struct {
	Name string
	FS   *hdfs.FS

	// MemoryBudget bounds the tuple bytes an external operator (GroupBy,
	// GroupAll, Join, OrderBy) may buffer before it spills the buffer to
	// disk as a sorted run. <= 0 (the default) disables spilling:
	// everything stays in memory.
	MemoryBudget int64
	// SpillDir is where spill files are created; empty means os.TempDir().
	SpillDir string
	// Parallelism caps the tuple scan's decode workers; <= 0 (the default)
	// means runtime.GOMAXPROCS(0). Output is byte-identical at any setting.
	// EachBatch ignores it: a batch fold runs on the calling goroutine.
	Parallelism int

	// maxMergeFanIn caps how many run cursors a single streaming merge
	// holds open at once; 0 means defaultMaxMergeFanIn, and only tests set
	// anything else. When a tiny MemoryBudget accumulates more sorted runs
	// than the cap, the reduce side first runs cascaded merge passes —
	// batches of runs merged into single wider runs staged on disk — until
	// one merge fits, trading extra sequential I/O for bounded reduce
	// memory, as external sorts always have.
	maxMergeFanIn int

	stats jobStats
}

// NewJob returns a job reading from fs.
func NewJob(name string, fs *hdfs.FS) *Job { return &Job{Name: name, FS: fs} }

// Stats returns a snapshot of the job's accumulated cost counters. It is
// safe to call while a pipeline is executing; counters are charged
// atomically as work completes.
func (j *Job) Stats() Stats { return j.stats.snapshot() }

// parallelism resolves the scan's effective worker cap.
func (j *Job) parallelism() int {
	if j.Parallelism > 0 {
		return j.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// Iterator is a pull-based cursor over a tuple stream. Next returns io.EOF
// after the final tuple; Close releases any resources (open spill files,
// in-flight scans) and must be called even on early abandonment. The
// terminal helpers on Dataset do both for you.
type Iterator interface {
	Next() (Tuple, error)
	Close() error
}

// sliceIter iterates a materialized tuple slice.
type sliceIter struct {
	tuples []Tuple
	i      int
}

func (s *sliceIter) Next() (Tuple, error) {
	if s.i >= len(s.tuples) {
		return nil, io.EOF
	}
	t := s.tuples[s.i]
	s.i++
	return t, nil
}

func (s *sliceIter) Close() error { return nil }

// iterFunc adapts a pair of closures into an Iterator.
type iterFunc struct {
	next  func() (Tuple, error)
	close func() error
}

func (f *iterFunc) Next() (Tuple, error) { return f.next() }

func (f *iterFunc) Close() error {
	if f.close == nil {
		return nil
	}
	return f.close()
}

// Dataset is a lazy relation bound to a job: a schema plus a recipe for
// producing the tuples. Opening it executes the upstream pipeline.
type Dataset struct {
	job    *Job
	schema Schema
	open   func() (Iterator, error)
	// cleanup releases operator state backing this dataset (the spill
	// files behind a Join); nil for sources and streaming operators.
	cleanup func() error
	// scan is the plan of a bare pushed-down scan, which Project folds
	// into; nil for every other dataset.
	scan *pushdownScan
}

// NewDataset wraps already-materialized tuples (used by generators and
// tests).
func NewDataset(j *Job, schema Schema, tuples []Tuple) *Dataset {
	return &Dataset{job: j, schema: schema, open: func() (Iterator, error) {
		return &sliceIter{tuples: tuples}, nil
	}}
}

// Schema returns the dataset's schema.
func (d *Dataset) Schema() Schema { return d.schema }

// Open starts one execution of the pipeline and returns its cursor. Most
// callers want Each, Tuples, or Count instead.
func (d *Dataset) Open() (Iterator, error) { return d.open() }

// Close releases operator state backing this dataset — the spill files
// behind a Join output. Streaming wrappers (Filter, Project, Union)
// propagate their source's cleanup, so
// closing a derived view is equivalent to closing the operator output it
// wraps. It is a no-op when nothing upstream holds spill state. After
// Close the dataset (and any view sharing its state) must not be iterated
// again; doing so fails with an error rather than reading empty data.
func (d *Dataset) Close() error {
	if d.cleanup != nil {
		return d.cleanup()
	}
	return nil
}

// Each executes the pipeline once, invoking fn on every tuple in stream
// order. Delivered tuples are owned by the consumer: every source and
// operator in this package allocates a fresh Tuple per emitted row (the
// external operators rely on that to retain tuples in their run buffer),
// and any future InputFormat must do the same.
func (d *Dataset) Each(fn func(Tuple) error) error {
	it, err := d.open()
	if err != nil {
		return err
	}
	defer it.Close()
	for {
		t, err := it.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := fn(t); err != nil {
			return err
		}
	}
}

// Tuples executes the pipeline once and materializes every row — the
// escape hatch back into memory. Out-of-core pipelines should prefer Each.
func (d *Dataset) Tuples() ([]Tuple, error) {
	var out []Tuple
	err := d.Each(func(t Tuple) error {
		out = append(out, t)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Count executes the pipeline once and returns the number of tuples (a
// terminal operation).
func (d *Dataset) Count() (int64, error) {
	var n int64
	err := d.Each(func(Tuple) error {
		n++
		return nil
	})
	if err != nil {
		return 0, err
	}
	return n, nil
}

// Split is one unit of map-side work: a whole file (gzip streams are not
// splittable, mirroring Hadoop's handling of compressed inputs).
type Split struct {
	Path string
	Size int64
}

// InputFormat decodes splits into tuples. Implementations exist for client
// events (ClientEventFormat: sealed chunks and row files alike, through
// the day reader, with a Selection pushed into the scan), session
// sequences (SessionSequenceFormat) and legacy logs (RawRecordFormat).
// Every row file is read through chunk.ScanFileRecords, so a damaged
// file fails its split with the file's path.
type InputFormat interface {
	// Schema describes the tuples this format produces.
	Schema() Schema
	// Splits enumerates the map-side work for the files under dir.
	Splits(fs *hdfs.FS, dir string) ([]Split, error)
	// ReadSplit decodes one split, emitting each tuple.
	ReadSplit(fs *hdfs.FS, split Split, emit func(Tuple) error) error
}

// Load plans the map phase of a scan: splits are enumerated eagerly (so a
// missing directory fails here), but the files are read lazily, one task
// at a time, as the dataset is iterated. Each execution charges its I/O
// against the job.
func (j *Job) Load(dir string, f InputFormat) (*Dataset, error) {
	splits, err := f.Splits(j.FS, dir)
	if err != nil {
		return nil, err
	}
	return j.datasetForSplits(f, splits), nil
}

// LoadDirs is Load over several directories (e.g. the 24 hours of a day),
// concatenating the results; missing directories are skipped.
func (j *Job) LoadDirs(dirs []string, f InputFormat) (*Dataset, error) {
	splits, err := j.splitsOf(dirs, f)
	if err != nil {
		return nil, err
	}
	return j.datasetForSplits(f, splits), nil
}

// splitsOf enumerates the splits of every existing directory, in order.
func (j *Job) splitsOf(dirs []string, f InputFormat) ([]Split, error) {
	var all []Split
	for _, dir := range dirs {
		if !j.FS.Exists(dir) {
			continue
		}
		splits, err := f.Splits(j.FS, dir)
		if err != nil {
			return nil, err
		}
		all = append(all, splits...)
	}
	return all, nil
}

// scanSpec is the plan of a scan source: the format and the splits.
type scanSpec struct {
	format InputFormat
	splits []Split
}

func (j *Job) datasetForSplits(f InputFormat, splits []Split) *Dataset {
	sc := &scanSpec{format: f, splits: splits}
	return &Dataset{job: j, schema: f.Schema(), open: func() (Iterator, error) {
		return j.newScanIter(sc), nil
	}}
}

// newScanIter picks the scan execution for a spec: the serial split-by-
// split iterator when one worker (or one split) is all there is, the
// parallel decoder otherwise.
func (j *Job) newScanIter(sc *scanSpec) Iterator {
	n := j.parallelism()
	if n > len(sc.splits) {
		n = len(sc.splits)
	}
	if n <= 1 {
		return &splitIter{job: j, format: sc.format, splits: sc.splits}
	}
	return newParallelScan(j, sc, n)
}

// splitIter streams a scan split by split: one map task's tuples are
// buffered at a time, which is the same working set the task itself has.
// A failed split is sticky: every subsequent Next repeats the error, so a
// caller can never read past a decode failure into a silently incomplete
// relation.
type splitIter struct {
	job    *Job
	format InputFormat
	splits []Split
	cur    []Tuple
	i      int
	err    error
}

func (s *splitIter) Next() (Tuple, error) {
	for {
		if s.err != nil {
			return nil, s.err
		}
		if s.i < len(s.cur) {
			t := s.cur[s.i]
			s.i++
			s.job.stats.recordsRead.Add(1)
			return t, nil
		}
		if len(s.splits) == 0 {
			return nil, io.EOF
		}
		sp := s.splits[0]
		s.splits = s.splits[1:]
		s.job.stats.mapTasks.Add(1)
		t0 := time.Now()
		before := s.job.FS.Snapshot()
		s.cur = s.cur[:0]
		err := s.format.ReadSplit(s.job.FS, sp, func(t Tuple) error {
			s.cur = append(s.cur, t)
			return nil
		})
		after := s.job.FS.Snapshot()
		s.job.stats.bytesRead.Add(after.BytesRead - before.BytesRead)
		tmScanBytes.Add(after.BytesRead - before.BytesRead)
		tmScanSplitNs.ObserveSince(t0)
		if err != nil {
			s.cur, s.i = nil, 0
			s.err = err
			return nil, err
		}
		s.i = 0
	}
}

func (s *splitIter) Close() error { return nil }

// tupleBytes estimates the serialized size of a tuple for shuffle and
// spill-budget accounting.
func tupleBytes(t Tuple) int64 {
	var n int64
	for _, v := range t {
		switch x := v.(type) {
		case string:
			n += int64(len(x)) + 4
		case int64, float64:
			n += 8
		case int32, int:
			n += 4
		case bool:
			n += 1
		case map[string]string:
			for k, val := range x {
				n += int64(len(k)+len(val)) + 8
			}
		case []byte:
			n += int64(len(x)) + 4
		default:
			n += 8
		}
	}
	return n
}
