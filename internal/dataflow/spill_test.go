package dataflow

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"unilog/internal/hdfs"
	"unilog/internal/recordio"
)

// spillJob returns a job whose external operators spill into an observable
// directory under a deliberately tiny budget.
func spillJob(t *testing.T, budget int64) *Job {
	t.Helper()
	j := NewJob("spill-test", hdfs.New(0))
	j.MemoryBudget = budget
	j.SpillDir = t.TempDir()
	return j
}

// spillFiles lists every file the job's external operators have staged:
// spill files and the cascade files that replace them.
func spillFiles(t *testing.T, j *Job) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(j.SpillDir, "unilog-*.crc"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// countGroups counts a Grouped's groups with one EachGroup pass.
func countGroups(t *testing.T, g *Grouped) int {
	t.Helper()
	n := 0
	if err := g.EachGroup(func(Tuple, []Tuple) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	return n
}

// wideDataset builds n tuples exercising every codec value kind, with keys
// drawn from k distinct groups.
func wideDataset(j *Job, n, k int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	tuples := make([]Tuple, n)
	for i := range tuples {
		tuples[i] = Tuple{
			fmt.Sprintf("key-%03d", rng.Intn(k)),
			int64(rng.Intn(1000)),
			rng.Float64(),
			rng.Intn(2) == 0,
			fmt.Sprintf("payload-%d-%s", i, string(make([]byte, rng.Intn(32)))),
			map[string]string{"client": fmt.Sprintf("c%d", rng.Intn(4))},
		}
	}
	return NewDataset(j, Schema{"k", "v", "f", "b", "s", "m"}, tuples)
}

func TestGroupBySpillsUnderBudget(t *testing.T) {
	j := spillJob(t, 512)
	d := wideDataset(j, 2000, 50, 1)
	g, err := d.GroupBy("k")
	if err != nil {
		t.Fatal(err)
	}
	st := j.Stats()
	if st.SpillRuns < 2 {
		t.Fatalf("spill runs = %d, want >= 2 under a 512-byte budget", st.SpillRuns)
	}
	if st.SpilledBytes == 0 || st.SpilledRecords == 0 {
		t.Fatalf("spill stats = %+v", st)
	}
	if len(spillFiles(t, j)) == 0 {
		t.Fatal("no spill files on disk while Grouped is live")
	}
	if n := countGroups(t, g); n != 50 {
		t.Fatalf("groups = %d, want 50", n)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if left := spillFiles(t, j); len(left) != 0 {
		t.Fatalf("spill files survived Close: %v", left)
	}
}

func TestZeroAndNegativeBudgetStayInMemory(t *testing.T) {
	for _, budget := range []int64{0, -1} {
		j := spillJob(t, budget)
		d := wideDataset(j, 500, 10, 2)
		g, err := d.GroupBy("k")
		if err != nil {
			t.Fatal(err)
		}
		res, err := g.Sum("v", "sum")
		if err != nil {
			t.Fatal(err)
		}
		rows, err := res.Tuples()
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 10 {
			t.Fatalf("budget %d: groups = %d", budget, len(rows))
		}
		st := j.Stats()
		if st.SpillRuns != 0 || st.SpilledBytes != 0 {
			t.Fatalf("budget %d spilled: %+v", budget, st)
		}
		if files := spillFiles(t, j); len(files) != 0 {
			t.Fatalf("budget %d left files: %v", budget, files)
		}
		g.Close()
	}
}

// renderRows canonicalizes a relation for comparison as a multiset.
func renderRows(rows []Tuple) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprintf("%v", r)
	}
	sort.Strings(out)
	return out
}

// TestGroupBySpillMatchesInMemory is the acceptance property: on
// randomized datasets, the spilling path and the in-memory path produce
// identical relations — same rows, same order — for Sum and ForEachGroup.
func TestGroupBySpillMatchesInMemory(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 200 + rng.Intn(1500)
		k := 1 + rng.Intn(80)

		run := func(budget int64) ([]Tuple, []Tuple, int) {
			j := spillJob(t, budget)
			d := wideDataset(j, n, k, seed)
			g, err := d.GroupBy("k", "b")
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			agg, err := g.Sum("v", "sum")
			if err != nil {
				t.Fatal(err)
			}
			aggRows, err := agg.Tuples()
			if err != nil {
				t.Fatal(err)
			}
			red, err := g.ForEachGroup(Schema{"size", "firstv"}, func(key Tuple, group []Tuple) Tuple {
				return Tuple{int64(len(group)), group[0][1]}
			})
			if err != nil {
				t.Fatal(err)
			}
			redRows, err := red.Tuples()
			if err != nil {
				t.Fatal(err)
			}
			return aggRows, redRows, j.Stats().SpillRuns
		}

		memAgg, memRed, memSpills := run(0)
		spillAgg, spillRed, spills := run(256)
		if memSpills != 0 {
			t.Fatalf("seed %d: in-memory run spilled", seed)
		}
		if spills == 0 {
			t.Fatalf("seed %d: budgeted run never spilled (n=%d)", seed, n)
		}
		// Same rows in the same (globally key-sorted) order.
		if fmt.Sprintf("%v", memAgg) != fmt.Sprintf("%v", spillAgg) {
			t.Fatalf("seed %d: sum diverged\nmem:   %v\nspill: %v", seed, memAgg, spillAgg)
		}
		if fmt.Sprintf("%v", memRed) != fmt.Sprintf("%v", spillRed) {
			t.Fatalf("seed %d: reduce diverged\nmem:   %v\nspill: %v", seed, memRed, spillRed)
		}
	}
}

// TestSpillFileCorruption: flipped bits in a spill file surface as a clean
// recordio.ErrCorrupt from the reduce pass — no panic, no silent partial
// group — and Close still removes the files.
func TestSpillFileCorruption(t *testing.T) {
	j := spillJob(t, 512)
	g, err := wideDataset(j, 2000, 50, 3).GroupBy("k")
	if err != nil {
		t.Fatal(err)
	}
	files := spillFiles(t, j)
	if len(files) == 0 {
		t.Fatal("no spill files to corrupt")
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(files[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, aerr := g.Sum("v", "n")
	if aerr == nil {
		t.Fatal("sum over corrupted spill succeeded")
	}
	if !errors.Is(aerr, recordio.ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", aerr)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if left := spillFiles(t, j); len(left) != 0 {
		t.Fatalf("spill files survived Close after error: %v", left)
	}
}

// TestSpillFileTruncation: a truncated spill file (a lost write) surfaces
// recordio.ErrTruncated cleanly.
func TestSpillFileTruncation(t *testing.T) {
	j := spillJob(t, 512)
	g, err := wideDataset(j, 2000, 50, 4).GroupBy("k")
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	files := spillFiles(t, j)
	if len(files) == 0 {
		t.Fatal("no spill files to truncate")
	}
	fi, err := os.Stat(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(files[0], fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	_, aerr := g.ForEachGroup(Schema{"n"}, func(key Tuple, group []Tuple) Tuple {
		return Tuple{int64(len(group))}
	})
	if !errors.Is(aerr, recordio.ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", aerr)
	}
}

// TestSpillEncodeErrorCleansUp: a tuple the codec cannot serialize fails
// the shuffle with a clean error and leaves no temp files behind.
func TestSpillEncodeErrorCleansUp(t *testing.T) {
	j := spillJob(t, 64)
	type opaque struct{ x int }
	tuples := make([]Tuple, 200)
	for i := range tuples {
		tuples[i] = Tuple{"k", opaque{i}}
	}
	d := NewDataset(j, Schema{"k", "v"}, tuples)
	_, err := d.GroupBy("k")
	if err == nil {
		t.Fatal("group-by of unspillable values under a budget succeeded")
	}
	if left := spillFiles(t, j); len(left) != 0 {
		t.Fatalf("encode error leaked spill files: %v", left)
	}
	// The same relation groups fine in memory, where no codec is needed.
	j2 := spillJob(t, 0)
	d2 := NewDataset(j2, Schema{"k", "v"}, tuples)
	g, err := d2.GroupBy("k")
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if n := countGroups(t, g); n != 1 {
		t.Fatalf("in-memory groups = %d", n)
	}
}

// TestGroupAllSpills: even the single global group stages through disk
// under a budget, and a streaming Sum still folds it exactly.
func TestGroupAllSpills(t *testing.T) {
	j := spillJob(t, 256)
	tuples := make([]Tuple, 3000)
	var want int64
	for i := range tuples {
		tuples[i] = Tuple{int64(i)}
		want += int64(i)
	}
	g, err := NewDataset(j, Schema{"c"}, tuples).GroupAll()
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if j.Stats().SpilledRecords == 0 {
		t.Fatal("GROUP ALL under budget never spilled")
	}
	res, err := g.Sum("c", "total")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := res.Tuples()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].(int64) != want {
		t.Fatalf("rows = %v, want sum %d", rows, want)
	}
	err = g.EachGroup(func(_ Tuple, group []Tuple) error {
		if len(group) != 3000 {
			t.Fatalf("group all holds %d tuples, want 3000", len(group))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestLoadIsLazy: planning a scan charges nothing; each execution charges
// one full pass.
func TestLoadIsLazy(t *testing.T) {
	fs := hdfs.New(0)
	populate(t, fs)
	j := NewJob("lazy", fs)
	d, err := j.LoadClientEventsDay(day)
	if err != nil {
		t.Fatal(err)
	}
	if st := j.Stats(); st.MapTasks != 0 || st.BytesRead != 0 || st.RecordsRead != 0 {
		t.Fatalf("planning charged I/O: %+v", st)
	}
	if _, err := d.Count(); err != nil {
		t.Fatal(err)
	}
	first := j.Stats()
	if first.MapTasks == 0 || first.RecordsRead != 80 {
		t.Fatalf("first pass stats = %+v", first)
	}
	if _, err := d.Count(); err != nil {
		t.Fatal(err)
	}
	second := j.Stats()
	if second.RecordsRead != 2*first.RecordsRead || second.MapTasks != 2*first.MapTasks {
		t.Fatalf("second pass not metered: %+v", second)
	}
}

// TestLimitStopsScanEarly: a consumer that stops after its first few
// tuples (a limit: its Each callback returns an error) does not read every
// split of a lazy scan.
func TestLimitStopsScanEarly(t *testing.T) {
	fs := hdfs.New(0)
	populate(t, fs) // 8 hour-files of 10 events each
	j := NewJob("limit", fs)
	d, err := j.LoadClientEventsDay(day)
	if err != nil {
		t.Fatal(err)
	}
	enough := errors.New("limit reached")
	n := 0
	err = d.Each(func(Tuple) error {
		if n++; n == 5 {
			return enough
		}
		return nil
	})
	if !errors.Is(err, enough) || n != 5 {
		t.Fatalf("limit = %d, %v", n, err)
	}
	if st := j.Stats(); st.MapTasks >= 8 {
		t.Fatalf("limit scanned every split: %+v", st)
	}
}

// TestGroupByKeysWithEmbeddedNUL: a NUL inside one key column must not
// shift the component boundary and merge distinct multi-column keys.
func TestGroupByKeysWithEmbeddedNUL(t *testing.T) {
	j := NewJob("nul", hdfs.New(0))
	d := NewDataset(j, Schema{"a", "b"}, []Tuple{
		{"x\x00y", "z"},
		{"x", "y\x00z"},
		{"x\x00y", "z"},
	})
	g, err := d.GroupBy("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if n := countGroups(t, g); n != 2 {
		t.Fatalf("groups = %d, want 2 (NUL shifted a key boundary)", n)
	}
}

// TestClosedGroupedErrs: reducing after Close is an error, not a silently
// empty relation.
func TestClosedGroupedErrs(t *testing.T) {
	j := NewJob("closed", hdfs.New(0))
	d := NewDataset(j, Schema{"k"}, []Tuple{{"a"}, {"b"}})
	g, err := d.GroupBy("k")
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Sum("k", "n"); !errors.Is(err, errSpillClosed) {
		t.Fatalf("sum over closed Grouped: err = %v", err)
	}
	if err := g.EachGroup(func(Tuple, []Tuple) error { return nil }); !errors.Is(err, errSpillClosed) {
		t.Fatalf("EachGroup over closed Grouped: err = %v", err)
	}
}

// TestDerivedDatasetCloseReleasesOrderBy: closing a Filter over an
// OrderBy output releases the sort's spill files (cleanup propagates
// through streaming wrappers).
func TestDerivedDatasetCloseReleasesOrderBy(t *testing.T) {
	j := spillJob(t, 128)
	sorted, err := wideDataset(j, 400, 20, 8).OrderBy("k", true)
	if err != nil {
		t.Fatal(err)
	}
	filtered := sorted.Filter(func(Tuple) bool { return true })
	if len(spillFiles(t, j)) == 0 {
		t.Fatal("OrderBy under budget produced no spill files")
	}
	if _, err := filtered.Count(); err != nil {
		t.Fatal(err)
	}
	if err := filtered.Close(); err != nil {
		t.Fatal(err)
	}
	if left := spillFiles(t, j); len(left) != 0 {
		t.Fatalf("closing the derived view leaked OrderBy spill files: %v", left)
	}
	// The shared state is gone: iterating either handle now errs.
	if _, err := sorted.Count(); err == nil {
		t.Fatal("iterating a closed OrderBy succeeded")
	}
}
