package dataflow

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"unilog/internal/recordio"
)

// TestMergeReduceBoundedByRunFanIn is the acceptance property of the
// sort-merge rework: a reduce pass over a spilled shuffle is a k-way merge
// whose live state is one buffered tuple per run — tracked by the
// MergeRuns/PeakRunFanIn stats — and never a per-group hash map. The
// fan-in must be explained entirely by the spilled runs plus the one
// sorted residue, independent of the 400 groups.
func TestMergeReduceBoundedByRunFanIn(t *testing.T) {
	j := spillJob(t, 4096)
	d := wideDataset(j, 4000, 400, 11)
	g, err := d.GroupBy("k")
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if _, err := g.Sum("v", "sum"); err != nil {
		t.Fatal(err)
	}
	st := j.Stats()
	if st.SpillRuns == 0 {
		t.Fatal("budgeted shuffle wrote no sorted runs")
	}
	if st.MergePasses == 0 || st.MergeRuns == 0 {
		t.Fatalf("merge stats not recorded: %+v", st)
	}
	if st.PeakRunFanIn < 2 {
		t.Fatalf("peak fan-in = %d, want a real multi-run merge", st.PeakRunFanIn)
	}
	if max := st.SpillRuns + 1; st.PeakRunFanIn > max {
		t.Fatalf("fan-in %d exceeds runs+residues %d — reduce memory not bounded by run fan-in", st.PeakRunFanIn, max)
	}
}

// TestGroupByOrderedDeliversSortedGroups: with a secondary sort column the
// merge hands each group to the reducer already ordered by that column,
// ties in input order — no per-group re-sort — and the groups are
// byte-identical in memory, spilled, and through a cascade at fan-in 2.
func TestGroupByOrderedDeliversSortedGroups(t *testing.T) {
	var want string
	for _, cell := range []struct {
		budget int64
		fanIn  int
	}{{0, 0}, {256, 0}, {256, 2}} {
		budget := cell.budget
		j := spillJob(t, budget)
		j.maxMergeFanIn = cell.fanIn
		rng := rand.New(rand.NewSource(7))
		var tuples []Tuple
		for i := 0; i < 1200; i++ {
			tuples = append(tuples, Tuple{
				fmt.Sprintf("u%02d", rng.Intn(20)),
				int64(rng.Intn(50)), // deliberately many ties
				int64(i),            // input position
			})
		}
		g, err := NewDataset(j, Schema{"u", "ts", "pos"}, tuples).GroupByOrdered("ts", "u")
		if err != nil {
			t.Fatal(err)
		}
		groups := 0
		var lastKey string
		var out strings.Builder
		err = g.EachGroup(func(key Tuple, group []Tuple) error {
			groups++
			k := key[0].(string)
			if groups > 1 && k <= lastKey {
				t.Fatalf("budget %d: groups out of key order: %q after %q", budget, k, lastKey)
			}
			lastKey = k
			for i := 1; i < len(group); i++ {
				a, b := group[i-1], group[i]
				if a[1].(int64) > b[1].(int64) {
					t.Fatalf("budget %d: group %q not ordered by ts: %v then %v", budget, k, a, b)
				}
				if a[1].(int64) == b[1].(int64) && a[2].(int64) > b[2].(int64) {
					t.Fatalf("budget %d: equal ts lost input order in group %q: %v then %v", budget, k, a, b)
				}
			}
			fmt.Fprintln(&out, key, group)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if groups != 20 {
			t.Fatalf("budget %d: groups = %d, want 20", budget, groups)
		}
		if budget > 0 && j.Stats().SpillRuns == 0 {
			t.Fatal("budgeted ordered group-by never spilled a run")
		}
		if cell.fanIn == 2 && j.Stats().CascadePasses == 0 {
			t.Fatal("fan-in 2 ordered group-by never cascaded")
		}
		if budget == 0 {
			want = out.String()
		} else if out.String() != want {
			t.Fatalf("budget %d fan-in %d: groups differ from the in-memory path", budget, cell.fanIn)
		}
		g.Close()
	}
}

func TestGroupByOrderedUnknownColumn(t *testing.T) {
	d := NewDataset(emptyJob(), Schema{"a"}, []Tuple{{int64(1)}})
	if _, err := d.GroupByOrdered("nope", "a"); !errors.Is(err, ErrNoColumn) {
		t.Fatalf("err = %v", err)
	}
}

// mixedValue draws a value from a deliberately mixed-type domain so sort
// columns contain int64s, floats, and strings side by side.
func mixedValue(rng *rand.Rand) Value {
	switch rng.Intn(4) {
	case 0:
		return int64(rng.Intn(40) - 20)
	case 1:
		return float64(rng.Intn(40)) / 4
	case 2:
		return fmt.Sprintf("s%02d", rng.Intn(30))
	default:
		return int64(rng.Intn(10)) // extra duplicate mass
	}
}

// TestSortMergePropertyBudgetSweep is the satellite property: across
// random relations and a budget sweep, GroupBy/Sum, ForEachGroup, and
// OrderBy (both directions, including mixed numeric/string sort columns and
// heavy duplicates) produce relations identical — rows *and* order — to the
// in-memory path.
func TestSortMergePropertyBudgetSweep(t *testing.T) {
	budgets := []int64{128, 1024, 16 << 10}
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed + 900))
		n := 300 + rng.Intn(1200)
		build := func(j *Job) *Dataset {
			r := rand.New(rand.NewSource(seed))
			tuples := make([]Tuple, n)
			for i := range tuples {
				tuples[i] = Tuple{
					fmt.Sprintf("k%02d", r.Intn(25)),
					mixedValue(r),
					int64(i),
				}
			}
			return NewDataset(j, Schema{"k", "v", "pos"}, tuples)
		}
		type result struct {
			agg, red, asc, desc string
			spilled             int
		}
		run := func(budget int64) result {
			j := spillJob(t, budget)
			var res result
			g, err := build(j).GroupBy("k")
			if err != nil {
				t.Fatal(err)
			}
			agg, err := g.Sum("pos", "sum")
			if err != nil {
				t.Fatal(err)
			}
			aggRows, err := agg.Tuples()
			if err != nil {
				t.Fatal(err)
			}
			red, err := g.ForEachGroup(Schema{"size", "first"}, func(key Tuple, group []Tuple) Tuple {
				return Tuple{int64(len(group)), group[0][2]}
			})
			if err != nil {
				t.Fatal(err)
			}
			redRows, err := red.Tuples()
			if err != nil {
				t.Fatal(err)
			}
			g.Close()
			sortRows := func(ascending bool) string {
				sorted, err := build(j).OrderBy("v", ascending)
				if err != nil {
					t.Fatal(err)
				}
				rows, err := sorted.Tuples()
				if err != nil {
					t.Fatal(err)
				}
				if err := sorted.Close(); err != nil {
					t.Fatal(err)
				}
				return fmt.Sprintf("%v", rows)
			}
			res.asc = sortRows(true)
			res.desc = sortRows(false)
			res.agg = fmt.Sprintf("%v", aggRows)
			res.red = fmt.Sprintf("%v", redRows)
			res.spilled = j.Stats().SpillRuns
			if files := spillFiles(t, j); len(files) != 0 {
				t.Fatalf("seed %d budget %d left spill files: %v", seed, budget, files)
			}
			return res
		}
		ref := run(0)
		if ref.spilled != 0 {
			t.Fatalf("seed %d: in-memory reference spilled", seed)
		}
		for _, budget := range budgets {
			got := run(budget)
			if budget <= 1024 && got.spilled == 0 {
				t.Fatalf("seed %d budget %d: never spilled a run (n=%d)", seed, budget, n)
			}
			for what, pair := range map[string][2]string{
				"sum":          {ref.agg, got.agg},
				"foreachgroup": {ref.red, got.red},
				"orderby-asc":  {ref.asc, got.asc},
				"orderby-desc": {ref.desc, got.desc},
			} {
				if pair[0] != pair[1] {
					t.Fatalf("seed %d budget %d: %s diverged from in-memory path\nmem:   %.200s\nspill: %.200s",
						seed, budget, what, pair[0], pair[1])
				}
			}
		}
	}
}

// TestExternalOrderByNeverMaterializes: a relation far larger than the
// budget sorts through spilled runs (the Tuples() escape hatch would blow
// the budget's purpose), streams back fully ordered and stable on
// duplicates, supports re-iteration, and removes its runs on Close.
func TestExternalOrderByNeverMaterializes(t *testing.T) {
	j := spillJob(t, 1024)
	n := 5000
	tuples := make([]Tuple, n)
	rng := rand.New(rand.NewSource(42))
	for i := range tuples {
		tuples[i] = Tuple{int64(rng.Intn(100)), int64(i)}
	}
	sorted, err := NewDataset(j, Schema{"v", "pos"}, tuples).OrderBy("v", true)
	if err != nil {
		t.Fatal(err)
	}
	st := j.Stats()
	if st.SpilledRecords == 0 || st.SpillRuns < 2 {
		t.Fatalf("OrderBy under budget did not run externally: %+v", st)
	}
	if len(spillFiles(t, j)) == 0 {
		t.Fatal("no run files on disk while the sorted view is live")
	}
	check := func() {
		var prev Tuple
		count := 0
		err := sorted.Each(func(tp Tuple) error {
			if prev != nil {
				if prev[0].(int64) > tp[0].(int64) {
					t.Fatalf("out of order: %v then %v", prev, tp)
				}
				if prev[0].(int64) == tp[0].(int64) && prev[1].(int64) > tp[1].(int64) {
					t.Fatalf("unstable on duplicates: %v then %v", prev, tp)
				}
			}
			prev = tp
			count++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if count != n {
			t.Fatalf("sorted rows = %d, want %d", count, n)
		}
	}
	check()
	check() // the external sort is re-iterable until closed
	if err := sorted.Close(); err != nil {
		t.Fatal(err)
	}
	if left := spillFiles(t, j); len(left) != 0 {
		t.Fatalf("run files survived Close: %v", left)
	}
	if err := sorted.Each(func(Tuple) error { return nil }); err == nil {
		t.Fatal("iterating a closed external sort succeeded")
	}
}

// TestOrderByDescStableOnDuplicates: descending order also keeps equal
// keys in input order, on both paths.
func TestOrderByDescStableOnDuplicates(t *testing.T) {
	for _, budget := range []int64{0, 128} {
		j := spillJob(t, budget)
		d := NewDataset(j, Schema{"k", "tag"}, []Tuple{
			{int64(1), "a"}, {int64(2), "b"}, {int64(1), "c"}, {int64(2), "d"}, {int64(1), "e"},
		})
		sorted, err := d.OrderBy("k", false)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := sorted.Tuples()
		if err != nil {
			t.Fatal(err)
		}
		want := "[[2 b] [2 d] [1 a] [1 c] [1 e]]"
		if got := fmt.Sprintf("%v", rows); got != want {
			t.Fatalf("budget %d: desc order = %v, want %v", budget, got, want)
		}
		sorted.Close()
	}
}

// TestOrderByCostIndependentOfBudget: the memory budget is promised not to
// change a job's result, and that covers its modelled cost. A descending
// sort over heavy duplicates returns the stable reference order (equal keys
// in input order) byte for byte with no budget, with a budget that never
// trips, with one that spills and with one that spills through a cascade
// at fan-in 2 — and charges the same shuffle and the same merge pass in
// every cell.
func TestOrderByCostIndependentOfBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	in := make([]Tuple, 400)
	for i := range in {
		in[i] = Tuple{fmt.Sprintf("k%d", rng.Intn(4)), int64(rng.Intn(5)), int64(i)}
	}
	want := append([]Tuple(nil), in...)
	sort.SliceStable(want, func(a, b int) bool { return want[a][1].(int64) > want[b][1].(int64) })

	var ref Stats
	for _, cell := range []struct {
		budget int64
		fanIn  int
	}{{0, 0}, {1 << 30, 0}, {1 << 10, 0}, {1 << 10, 2}} {
		j := spillJob(t, cell.budget)
		j.maxMergeFanIn = cell.fanIn
		d, err := NewDataset(j, Schema{"k", "a", "pos"}, in).OrderBy("a", false)
		if err != nil {
			t.Fatalf("budget %d: %v", cell.budget, err)
		}
		rows, err := d.Tuples()
		if err != nil {
			t.Fatalf("budget %d: %v", cell.budget, err)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rows, want) {
			t.Fatalf("budget %d fan-in %d: rows differ from the stable reference sort", cell.budget, cell.fanIn)
		}
		st := j.Stats()
		if spilled := st.SpillRuns > 0; spilled != (cell.budget == 1<<10) {
			t.Fatalf("budget %d: spill runs = %d", cell.budget, st.SpillRuns)
		}
		if cascaded := st.CascadePasses > 0; cascaded != (cell.fanIn == 2) {
			t.Fatalf("budget %d fan-in %d: cascade passes = %d", cell.budget, cell.fanIn, st.CascadePasses)
		}
		if cell.budget == 0 {
			ref = st
			if ref.ShuffleRecords != int64(len(in)) || ref.MergePasses != 1 {
				t.Fatalf("unbudgeted sort charged %+v", ref)
			}
			continue
		}
		if st.ShuffleRecords != ref.ShuffleRecords || st.ShuffleBytes != ref.ShuffleBytes || st.MergePasses != ref.MergePasses {
			t.Fatalf("budget %d: cost depends on the budget\nunbudgeted: %+v\nbudgeted:   %+v", cell.budget, ref, st)
		}
	}
}

// corruptOneRunFile flips a byte in the middle of one spill file.
func corruptOneRunFile(t *testing.T, j *Job) {
	t.Helper()
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
}

// TestExternalOrderByCorruptRun: bit rot in a sorted run surfaces
// ErrCorrupt from the merged stream, and Close still removes the files.
func TestExternalOrderByCorruptRun(t *testing.T) {
	j := spillJob(t, 512)
	d := wideDataset(j, 2000, 50, 21)
	sorted, err := d.OrderBy("v", true)
	if err != nil {
		t.Fatal(err)
	}
	corruptOneRunFile(t, j)
	serr := sorted.Each(func(Tuple) error { return nil })
	if !errors.Is(serr, recordio.ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", serr)
	}
	if err := sorted.Close(); err != nil {
		t.Fatal(err)
	}
	if left := spillFiles(t, j); len(left) != 0 {
		t.Fatalf("run files survived Close after corruption: %v", left)
	}
}

// TestExternalOrderByTruncatedRun: a lost tail write surfaces
// ErrTruncated — including when the truncation makes a whole trailing run
// read as a clean-but-short section.
func TestExternalOrderByTruncatedRun(t *testing.T) {
	j := spillJob(t, 512)
	d := wideDataset(j, 2000, 50, 22)
	sorted, err := d.OrderBy("v", true)
	if err != nil {
		t.Fatal(err)
	}
	defer sorted.Close()
	files := spillFiles(t, j)
	if len(files) == 0 {
		t.Fatal("no run files to truncate")
	}
	fi, err := os.Stat(files[0])
	if err != nil {
		t.Fatal(err)
	}
	// Cut off the last half of the file: trailing runs vanish entirely,
	// which a naive section reader would serve as clean empty runs.
	if err := os.Truncate(files[0], fi.Size()/2); err != nil {
		t.Fatal(err)
	}
	serr := sorted.Each(func(Tuple) error { return nil })
	if !errors.Is(serr, recordio.ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", serr)
	}
}

// TestMergeAbandonReleasesRunFiles: abandoning a reduce mid-merge (a fn
// error) leaves no leaked descriptors holding the runs — Close still
// removes every file.
func TestMergeAbandonReleasesRunFiles(t *testing.T) {
	j := spillJob(t, 512)
	g, err := wideDataset(j, 2000, 50, 23).GroupBy("k")
	if err != nil {
		t.Fatal(err)
	}
	if len(spillFiles(t, j)) == 0 {
		t.Fatal("no spill files under budget")
	}
	boom := errors.New("stop after first group")
	seen := 0
	err = g.EachGroup(func(key Tuple, group []Tuple) error {
		seen++
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the reducer's error", err)
	}
	if seen != 1 {
		t.Fatalf("reducer ran %d times after aborting", seen)
	}
	// The abandoned merge must not have consumed the state: a fresh pass
	// still works.
	if n := countGroups(t, g); n != 50 {
		t.Fatalf("groups after abandoned merge = %d", n)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if left := spillFiles(t, j); len(left) != 0 {
		t.Fatalf("spill files survived Close after mid-merge abandon: %v", left)
	}
}
