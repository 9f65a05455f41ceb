package dataflow

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"unilog/internal/hdfs"
)

// multiSortCorpus builds a deterministic relation with heavy duplication
// in every column, so multi-column ordering and stability both matter.
func multiSortCorpus(seed int64, n int) []Tuple {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Tuple, n)
	for i := range out {
		out[i] = Tuple{
			fmt.Sprintf("k%d", rng.Intn(4)),
			int64(rng.Intn(5)),
			fmt.Sprintf("v%02d", rng.Intn(8)),
			int64(i), // unique payload: exposes any order difference
		}
	}
	return out
}

var multiSortSchema = Schema{"k", "a", "b", "seq"}

// TestOrderByColumns checks the multi-column sort against a reference
// sort.SliceStable, on both the in-memory path and the external
// merge-sort path, including a descending middle column.
func TestOrderByColumns(t *testing.T) {
	in := multiSortCorpus(11, 500)
	orders := []Order{{Col: "a"}, {Col: "b", Desc: true}, {Col: "k"}}

	want := make([]Tuple, len(in))
	copy(want, in)
	sort.SliceStable(want, func(i, j int) bool {
		if want[i][1].(int64) != want[j][1].(int64) {
			return want[i][1].(int64) < want[j][1].(int64)
		}
		if want[i][2].(string) != want[j][2].(string) {
			return want[i][2].(string) > want[j][2].(string) // desc
		}
		return want[i][0].(string) < want[j][0].(string)
	})

	for _, budget := range []int64{0, 1 << 10} {
		j := NewJob(fmt.Sprintf("multisort-%d", budget), hdfs.New(0))
		j.MemoryBudget = budget
		j.SpillDir = t.TempDir()
		d, err := NewDataset(j, multiSortSchema, in).OrderByColumns(orders...)
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		got, err := d.Tuples()
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		if err := d.Close(); err != nil {
			t.Fatalf("budget %d: close: %v", budget, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("budget %d: multi-column order differs from reference", budget)
		}
	}
}

// TestOrderByDelegatesToColumns pins the single-column wrapper to the
// multi-column implementation, descending included.
func TestOrderByDelegatesToColumns(t *testing.T) {
	in := multiSortCorpus(12, 200)
	j1 := NewJob("single", hdfs.New(0))
	d1, err := NewDataset(j1, multiSortSchema, in).OrderBy("a", false)
	if err != nil {
		t.Fatal(err)
	}
	one, err := d1.Tuples()
	if err != nil {
		t.Fatal(err)
	}
	j2 := NewJob("multi", hdfs.New(0))
	d2, err := NewDataset(j2, multiSortSchema, in).OrderByColumns(Order{Col: "a", Desc: true})
	if err != nil {
		t.Fatal(err)
	}
	many, err := d2.Tuples()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(one, many) {
		t.Fatal("OrderBy(col, false) differs from OrderByColumns(desc)")
	}
}

// TestGroupByOrderedColumns checks the multi-column secondary sort inside
// groups on both execution paths: tuples of each group must arrive
// ordered by (a asc, b desc), ties in input order.
func TestGroupByOrderedColumns(t *testing.T) {
	in := multiSortCorpus(13, 500)
	for _, budget := range []int64{0, 1 << 10} {
		j := NewJob(fmt.Sprintf("groupmulti-%d", budget), hdfs.New(0))
		j.MemoryBudget = budget
		j.SpillDir = t.TempDir()
		g, err := NewDataset(j, multiSortSchema, in).GroupByOrderedColumns(
			[]Order{{Col: "a"}, {Col: "b", Desc: true}}, "k")
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		seen := 0
		_, err = g.ForEachGroup(Schema{"k"}, func(key Tuple, group []Tuple) Tuple {
			prevSeq := make(map[[2]any]int64) // max input seq per (a, b), to check tie order
			for i := 1; i < len(group); i++ {
				p, c := group[i-1], group[i]
				if p[1].(int64) > c[1].(int64) {
					t.Fatalf("budget %d: group %v: column a out of order", budget, key)
				}
				if p[1] == c[1] && p[2].(string) < c[2].(string) {
					t.Fatalf("budget %d: group %v: column b not descending within equal a", budget, key)
				}
			}
			for _, tup := range group {
				k := [2]any{tup[1], tup[2]}
				if s := tup[3].(int64); s < prevSeq[k] {
					t.Fatalf("budget %d: group %v: ties not in input order", budget, key)
				} else {
					prevSeq[k] = s
				}
				seen++
			}
			return key
		})
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		if err := g.Close(); err != nil {
			t.Fatalf("budget %d: close: %v", budget, err)
		}
		if seen != len(in) {
			t.Fatalf("budget %d: saw %d tuples, want %d", budget, seen, len(in))
		}
	}
}

// TestOrderByCostIndependentOfBudget: the memory budget is promised not to
// change a job's result, and that covers its modelled cost — a sort
// charges the same shuffle, the same reduce wave and the same merge pass
// with no budget, with a budget that never trips and with one that
// spills, and returns the same rows.
func TestOrderByCostIndependentOfBudget(t *testing.T) {
	in := multiSortCorpus(13, 400)
	sorts := map[string]func(*Dataset) (*Dataset, error){
		"OrderBy": func(d *Dataset) (*Dataset, error) { return d.OrderBy("a", false) },
		"OrderByColumns": func(d *Dataset) (*Dataset, error) {
			return d.OrderByColumns(Order{Col: "b"}, Order{Col: "a", Desc: true})
		},
	}
	for name, sortBy := range sorts {
		var wantRows []Tuple
		var want Stats
		for _, budget := range []int64{0, 1 << 30, 1 << 10} {
			j := spillJob(t, budget)
			d, err := sortBy(NewDataset(j, multiSortSchema, in))
			if err != nil {
				t.Fatalf("%s budget %d: %v", name, budget, err)
			}
			rows, err := d.Tuples()
			if err != nil {
				t.Fatalf("%s budget %d: %v", name, budget, err)
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			st := j.Stats()
			if spilled := st.SpillRuns > 0; spilled != (budget == 1<<10) {
				t.Fatalf("%s budget %d: spill runs = %d", name, budget, st.SpillRuns)
			}
			if budget == 0 {
				wantRows, want = rows, st
				if want.ShuffleRecords != int64(len(in)) || want.ReduceTasks != 1 || want.MergePasses != 1 {
					t.Fatalf("%s unbudgeted sort charged %+v", name, want)
				}
				continue
			}
			if !reflect.DeepEqual(rows, wantRows) {
				t.Fatalf("%s budget %d: rows differ from the unbudgeted sort", name, budget)
			}
			if st.ShuffleRecords != want.ShuffleRecords || st.ShuffleBytes != want.ShuffleBytes ||
				st.ReduceTasks != want.ReduceTasks || st.MergePasses != want.MergePasses ||
				st.ClusterSeconds() != want.ClusterSeconds() {
				t.Fatalf("%s budget %d: cost depends on the budget\nunbudgeted: %+v\nbudgeted:   %+v", name, budget, want, st)
			}
		}
	}
}
