package dataflow

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// referenceOrder is the shuffle's contract written out independently of
// the engine's sort: a stable sort of the input by (appendKey rendering of
// the key columns, compareValues on the order column — reversed when desc —
// when col >= 0, input position).
func referenceOrder(in []Tuple, keyIdx []int, col int, desc bool) []Tuple {
	keys := make([][]byte, len(in))
	for i, t := range in {
		keys[i] = appendKey(nil, t, keyIdx)
	}
	pos := make([]int, len(in))
	for i := range pos {
		pos[i] = i
	}
	sort.SliceStable(pos, func(a, b int) bool {
		ia, ib := pos[a], pos[b]
		if c := bytes.Compare(keys[ia], keys[ib]); c != 0 {
			return c < 0
		}
		if col >= 0 {
			c := compareValues(in[ia][col], in[ib][col])
			if desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return ia < ib
	})
	out := make([]Tuple, len(in))
	for i, p := range pos {
		out[i] = in[p]
	}
	return out
}

// TestShuffleOrderMatchesReference holds GroupBy, GroupByOrdered and
// OrderBy (both directions) to referenceOrder, tuple for tuple, across
// order columns of one integer kind, of mixed integer kinds, and of mixed
// numeric and string values; over heavy duplicate keys, keys with an
// embedded NUL and two-column keys; in memory, under budgets that spill
// small and large runs, and through a cascade at fan-in 2.
func TestShuffleOrderMatchesReference(t *testing.T) {
	orderGens := []struct {
		name string
		gen  func(*rand.Rand) Value
	}{
		{"int64", func(r *rand.Rand) Value { return int64(r.Intn(12) - 6) }},
		{"mixed-ints", func(r *rand.Rand) Value {
			switch v := r.Intn(12) - 6; r.Intn(3) {
			case 0:
				return int64(v)
			case 1:
				return int32(v)
			default:
				return v
			}
		}},
		{"mixed-kinds", mixedValue},
	}
	keys := []string{"", "a", "b", "k7", "\x00", "a\x00", "a\x00b", "k\x00\x01"}
	ops := []struct {
		name   string
		keyIdx []int
		col    int
		desc   bool
		run    func(*testing.T, *Dataset) []Tuple
	}{
		{"groupby", []int{0, 1}, -1, false, func(t *testing.T, d *Dataset) []Tuple {
			g, err := d.GroupBy("k", "u")
			if err != nil {
				t.Fatal(err)
			}
			return flattenGroups(t, g)
		}},
		{"groupbyordered", []int{0, 1}, 2, false, func(t *testing.T, d *Dataset) []Tuple {
			g, err := d.GroupByOrdered("o", "k", "u")
			if err != nil {
				t.Fatal(err)
			}
			return flattenGroups(t, g)
		}},
		{"orderby-asc", nil, 2, false, func(t *testing.T, d *Dataset) []Tuple { return orderedRows(t, d, true) }},
		{"orderby-desc", nil, 2, true, func(t *testing.T, d *Dataset) []Tuple { return orderedRows(t, d, false) }},
	}
	cells := []struct {
		budget int64
		fanIn  int
	}{{0, 0}, {128, 0}, {1024, 0}, {16 << 10, 0}, {128, 2}}
	for gi, og := range orderGens {
		rng := rand.New(rand.NewSource(int64(gi) + 31))
		in := make([]Tuple, 1500)
		for i := range in {
			in[i] = Tuple{keys[rng.Intn(len(keys))], int64(rng.Intn(3)), og.gen(rng), int64(i)}
		}
		for _, op := range ops {
			want := referenceOrder(in, op.keyIdx, op.col, op.desc)
			for _, cell := range cells {
				t.Run(fmt.Sprintf("%s/%s/budget=%d/fanin=%d", og.name, op.name, cell.budget, cell.fanIn), func(t *testing.T) {
					j := spillJob(t, cell.budget)
					j.maxMergeFanIn = cell.fanIn
					got := op.run(t, NewDataset(j, Schema{"k", "u", "o", "pos"}, in))
					if !reflect.DeepEqual(got, want) {
						for i := range want {
							if i >= len(got) || !reflect.DeepEqual(got[i], want[i]) {
								t.Fatalf("%d rows; first difference at %d: got %q, want %q", len(got), i, got[min(i, len(got)-1)], want[i])
							}
						}
						t.Fatalf("%d rows, want %d", len(got), len(want))
					}
					st := j.Stats()
					if spilled := st.SpillRuns > 0; spilled != (cell.budget > 0) {
						t.Fatalf("spill runs = %d under budget %d", st.SpillRuns, cell.budget)
					}
					if cell.fanIn == 2 && st.CascadePasses == 0 {
						t.Fatal("fan-in 2 never cascaded")
					}
					if files := spillFiles(t, j); len(files) != 0 {
						t.Fatalf("spill files left after Close: %v", files)
					}
				})
			}
		}
	}
}

// flattenGroups reads every group of g in delivery order, then closes it.
func flattenGroups(t *testing.T, g *Grouped) []Tuple {
	t.Helper()
	defer g.Close()
	var out []Tuple
	if err := g.EachGroup(func(_ Tuple, group []Tuple) error {
		out = append(out, group...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// orderedRows reads d.OrderBy("o", ascending) in full, then closes it.
func orderedRows(t *testing.T, d *Dataset, ascending bool) []Tuple {
	t.Helper()
	sorted, err := d.OrderBy("o", ascending)
	if err != nil {
		t.Fatal(err)
	}
	defer sorted.Close()
	rows, err := sorted.Tuples()
	if err != nil {
		t.Fatal(err)
	}
	return rows
}
