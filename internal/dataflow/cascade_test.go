package dataflow

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// TestCascadeCapsRunFanIn is the acceptance property of the multi-pass
// merge: under a budget tiny enough to write far more sorted runs than
// the merge fan-in cap allows open at once, the reduce side must cascade —
// several passes, each bounded by the cap — and still produce the exact
// relation, rows and order, of the unbudgeted in-memory path.
func TestCascadeCapsRunFanIn(t *testing.T) {
	const capFanIn = 4
	n := 4000
	rng := rand.New(rand.NewSource(42))
	tuples := make([]Tuple, n)
	for i := range tuples {
		tuples[i] = Tuple{int64(rng.Intn(100)), int64(i)}
	}

	ref := spillJob(t, 0) // in-memory reference
	want, err := mustOrderBy(t, ref, tuples)
	if err != nil {
		t.Fatal(err)
	}

	j := spillJob(t, 512)
	j.maxMergeFanIn = capFanIn
	sorted, err := NewDataset(j, Schema{"v", "pos"}, tuples).OrderBy("v", true)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sorted.Tuples()
	if err != nil {
		t.Fatal(err)
	}
	st := j.Stats()
	if st.SpillRuns <= capFanIn {
		t.Fatalf("only %d runs spilled — the cap was never under pressure", st.SpillRuns)
	}
	if st.CascadePasses < 2 || st.CascadeRuns == 0 {
		t.Fatalf("expected a real multi-pass cascade, got %+v", st)
	}
	if st.PeakRunFanIn > capFanIn {
		t.Fatalf("peak fan-in %d exceeds the cap %d", st.PeakRunFanIn, capFanIn)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("cascaded output differs from the in-memory relation")
	}
	// The cascaded table stays re-iterable, and the second read must not
	// cascade again — the first pass already owns the compacted runs.
	passes := j.Stats().CascadePasses
	again, err := sorted.Tuples()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, want) {
		t.Fatal("second iteration over cascaded runs diverged")
	}
	if j.Stats().CascadePasses != passes {
		t.Fatalf("re-iteration re-cascaded: %d passes, then %d", passes, j.Stats().CascadePasses)
	}
	if err := sorted.Close(); err != nil {
		t.Fatal(err)
	}
	if left := spillFiles(t, j); len(left) != 0 {
		t.Fatalf("staged files survived Close: %v", left)
	}
}

func mustOrderBy(t *testing.T, j *Job, tuples []Tuple) ([]Tuple, error) {
	t.Helper()
	cp := make([]Tuple, len(tuples))
	copy(cp, tuples)
	sorted, err := NewDataset(j, Schema{"v", "pos"}, cp).OrderBy("v", true)
	if err != nil {
		return nil, err
	}
	defer sorted.Close()
	return sorted.Tuples()
}

// TestCascadeGroupByAggregate drives the cascade through the grouped
// reduce path: sums over cascaded runs must match the in-memory sums
// exactly, and the cascade must retire consumed spill files as it
// compacts instead of keeping every generation on disk.
func TestCascadeGroupByAggregate(t *testing.T) {
	build := func(j *Job) *Dataset {
		rng := rand.New(rand.NewSource(7))
		tuples := make([]Tuple, 3000)
		for i := range tuples {
			tuples[i] = Tuple{fmt.Sprintf("key-%03d", rng.Intn(80)), int64(rng.Intn(1000))}
		}
		return NewDataset(j, Schema{"k", "v"}, tuples)
	}
	agg := func(j *Job) []Tuple {
		t.Helper()
		g, err := build(j).GroupBy("k")
		if err != nil {
			t.Fatal(err)
		}
		defer g.Close()
		out, err := g.Sum("v", "sum")
		if err != nil {
			t.Fatal(err)
		}
		rows, err := out.Tuples()
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}

	want := agg(spillJob(t, 0))

	j := spillJob(t, 512)
	j.maxMergeFanIn = 5
	got := agg(j)
	st := j.Stats()
	if st.CascadePasses == 0 || st.CascadeRuns == 0 {
		t.Fatalf("budgeted group-by never cascaded: %+v", st)
	}
	if st.PeakRunFanIn > j.maxMergeFanIn {
		t.Fatalf("peak fan-in %d exceeds the cap %d", st.PeakRunFanIn, j.maxMergeFanIn)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("cascaded sums differ from the in-memory relation")
	}
	if left := spillFiles(t, j); len(left) != 0 {
		t.Fatalf("staged files survived Close: %v", left)
	}
}
