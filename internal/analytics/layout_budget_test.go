package analytics

import (
	"fmt"
	"os"
	"reflect"
	"testing"

	"unilog/internal/columnar"
	"unilog/internal/dataflow"
	"unilog/internal/events"
	"unilog/internal/hdfs"
	"unilog/internal/telemetry"
	"unilog/internal/workload"
)

// TestLayoutAndBudgetDoNotChangeAnswers runs the two day-scale jobs of
// this package — the §3.2 rollup table and the raw-log count with its
// sessionizing group-by — over one generated day in all six cells of
// {row files, sealed column chunks} × {unbudgeted, 2 KiB, 32 KiB}.
// The storage layout and the memory budget are promised not to change a
// result: the rollup maps and the count reports must be equal in every
// cell, the budget must really force the row-file jobs through an
// external merge (two sorted runs or more), an unbudgeted job must not
// spill at all, and nothing may be left in the spill directory. The raw
// count shuffles one partial per session, ~21 KB for this day, so its
// external merge is asserted under the 2 KiB budget, the rollup's under
// both.
func TestLayoutAndBudgetDoNotChangeAnswers(t *testing.T) {
	cfg := workload.DefaultConfig(day)
	cfg.Users = 60
	cfg.LoggedOutSessions = 40
	cfg.Seed = 18
	evs, _ := workload.New(cfg).Generate()
	fs := hdfs.New(0)
	if err := workload.WriteWarehouse(fs, evs); err != nil {
		t.Fatal(err)
	}
	m, err := MatcherFromPattern("*:profile_click")
	if err != nil {
		t.Fatal(err)
	}
	spillDir := t.TempDir()
	chunksScanned := telemetry.GetCounter("columnar.chunks.scanned")

	var wantRoll map[RollupKey]int64
	var wantRep CountReport
	for _, sealed := range []bool{false, true} {
		layout := "rows"
		if sealed {
			layout = "sealed"
			// Sealing adds column chunks beside the row files; from here on
			// the client-events scan both jobs read through takes them.
			if n, err := columnar.SealDay(fs, events.Category, day); err != nil || n == 0 {
				t.Fatalf("SealDay: %d chunks, %v", n, err)
			}
		}
		for _, budget := range []int64{0, 2 << 10, 32 << 10} {
			cell := fmt.Sprintf("%s/budget=%d", layout, budget)
			job := func(name string) *dataflow.Job {
				j := dataflow.NewJob(name, fs)
				j.MemoryBudget = budget
				j.SpillDir = spillDir
				return j
			}
			scanned0 := chunksScanned.Value()
			rj, cj := job("rollups"), job("rawcount")
			roll, err := Rollups(rj, day)
			if err != nil {
				t.Fatalf("%s: Rollups: %v", cell, err)
			}
			rep, err := CountRawDay(cj, day, m)
			if err != nil {
				t.Fatalf("%s: CountRawDay: %v", cell, err)
			}
			if read := chunksScanned.Value() > scanned0; read != sealed {
				t.Errorf("%s: jobs read column chunks = %v", cell, read)
			}

			if wantRoll == nil {
				if len(roll) == 0 || rep.Events == 0 || rep.TotalSessions == 0 {
					t.Fatalf("%s: empty answers (%d rollup rows, %+v): nothing to compare", cell, len(roll), rep)
				}
				wantRoll, wantRep = roll, rep
			}
			if !reflect.DeepEqual(roll, wantRoll) {
				t.Errorf("%s: rollups differ from rows/budget=0 (%d rows vs %d)", cell, len(roll), len(wantRoll))
			}
			if rep != wantRep {
				t.Errorf("%s: raw count %+v, rows/budget=0 counted %+v", cell, rep, wantRep)
			}

			for _, j := range []*dataflow.Job{rj, cj} {
				st := j.Stats()
				if budget == 0 && st.SpilledBytes != 0 {
					t.Errorf("%s: unbudgeted %s spilled %d bytes", cell, j.Name, st.SpilledBytes)
				}
				mustMerge := j == rj || budget == 2<<10
				if budget > 0 && !sealed && mustMerge && st.SpillRuns < 2 {
					t.Errorf("%s: %s spilled %d runs, want >= 2: the budget did not force an external merge",
						cell, j.Name, st.SpillRuns)
				}
			}
		}
	}
	left, err := os.ReadDir(spillDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("%d entries left in the spill directory, first %s", len(left), left[0].Name())
	}
}
