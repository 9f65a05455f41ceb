package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
)

// agreeRuns is how many runs of a workload make one set; a set's reading of
// a metric is the median over its runs, as the driver's is over its ten.
const agreeRuns = 3

// runAgree measures every workload in two sets of agreeRuns runs with one
// seed and one binary, prints both sets with each end-to-end metric's
// relative difference beside its bound, then does the same for the next
// seed so that no verdict rests on one seed's data. Every run is a process
// of its own, as the driver's runs are, and the two sets take turns at going
// first, so that neither what an earlier workload left in the process nor a
// slow spell of the host lands on one set alone. It reports whether every
// metric agreed within its bound, in either direction, and every run was
// correct.
func runAgree(opt options) bool {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return false
	}
	ok := true
	for _, seed := range []int64{opt.seed, opt.seed + 1} {
		fmt.Printf("seed %d: two sets of %d runs of every workload, same binary, medians\n", seed, agreeRuns)
		fmt.Printf("  %-18s %-24s %14s %14s %8s %7s\n", "workload", "metric", "first", "second", "diff", "bound")
		for _, w := range workloadDefs {
			o := opt
			o.workload, o.seed, o.trace = w.Name, seed, false
			var sets [2][]*result
			for i := 0; i < agreeRuns; i++ {
				for _, set := range [2]int{i % 2, 1 - i%2} {
					res, err := runChild(exe, o)
					if err != nil {
						fmt.Fprintln(os.Stderr, "bench:", err)
						return false
					}
					if !res.Correct {
						res.report(os.Stdout)
						ok = false
					}
					sets[set] = append(sets[set], res)
				}
			}
			for _, set := range sets {
				for _, res := range set {
					if res.InputDigest != sets[0][0].InputDigest {
						fmt.Printf("  %-18s input digests differ: %s, %s\n", w.Name, sets[0][0].InputDigest, res.InputDigest)
						ok = false
					}
				}
			}
			for _, d := range endToEnd {
				x, y := setMedian(sets[0], d.Name), setMedian(sets[1], d.Name)
				// The larger reading over the smaller: how far apart the
				// sets are whichever of them is taken as the parent.
				diff := ratio(math.Abs(y-x), math.Min(x, y))
				verdict := ""
				if diff > d.Bound {
					verdict = "  DISAGREE"
					ok = false
				}
				fmt.Printf("  %-18s %-24s %14.4f %14.4f %7.1f%% %6.0f%%%s\n", w.Name, d.Name, x, y, 100*diff, 100*d.Bound, verdict)
			}
		}
	}
	return ok
}

func setMedian(set []*result, metric string) float64 {
	vals := make([]float64, len(set))
	for i, r := range set {
		vals[i] = r.Metrics[metric].Value
	}
	return median(vals)
}

// runChild runs one workload in a fresh process of this binary and reads
// back the result file it leaves in opt.out.
func runChild(exe string, opt options) (*result, error) {
	cmd := exec.Command(exe,
		"-workload", opt.workload, "-seed", fmt.Sprint(opt.seed),
		"-seconds", fmt.Sprint(opt.seconds), "-scale", fmt.Sprint(opt.scale), "-out", opt.out)
	cmd.Stderr = os.Stderr
	file := filepath.Join(opt.out, "result-"+opt.workload+".json")
	if err := os.Remove(file); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	// A run that found a wrong answer exits 1 after writing its result; the
	// result says so, and the caller reports it. Only a run that left no
	// result has failed outright.
	runErr := cmd.Run()
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, fmt.Errorf("%s seed %d left no result (%v): %w", opt.workload, opt.seed, runErr, err)
	}
	res := new(result)
	if err := json.Unmarshal(data, res); err != nil {
		return nil, err
	}
	return res, nil
}
