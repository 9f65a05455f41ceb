package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// testOptions is a run small enough for the unit-test budget: one per cent
// of the committed size, a tenth of a second of measuring, one set-up.
func testOptions(t *testing.T, workload string, trace bool) options {
	return options{workload: workload, seed: 1, seconds: 0.1, trace: trace, scale: 0.01, setupReps: 1, out: t.TempDir()}
}

func readManifest(t *testing.T) manifestFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifestFile
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// BENCHMARK.json is the tables of metrics.go, nothing more or less, and
// stays inside the limits its contract sets.
func TestManifestMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.TrimSpace(string(data)), manifestJSON(); got != want {
		t.Fatalf("BENCHMARK.json is not what -manifest prints; regenerate it with\n  bash bench/run.sh -manifest > BENCHMARK.json")
	}
	m := readManifest(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the allowed characters or length", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(m.Workloads) < 2 || len(m.Workloads) > 8 {
		t.Errorf("%d workloads", len(m.Workloads))
	}
	for _, w := range m.Workloads {
		use(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, d := range m.EndToEnd {
		use(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			hasSetup = d.Unit == "s" && d.Better == lower
		}
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	if len(m.EndToEnd) > 16 || len(m.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(m.EndToEnd), len(m.PerLayer))
	}
	for _, d := range append(append([]metricDef(nil), m.EndToEnd...), m.PerLayer...) {
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Better != lower && d.Better != higher {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
	}
	for _, d := range m.PerLayer {
		use(d.Name)
		if d.Bound != 0 {
			t.Errorf("%s: a per-layer metric carries no bound", d.Name)
		}
	}
}

// checkMetrics wants exactly the named metrics, each finite and in its unit,
// and the end-to-end ones above zero.
func checkMetrics(t *testing.T, who string, got map[string]metricValue, defs []metricDef, nonZero bool) {
	t.Helper()
	if len(got) != len(defs) {
		t.Errorf("%s: %d metrics emitted, %d named", who, len(got), len(defs))
	}
	for _, d := range defs {
		v, ok := got[d.Name]
		if !ok {
			t.Errorf("%s: metric %s is missing", who, d.Name)
			continue
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != d.Unit {
			t.Errorf("%s: metric %s = %v %s", who, d.Name, v.Value, v.Unit)
		}
		if nonZero && v.Value <= 0 {
			t.Errorf("%s: end-to-end metric %s = %v, must never be 0", who, d.Name, v.Value)
		}
	}
}

// checkLastLine wants the object the driver parses: four keys, the metrics
// being the named ones.
func checkLastLine(t *testing.T, res *result, defs []metricDef) {
	t.Helper()
	var line struct {
		Correct   *bool                  `json:"correct"`
		Attempted *int64                 `json:"attempted"`
		Failed    *int64                 `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(res.lastLine()))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil || line.Correct == nil || line.Attempted == nil || line.Failed == nil || len(line.Metrics) != len(defs) {
		t.Errorf("%s: last line %q: %v", res.Workload, res.lastLine(), err)
	}
}

// Every workload, one traced run each (its untraced half gives the
// end-to-end metrics of the same run): every metric BENCHMARK.json names is
// emitted and finite, nothing fails, and spans form a forest of phase roots.
func TestWorkloads(t *testing.T) {
	m := readManifest(t)
	var mu sync.Mutex
	outputs := make(map[string]string)
	// The group returns once its parallel subtests have: at a hundredth of
	// the size no test reads a timing, so the five may share the cores.
	t.Run("each", func(t *testing.T) {
		for _, w := range m.Workloads {
			t.Run(w.Name, func(t *testing.T) {
				t.Parallel()
				res, err := run(testOptions(t, w.Name, true))
				if err != nil {
					t.Fatal(err)
				}
				checkMetrics(t, "per-layer", res.Metrics, m.PerLayer, false)
				checkMetrics(t, "end-to-end", res.EndToEnd, m.EndToEnd, true)
				checkLastLine(t, res, m.PerLayer)
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct %v, %d of %d failed: %v", res.Correct, res.Failed, res.Attempted, res.Failures)
				}
				if res.Host.NumCPU < 1 || res.Host.GoVersion == "" || res.Host.Scale != 0.01 || res.Host.Seed != 1 {
					t.Errorf("host facts not stamped: %+v", res.Host)
				}
				if res.InputDigest == "" {
					t.Error("no input digest")
				}
				checkTrace(t, res)
				mu.Lock()
				outputs[w.Name] = res.OutputDigest
				mu.Unlock()
			})
		}
	})
	if outputs["batch-sealed"] == "" || outputs["batch-sealed"] != outputs["batch-rows-spill"] {
		t.Errorf("row and columnar paths disagree: batch-sealed %q, batch-rows-spill %q", outputs["batch-sealed"], outputs["batch-rows-spill"])
	}
}

func checkTrace(t *testing.T, res *result) {
	t.Helper()
	data, err := os.ReadFile(res.TraceFile)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 || float64(len(spans)) != res.Metrics["bench.spans"].Value {
		t.Errorf("%s: %d spans on disk, bench.spans = %v", res.Workload, len(spans), res.Metrics["bench.spans"].Value)
	}
	for i, s := range spans {
		switch {
		case s.Parent == -1:
			if !strings.HasPrefix(s.Name, "phase.") && s.Phase != "verify" {
				t.Errorf("%s: root span %d %q is not a phase root", res.Workload, i, s.Name)
			}
		case s.Parent < 0 || s.Parent >= i:
			t.Errorf("%s: span %d %q has parent %d", res.Workload, i, s.Name, s.Parent)
		}
		if s.EndNs < s.StartNs || s.Workload != res.Workload || s.Phase == "" {
			t.Errorf("%s: malformed span %d: %+v", res.Workload, i, s)
		}
	}
	if res.Attribution == nil || res.Attribution.ChainNs <= 0 {
		t.Errorf("%s: no attribution beside the end-to-end figure", res.Workload)
	}
}

// One seed gives one input (run fails when two set-ups of a run disagree),
// another seed another, so no metric rests on seed 1; and an untraced run
// prints the end-to-end metrics and nothing else.
func TestSeedChangesInput(t *testing.T) {
	a := testOptions(t, "deliver-day", false)
	a.setupReps = 2
	b := a
	b.seed = 2
	ra, err := run(a)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := run(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(ra.SetupSamples) != 2 || ra.InputDigest == rb.InputDigest {
		t.Errorf("seeds 1 and 2 gave the same input %s", ra.InputDigest)
	}
	if !rb.Correct {
		t.Errorf("seed 2: %v", rb.Failures)
	}
	checkMetrics(t, "deliver-day untraced", rb.Metrics, endToEnd, true)
	checkLastLine(t, rb, endToEnd)
}

// One wrong expected value anywhere in the reference must fail the run.
func TestCorruptedReferenceFails(t *testing.T) {
	corrupt := map[string]func(b benchmark){
		"deliver-day": func(b benchmark) { b.(*deliverDay).o.digest.Sum++ },
		"batch-sealed": func(b benchmark) {
			for k := range b.(*batchDay).o.rollups {
				b.(*batchDay).o.rollups[k]++
				break
			}
		},
		"batch-rows-spill": func(b benchmark) { b.(*batchDay).selects[0].want.SumTs++ },
		"realtime-mixed":   func(b benchmark) { b.(*realtimeMixed).dash.wantDay[0]++ },
		"cluster-scatter":  func(b benchmark) { b.(*clusterScatter).dash.wantTop[0][0].Count++ },
	}
	for name, damage := range corrupt {
		t.Run(name, func(t *testing.T) {
			t.Parallel() // the five share nothing a failed check depends on
			rc := &runCtx{seed: 1, scale: 0.01, tmp: t.TempDir()}
			w, err := newWorkload(name, rc)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.setup(); err != nil {
				t.Fatal(err)
			}
			damage(w)
			rec := newRecorder()
			if err := w.measure(10*time.Millisecond, nil, rec); err != nil {
				t.Fatal(err)
			}
			if rec.failed == 0 {
				t.Error("a corrupted reference value went unnoticed")
			}
		})
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "root", StartNs: 0, EndNs: 100, Parent: -1},
		{Name: "a", StartNs: 10, EndNs: 40, Parent: 0},
		{Name: "b", StartNs: 30, EndNs: 60, Parent: 0}, // overlaps a
		{Name: "c", StartNs: 35, EndNs: 38, Parent: 1},
	}}
	self := tr.selfTimes()
	if self["root"] != 50 || self["a"] != 27 || self["b"] != 30 || self["c"] != 3 {
		t.Errorf("self times %v", self)
	}
	if tr.orphans() != 0 {
		t.Errorf("%d orphans in a well-formed trace", tr.orphans())
	}
}

func TestPercentileRule(t *testing.T) {
	var s []float64
	for i := 1; i <= 100; i++ {
		s = append(s, float64(i))
	}
	if v := tail(s, 0.90); v != 90 {
		t.Errorf("p90 of 1..100 = %v", v)
	}
	if v := tail(s, 0.95); v != 0 {
		t.Errorf("p95 of 100 samples has only five beyond it and must not be quoted, got %v", v)
	}
	if v := tail(nil, 0.90); v != 0 {
		t.Errorf("p90 of nothing = %v", v)
	}
	if median([]float64{3, 1, 2, 10}) != 2.5 {
		t.Error("median of an even count")
	}
}
