// Command bench is the repository's benchmark: five workloads that drive the
// pipeline from generator to query through the exported API of internal/*,
// check every output against a reference computed from the generator
// stream, and print each metric by name with its unit.
//
//	bash bench/run.sh -workload batch-sealed -seed 7 [-seconds 10] [-trace 1]
//	bash bench/run.sh -agree
//
// See README.md in this directory for every metric and workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// runCtx is what a workload is told about the run it is part of.
type runCtx struct {
	seed  int64
	scale float64
	tmp   string // private directory for WALs and spill files, removed at exit
	// cal times the reference kernel between the legs; nil (the tests that
	// drive a workload by hand) means no rescaling.
	cal *calibrator
}

// events scales one of the ISSUE's event counts.
func (rc *runCtx) events(base int) int { return int(float64(base) * rc.scale) }

// benchmark is one of the five workloads. setup generates and loads the inputs and
// may be called again for a fresh copy; measure runs the timed phases for
// about the given time, checks every output, and fills the recorder.
type benchmark interface {
	setup() error
	gen() genStats
	measure(budget time.Duration, tr *tracer, rec *recorder) error
	// endToEnd returns the workload's reading of events_per_cpu_s, op_cpu_ms
	// and stored_bytes_per_event, and of the wall-clock events_per_s and
	// op_p50_ms the traced run reports beside the layers.
	endToEnd(rec *recorder) map[string]float64
	opSamples(rec *recorder) int
	layers(rec *recorder, tr *tracer) (map[string]float64, attribution)
}

func newWorkload(name string, rc *runCtx) (benchmark, error) {
	switch name {
	case "deliver-day":
		return &deliverDay{rc: rc}, nil
	case "batch-sealed":
		return &batchDay{rc: rc, sealed: true}, nil
	case "batch-rows-spill":
		return &batchDay{rc: rc}, nil
	case "realtime-mixed":
		return &realtimeMixed{rc: rc}, nil
	case "cluster-scatter":
		return &clusterScatter{rc: rc}, nil
	}
	var names []string
	for _, w := range workloadDefs {
		names = append(names, w.Name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// repeatFor runs fn at least once and again while another run of the same
// length still fits the budget.
func repeatFor(budget time.Duration, fn func() error) error {
	start := time.Now()
	for {
		t0 := time.Now()
		if err := fn(); err != nil {
			return err
		}
		if time.Since(start)+time.Since(t0) > budget {
			return nil
		}
	}
}

func copyValues(dst map[string]float64, rec *recorder, names ...string) {
	for _, n := range names {
		dst[n] = rec.value(n)
	}
}

// attribution sets the layers' self times beside the end-to-end chain they
// are meant to add up to; the rest is named unattributed.
type attribution struct {
	Chain          string           `json:"chain"`
	Events         int64            `json:"events"`
	ChainNs        int64            `json:"chain_ns"`
	LayerSelfNs    map[string]int64 `json:"layer_self_ns"`
	UnattributedNs int64            `json:"unattributed_ns"`
	AttributedPct  float64          `json:"attributed_pct"`
}

func attribute(tr *tracer, root, chain string, layerSpans ...string) attribution {
	self := tr.selfTimes()
	tot := tr.totals()[root]
	a := attribution{Chain: chain, Events: tot.Events, ChainNs: tot.Ns, LayerSelfNs: make(map[string]int64)}
	var sum int64
	for _, l := range layerSpans {
		a.LayerSelfNs[l] = self[l]
		sum += self[l]
	}
	a.UnattributedNs = tot.Ns - sum
	if tot.Ns > 0 {
		a.AttributedPct = 100 * float64(sum) / float64(tot.Ns)
	}
	return a
}

// hostFacts are stamped into every result.
type hostFacts struct {
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Scale      float64 `json:"scale"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
}

func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one run found; it is written to out/ as JSON. The
// last line of standard output carries the four fields the driver reads.
type result struct {
	Workload     string                   `json:"workload"`
	Traced       bool                     `json:"traced"`
	Host         hostFacts                `json:"host"`
	InputDigest  string                   `json:"input_digest"`
	OutputDigest string                   `json:"output_digest,omitempty"`
	Events       int64                    `json:"events"`
	Correct      bool                     `json:"correct"`
	Attempted    int64                    `json:"attempted"`
	Failed       int64                    `json:"failed"`
	Failures     []string                 `json:"failures,omitempty"`
	SetupSamples []float64                `json:"setup_samples_s"`
	SetupWall    []float64                `json:"setup_wall_samples_s"`
	Raw          map[string]float64       `json:"as_measured"`
	Slowdown     float64                  `json:"host_slowdown"`
	KernelMs     []float64                `json:"kernel_ms"`
	OpSamples    int                      `json:"op_samples"`
	Samples      map[string]sampleSummary `json:"samples"`
	Metrics      map[string]metricValue   `json:"metrics"`
	EndToEnd     map[string]metricValue   `json:"end_to_end_of_this_run,omitempty"`
	Attribution  *attribution             `json:"attribution,omitempty"`
	TraceFile    string                   `json:"trace_file,omitempty"`
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    float64
	out      string
	// setupReps overrides setupRepeats; only the tests set it.
	setupReps int
}

// setupRepeats is how many times a run sets up; setup_s is the median of
// their processor times.
const setupRepeats = 3

// run executes one workload once: set-up (setupRepeats times, the median is
// setup_s), then the timed phases. Untraced, the metrics are the end-to-end
// ones. Traced, the measured time is split: the first half runs untraced as
// the reference, the second half records spans, the metrics are the
// per-layer ones, and the gap between the halves is the tracing overhead.
func run(opt options) (*result, error) {
	if err := os.MkdirAll(filepath.Join(opt.out, "tmp"), 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(filepath.Join(opt.out, "tmp"), opt.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	stopSignals := removeOnSignal(tmp)
	defer stopSignals()

	debug.FreeOSMemory() // collect and hand back what an earlier run of this process left
	resetPeakRSS()
	rc := &runCtx{seed: opt.seed, scale: opt.scale, tmp: tmp, cal: newCalibrator()}
	res := &result{
		Workload: opt.workload,
		Traced:   opt.trace,
		Host: hostFacts{
			NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			Commit: commit(), Scale: opt.scale, Seed: opt.seed, Seconds: opt.seconds,
		},
		Metrics: make(map[string]metricValue),
	}
	reps := opt.setupReps
	if reps == 0 {
		reps = setupRepeats
	}
	var w benchmark
	for i := 0; i < reps; i++ {
		// Every repeat builds a new workload, and the one before it is
		// collected first, so that set-up time and peak memory are those
		// of one set-up and not of however many ran before.
		var err error
		if w, err = newWorkload(opt.workload, rc); err != nil {
			return nil, err
		}
		runtime.GC()
		rc.cal.tick(nil, "", -1)
		t0 := now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", opt.workload, err)
		}
		wall, cpu := t0.since()
		res.SetupSamples = append(res.SetupSamples, cpu)
		res.SetupWall = append(res.SetupWall, wall)
		if i > 0 && w.gen().InputDigest != res.InputDigest {
			return nil, fmt.Errorf("%s: seed %d generated two different inputs (%s, %s)", opt.workload, opt.seed, res.InputDigest, w.gen().InputDigest)
		}
		res.InputDigest = w.gen().InputDigest
	}
	res.Events = w.gen().Events
	budget := time.Duration(opt.seconds * float64(time.Second))

	rec := newRecorder()
	var tr *tracer
	if !opt.trace {
		if err := w.measure(budget, nil, rec); err != nil {
			return nil, fmt.Errorf("%s: %w", opt.workload, err)
		}
	} else {
		ref := newRecorder()
		if err := w.measure(budget/2, nil, ref); err != nil {
			return nil, fmt.Errorf("%s: untraced half: %w", opt.workload, err)
		}
		tr = newTracer(opt.workload)
		if err := w.measure(budget/2, tr, rec); err != nil {
			return nil, fmt.Errorf("%s: traced half: %w", opt.workload, err)
		}
		rec.absorbOutcome(ref)
		rec.check(tr.orphans() == 0, "%s: %d spans have neither a parent nor a phase root", opt.workload, tr.orphans())
		plain, traced := w.endToEnd(ref)["events_per_s"], w.endToEnd(rec)["events_per_s"]
		rec.set("bench.trace_overhead_pct", 100*ratio(plain-traced, plain))
	}

	e2e := w.endToEnd(rec)
	e2e["setup_s"] = median(res.SetupSamples)
	// The three timings are quoted at the reference kernel's nominal speed
	// (calib.go); the result keeps them as measured too.
	res.Raw = map[string]float64{"setup_s": e2e["setup_s"], "events_per_cpu_s": e2e["events_per_cpu_s"], "op_cpu_ms": e2e["op_cpu_ms"]}
	res.Slowdown = rc.cal.slowdown()
	res.KernelMs = rc.cal.ms
	e2e["setup_s"] /= res.Slowdown
	e2e["events_per_cpu_s"] *= res.Slowdown
	e2e["op_cpu_ms"] /= res.Slowdown
	e2e["peak_rss_mb"] = peakRSSMiB()
	res.OpSamples = w.opSamples(rec)
	res.Samples = rec.summaries()
	res.OutputDigest = rec.noteValue("output")
	fill := func(dst map[string]metricValue, defs []metricDef, vals map[string]float64) {
		for _, d := range defs {
			v := vals[d.Name]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				rec.fail(1, "%s: metric %s is not finite", opt.workload, d.Name)
				v = 0
			}
			dst[d.Name] = metricValue{Value: v, Unit: d.Unit}
		}
	}
	if !opt.trace {
		fill(res.Metrics, endToEnd, e2e)
	} else {
		layers, attr := w.layers(rec, tr)
		// The generator and the oracle alone: the pass minus its sink.
		layers["bench.gen_events_per_s"] = ratio(float64(w.gen().Events), w.gen().GenSeconds-float64(w.gen().SinkNs)/1e9)
		layers["bench.spans"] = float64(len(tr.spans))
		layers["bench.trace_overhead_pct"] = rec.value("bench.trace_overhead_pct")
		layers["bench.attributed_pct"] = attr.AttributedPct
		layers["events_per_s"], layers["op_p50_ms"] = e2e["events_per_s"], e2e["op_p50_ms"]
		layers["setup_wall_s"] = median(res.SetupWall)
		layers["bench.host_slowdown"] = res.Slowdown
		fill(res.Metrics, perLayer, layers)
		res.EndToEnd = make(map[string]metricValue)
		fill(res.EndToEnd, endToEnd, e2e)
		res.Attribution = &attr
		res.TraceFile = filepath.Join(opt.out, "trace-"+opt.workload+".json")
		if err := tr.write(res.TraceFile); err != nil {
			return nil, err
		}
	}
	res.Attempted, res.Failed, res.Failures = rec.attempted, rec.failed, rec.failures
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, nil
}

// removeOnSignal deletes dir and exits if the process is interrupted, so
// that a killed run leaves no WAL or spill directory behind.
func removeOnSignal(dir string) (stop func()) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		select {
		case <-ch:
			os.RemoveAll(dir)
			os.Exit(130)
		case <-done:
		}
	}()
	return func() {
		signal.Stop(ch)
		close(done)
	}
}

// save writes the full result next to the traces.
func (r *result) save(dir string) error {
	name := "result-" + r.Workload + ".json"
	if r.Traced {
		name = "result-" + r.Workload + "-traced.json"
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}

// report prints every metric by name, with its unit and direction, and for
// a traced run the layer sums beside the end-to-end figure.
func (r *result) report(w *os.File) {
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	fmt.Fprintf(w, "workload %s  seed %d  scale %g  events %d  input %s\n", r.Workload, r.Host.Seed, r.Host.Scale, r.Events, r.InputDigest)
	fmt.Fprintf(w, "host: %d CPUs, GOMAXPROCS %d, %s, commit %s\n", r.Host.NumCPU, r.Host.GOMAXPROCS, r.Host.GoVersion, r.Host.Commit)
	fmt.Fprintf(w, "host speed: reference kernel %.2f ms (median of %d, nominal %.0f ms), timings quoted at ÷ %.3f; as measured: setup_s %.4f, events_per_cpu_s %.1f, op_cpu_ms %.4f\n",
		median(r.KernelMs), len(r.KernelMs), kernelNominalMs, r.Slowdown, r.Raw["setup_s"], r.Raw["events_per_cpu_s"], r.Raw["op_cpu_ms"])
	for _, d := range defs {
		v := r.Metrics[d.Name].Value
		if r.Traced && v == 0 {
			continue // a layer this workload does not exercise
		}
		fmt.Fprintf(w, "  %-42s %16.4f %-6s (%s is better)\n", d.Name, v, d.Unit, d.Better)
	}
	if a := r.Attribution; a != nil && a.Events > 0 {
		fmt.Fprintf(w, "  chain %s: %.0f ns/event over %d events\n", a.Chain, float64(a.ChainNs)/float64(a.Events), a.Events)
		names := make([]string, 0, len(a.LayerSelfNs))
		for n := range a.LayerSelfNs {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "    %-40s %12.0f ns/event self\n", n, float64(a.LayerSelfNs[n])/float64(a.Events))
		}
		fmt.Fprintf(w, "    %-40s %12.0f ns/event (%.1f%% attributed)\n", "unattributed", float64(a.UnattributedNs)/float64(a.Events), a.AttributedPct)
		fmt.Fprintf(w, "  trace: %s\n", r.TraceFile)
	}
	fmt.Fprintf(w, "  operations: %d attempted, %d failed; %d op samples, %d set-ups\n", r.Attempted, r.Failed, r.OpSamples, len(r.SetupSamples))
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

// lastLine is the object the driver parses.
func (r *result) lastLine() string {
	data, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(data)
}

func main() {
	var opt options
	var trace int
	var agree, manifest bool
	flag.StringVar(&opt.workload, "workload", "", "workload to run: deliver-day, batch-sealed, batch-rows-spill, realtime-mixed, cluster-scatter")
	flag.Int64Var(&opt.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&opt.seconds, "seconds", benchSeconds, "how long the timed phases measure")
	flag.IntVar(&trace, "trace", 0, "1 records spans and prints the per-layer metrics; 0 prints the end-to-end metrics")
	flag.Float64Var(&opt.scale, "scale", benchScale, "factor on every workload's event count")
	flag.StringVar(&opt.out, "out", "out", "directory for results, traces and temporary files (run.sh passes bench/out)")
	flag.BoolVar(&agree, "agree", false, "run every workload twice on each of two seeds and compare the sets against the bounds")
	flag.BoolVar(&manifest, "manifest", false, "print BENCHMARK.json and exit")
	flag.Parse()
	opt.trace = trace != 0

	switch {
	case manifest:
		fmt.Println(manifestJSON())
	case agree:
		if !runAgree(opt) {
			os.Exit(1)
		}
	default:
		if opt.workload == "" || opt.seconds <= 0 || opt.scale <= 0 {
			flag.Usage()
			os.Exit(2)
		}
		res, err := run(opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		if err := res.save(opt.out); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		res.report(os.Stdout)
		fmt.Println(res.lastLine())
		if !res.Correct {
			os.Exit(1)
		}
	}
}

// manifestJSON renders BENCHMARK.json from the tables in metrics.go. A
// per-layer metric has no bound, and a zero bound is left out.
func manifestJSON() string {
	data, err := json.MarshalIndent(manifestFile{
		Command:    []string{"bash", "bench/run.sh", "-scale", fmt.Sprint(benchScale)},
		Paths:      []string{"bench"},
		RunSeconds: benchSeconds,
		Workloads:  workloadDefs,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}, "", "  ")
	if err != nil {
		panic(err)
	}
	return string(data)
}
