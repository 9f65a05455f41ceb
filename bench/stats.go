package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// stamp is a reading of both clocks: the wall clock, and the processor time
// this process has used so far (user + system, every thread). The bounded
// timings are taken on the second. On the two shared cores of the sandbox a
// neighbour's load or stolen time stretches a wall-clock leg by half or
// more; processor time counts only the cycles this process ran (the kernel
// leaves stolen time out of it), so it reads the same on a busy host as on a
// quiet one. It does not see time spent waiting: a sleep, a lock convoy or a
// slow fsync moves only the wall-clock figures, which every run keeps
// beside it and the traced run reports.
type stamp struct {
	wall time.Time
	cpu  time.Duration
}

func now() stamp {
	var ru syscall.Rusage
	// RUSAGE_SELF cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return stamp{wall: time.Now(), cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano())}
}

// since returns the seconds elapsed on each clock.
func (s stamp) since() (wall, cpu float64) {
	n := now()
	return n.wall.Sub(s.wall).Seconds(), (n.cpu - s.cpu).Seconds()
}

// ratio is a ÷ b, and 0 where there is nothing to divide by, so that a
// metric of a layer that did no work reads 0 rather than NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// median returns the middle of the samples, 0 for none.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the nearest-rank q-quantile (0.5 < q < 1), or 0 when fewer
// than ten samples lie beyond it: the rule for quoting a tail at all. A
// per-layer metric that reads 0 is one the run could not quote.
func tail(samples []float64, q float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 || len(s)-1-rank < 10 {
		return 0
	}
	return s[rank]
}

// sampleSummary describes the samples behind a timing: how many, and where
// they lie.
type sampleSummary struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	P25    float64 `json:"p25"`
	Median float64 `json:"median"`
	P75    float64 `json:"p75"`
	Max    float64 `json:"max"`
}

func summarize(samples []float64) sampleSummary {
	if len(samples) == 0 {
		return sampleSummary{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	at := func(q float64) float64 { return s[int(q*float64(len(s)-1))] }
	return sampleSummary{N: len(s), Min: s[0], P25: at(0.25), Median: median(s), P75: at(0.75), Max: s[len(s)-1]}
}

// summaries describes every timing the recorder holds.
func (r *recorder) summaries() map[string]sampleSummary {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]sampleSummary, len(r.samples))
	for name, s := range r.samples {
		out[name] = summarize(s)
	}
	return out
}

// perItemMedians folds rounds of per-item latencies (rounds[r][i] is item i
// in round r) into one median per item, so that a hiccup in one round does
// not pass for a slow item.
func perItemMedians(rounds [][]float64) []float64 {
	if len(rounds) == 0 {
		return nil
	}
	out := make([]float64, len(rounds[0]))
	col := make([]float64, 0, len(rounds))
	for i := range out {
		col = col[:0]
		for _, r := range rounds {
			if i < len(r) {
				col = append(col, r[i])
			}
		}
		out[i] = median(col)
	}
	return out
}

// resetPeakRSS restarts the kernel's high-water mark of the resident set at
// the current size, so that each run of a process that makes several (-agree,
// the tests) reports its own peak. Where the kernel refuses, the mark simply
// keeps covering the whole process.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB reads the process's high-water resident set from /proc.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// recorder collects what one run observes: timing samples by name, single
// values by name, and the attempted/failed operation counts with the first
// few failure messages. Writer and reader goroutines share it.
type recorder struct {
	mu        sync.Mutex
	samples   map[string][]float64
	perRound  map[string][][]float64
	values    map[string]float64
	notes     map[string]string
	attempted int64
	failed    int64
	failures  []string
}

func newRecorder() *recorder {
	return &recorder{
		samples:  make(map[string][]float64),
		perRound: make(map[string][][]float64),
		values:   make(map[string]float64),
		notes:    make(map[string]string),
	}
}

// rounds files one round of per-item latencies (see perItemMedians).
func (r *recorder) rounds(name string, items []float64) {
	r.mu.Lock()
	r.perRound[name] = append(r.perRound[name], items)
	r.mu.Unlock()
}

func (r *recorder) roundsOf(name string) [][]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.perRound[name]
}

// note keeps a string, such as the digest of an output.
func (r *recorder) note(name, v string) {
	r.mu.Lock()
	r.notes[name] = v
	r.mu.Unlock()
}

// noteValue joins the notes filed under prefix, in name order.
func (r *recorder) noteValue(prefix string) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var names []string
	for n := range r.notes {
		if strings.HasPrefix(n, prefix+".") {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = strings.TrimPrefix(n, prefix+".") + "=" + r.notes[n]
	}
	return strings.Join(parts, " ")
}

func (r *recorder) sample(name string, v float64) {
	r.mu.Lock()
	r.samples[name] = append(r.samples[name], v)
	r.mu.Unlock()
}

func (r *recorder) sampleAll(name string, vs []float64) {
	r.mu.Lock()
	r.samples[name] = append(r.samples[name], vs...)
	r.mu.Unlock()
}

func (r *recorder) get(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.samples[name]
}

func (r *recorder) set(name string, v float64) {
	r.mu.Lock()
	r.values[name] = v
	r.mu.Unlock()
}

func (r *recorder) add(name string, v float64) {
	r.mu.Lock()
	r.values[name] += v
	r.mu.Unlock()
}

func (r *recorder) value(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.values[name]
}

// attempt counts n operations whose outcome is checked.
func (r *recorder) attempt(n int64) {
	r.mu.Lock()
	r.attempted += n
	r.mu.Unlock()
}

// fail counts n failed operations and keeps the first messages.
func (r *recorder) fail(n int64, format string, args ...any) {
	if n <= 0 {
		return
	}
	r.mu.Lock()
	r.failed += n
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
	r.mu.Unlock()
}

// absorbOutcome adds another recorder's attempted and failed operations,
// its failure messages first: the traced run's untraced half counts too.
func (r *recorder) absorbOutcome(earlier *recorder) {
	r.mu.Lock()
	r.attempted += earlier.attempted
	r.failed += earlier.failed
	r.failures = append(earlier.failures, r.failures...)
	r.mu.Unlock()
}

// check counts one attempted operation and fails it when ok is false.
func (r *recorder) check(ok bool, format string, args ...any) {
	r.attempt(1)
	if !ok {
		r.fail(1, format, args...)
	}
}
