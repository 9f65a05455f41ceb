// Package telemetry is the unified logging infrastructure's own
// instrumentation: a dependency-free metrics registry shared by every
// subsystem of the pipeline, from the Scribe tap to the BirdBrain
// dashboard. The paper's thesis is that Twitter instrumented itself
// uniformly; this package applies the same discipline to the
// reproduction, so the batch and realtime verticals expose rates,
// latencies, and backlogs through one namespace instead of per-package
// Stats structs read after the fact.
//
// Three instrument kinds cover the pipeline:
//
//   - Counter: a monotonic atomic total (events ingested, bytes spilled);
//   - Gauge: a last-value or high-water atomic level (queue depth, peak
//     merge fan-in), or a function evaluated at snapshot time (GaugeFunc)
//     that wires an existing Stats field through without duplicating it;
//   - Histogram: a log-linear latency/size distribution with p50/p95/p99
//     summaries (histogram.go), fed directly or through stage Spans
//     (span.go).
//
// Instruments are cheap enough for hot paths: a handle is fetched once
// (registration takes a lock) and recording is a handful of atomic
// operations — no allocation, no map lookup, safe under the race
// detector. Names follow the subsystem.metric.unit convention, e.g.
// "realtime.ingest.events", "dataflow.spill.bytes",
// "realtime.wal.fsync.ns".
//
// Everything is exposed three ways: Snapshot (a JSON-serializable dump),
// the /debug/unilog HTTP handler (http.go; expvar-style text and JSON),
// and the periodic one-line summary logger (log.go).
package telemetry

import (
	"sync"
	"sync/atomic"
)

// Counter is a monotonic atomic total. The zero value is usable, but
// counters normally come from Registry.Counter so they appear in
// snapshots.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current total.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic level: a last-set value or, via SetMax, a
// high-water mark.
type Gauge struct {
	v atomic.Int64
}

// Set stores the current level.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// SetMax raises the gauge to v if v exceeds the current value — the
// high-water-mark update (peak merge fan-in, spool high water).
func (g *Gauge) SetMax(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Registry holds named instruments. Lookups are get-or-create and
// idempotent: two callers asking for the same name share one instrument.
// Hot paths fetch handles once (package init or construction time) and
// record through them lock-free afterwards.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	funcs    map[string]func() int64
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		funcs:    make(map[string]func() int64),
		hists:    make(map[string]*Histogram),
	}
}

// Default is the process-wide registry every subsystem publishes into;
// the package-level helpers below operate on it.
var Default = NewRegistry()

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = newHistogram()
		r.hists[name] = h
	}
	return h
}

// GaugeFunc registers a gauge evaluated at snapshot time — the
// non-duplicating way to wire an existing Stats field or a derived ratio
// into the registry. The last registration under a name wins, so a
// subsystem that restarts (a recovered realtime counter) re-publishes
// over its predecessor. fn must be safe to call from any goroutine.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	r.mu.Lock()
	r.funcs[name] = fn
	r.mu.Unlock()
}

// GetCounter returns a counter from the Default registry.
func GetCounter(name string) *Counter { return Default.Counter(name) }

// GetGauge returns a gauge from the Default registry.
func GetGauge(name string) *Gauge { return Default.Gauge(name) }

// GetHistogram returns a histogram from the Default registry.
func GetHistogram(name string) *Histogram { return Default.Histogram(name) }

// RegisterGaugeFunc registers a snapshot-time gauge on the Default
// registry.
func RegisterGaugeFunc(name string, fn func() int64) { Default.GaugeFunc(name, fn) }

// Snap is one consistent-enough view of a registry: counters, gauges,
// and gauge funcs flattened into Series; histograms summarized with
// their quantiles. It marshals directly to the JSON shape served by
// /debug/unilog and embedded in every scenario-grid cell.
type Snap struct {
	Series     map[string]int64            `json:"series"`
	Histograms map[string]HistogramSummary `json:"histograms"`

	// HistogramBuckets holds the raw occupied buckets per histogram,
	// populated only by SnapshotBuckets (or Handler with ?buckets=1) —
	// the everyday snapshot stays summary-sized.
	HistogramBuckets map[string][]BucketCount `json:"histogram_buckets,omitempty"`
}

// Snapshot captures every instrument's current value. Values are read
// instrument by instrument (not under one global lock), so a snapshot
// taken mid-traffic is approximate across instruments but exact per
// instrument.
func (r *Registry) Snapshot() Snap {
	r.mu.RLock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	funcs := make(map[string]func() int64, len(r.funcs))
	for k, v := range r.funcs {
		funcs[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.RUnlock()

	s := Snap{
		Series:     make(map[string]int64, len(counters)+len(gauges)+len(funcs)),
		Histograms: make(map[string]HistogramSummary, len(hists)),
	}
	for k, c := range counters {
		s.Series[k] = c.Value()
	}
	for k, g := range gauges {
		s.Series[k] = g.Value()
	}
	// Gauge funcs run outside the registry lock: a func may itself take
	// locks (reading a subsystem's Stats), and must not deadlock against
	// concurrent registration.
	for k, fn := range funcs {
		s.Series[k] = fn()
	}
	for k, h := range hists {
		s.Histograms[k] = h.Summary()
	}
	return s
}

// Snapshot captures the Default registry.
func Snapshot() Snap { return Default.Snapshot() }

// SnapshotBuckets is Snapshot plus the raw occupied buckets of every
// histogram. Buckets are read after the summaries, bucket by bucket, so
// under concurrent recording a bucket dump can run slightly ahead of
// its own summary — consistent per bucket, approximate across them,
// same contract as the rest of the snapshot.
func (r *Registry) SnapshotBuckets() Snap {
	s := r.Snapshot()
	r.mu.RLock()
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.RUnlock()
	s.HistogramBuckets = make(map[string][]BucketCount, len(hists))
	for k, h := range hists {
		if b := h.Buckets(); b != nil {
			s.HistogramBuckets[k] = b
		}
	}
	return s
}

// Reset zeroes every counter, gauge, and histogram in place. Instruments
// stay registered and previously fetched handles stay valid — the maps
// are not cleared, the values are — which is what lets hot paths keep
// their init-time handles across a reset. Gauge funcs are left
// untouched: they read live subsystem state, and a subsystem that
// restarts re-registers over its predecessor (last wins).
//
// Reset exists for harnesses that run experiment cells back to back in
// one process (the scenario grid runner) and want each cell's snapshot
// to start from zero. It is not synchronized against concurrent
// recording: increments racing the reset may survive it, so quiesce the
// pipeline first.
func (r *Registry) Reset() {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.v.Store(0)
	}
	for _, h := range r.hists {
		h.reset()
	}
}

// Reset zeroes the Default registry's instruments.
func Reset() { Default.Reset() }
