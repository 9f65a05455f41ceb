package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// A span is one timed call from the benchmark into a layer. Spans are
// recorded only by files in this directory, around calls into the exported
// API of internal/*; nothing inside the layers is instrumented.
type span struct {
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Phase    string `json:"phase"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	// Parent is the index of the enclosing span, -1 for a phase root.
	Parent int   `json:"parent"`
	Events int64 `json:"events"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced run pays one nil check per call site.
type tracer struct {
	workload string
	t0       time.Time
	mu       sync.Mutex
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// begin opens a span and returns its index; parent -1 makes a phase root.
func (t *tracer) begin(name, phase string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Workload: t.workload, Phase: phase, StartNs: now, Parent: parent})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

// end closes the span and records how many events the call handled.
func (t *tracer) end(id int, events int64) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].EndNs = now
	t.spans[id].Events = events
	t.mu.Unlock()
}

// call wraps one call into a layer in a span.
func (t *tracer) call(name, phase string, parent int, events int64, fn func() error) error {
	id := t.begin(name, phase, parent)
	err := fn()
	t.end(id, events)
	return err
}

// spanTotal is what the spans of one name add up to.
type spanTotal struct {
	Count  int
	Ns     int64
	Events int64
}

// totals sums duration and events per span name.
func (t *tracer) totals() map[string]spanTotal {
	out := make(map[string]spanTotal)
	if t == nil {
		return out
	}
	for _, s := range t.spans {
		st := out[s.Name]
		st.Count++
		st.Ns += s.EndNs - s.StartNs
		st.Events += s.Events
		out[s.Name] = st
	}
	return out
}

// durationsMs returns each span of the name as milliseconds.
func (t *tracer) durationsMs(name string) []float64 {
	if t == nil {
		return nil
	}
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.EndNs-s.StartNs)/1e6)
		}
	}
	return out
}

// nsPerEvent is the named spans' total time over the events they handled.
func (t *tracer) nsPerEvent(name string) float64 {
	st := t.totals()[name]
	if st.Events == 0 {
		return 0
	}
	return float64(st.Ns) / float64(st.Events)
}

// selfTimes returns, per span name, duration minus the part of the span's
// interval its children cover. Children of one parent may overlap (a writer
// and a reader under one phase root), so the covered part is the union of
// the child intervals, clipped to the parent.
func (t *tracer) selfTimes() map[string]int64 {
	out := make(map[string]int64)
	if t == nil {
		return out
	}
	children := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.StartNs, s.EndNs})
		}
	}
	for i, s := range t.spans {
		out[s.Name] += (s.EndNs - s.StartNs) - covered(children[i], s.StartNs, s.EndNs)
	}
	return out
}

// covered is the length of the union of the intervals inside [lo, hi).
func covered(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	curLo, curHi := iv[0][0], iv[0][1]
	flush := func() {
		if curLo < lo {
			curLo = lo
		}
		if curHi > hi {
			curHi = hi
		}
		if curHi > curLo {
			total += curHi - curLo
		}
	}
	for _, x := range iv[1:] {
		if x[0] <= curHi {
			if x[1] > curHi {
				curHi = x[1]
			}
			continue
		}
		flush()
		curLo, curHi = x[0], x[1]
	}
	flush()
	return total
}

// orphans counts spans that are neither a phase root nor the child of a
// recorded span.
func (t *tracer) orphans() int {
	n := 0
	for _, s := range t.spans {
		if s.Parent < -1 || s.Parent >= len(t.spans) {
			n++
		}
	}
	return n
}

// write stores the spans as one JSON array.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
