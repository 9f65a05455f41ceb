package analytics

import (
	"fmt"
	"regexp"
	"sort"
	"strings"
	"time"

	"unilog/internal/dataflow"
	"unilog/internal/session"
)

// Funnel is the ClientEventsFunnel UDF (§5.3): the data scientist specifies
// an ordered list of stages, each a set of event names; a session completes
// stage i if a stage-i event occurs after its stage-(i-1) match.
//
// The paper's implementation "translates the funnel into a regular
// expression match over the session sequence string"; Regexp exposes that
// translation, and the linear scanner in Depth is verified equivalent to it
// by tests.
type Funnel struct {
	stages  []map[rune]struct{}
	classes []string // regexp character class per stage
}

// NewFunnel expands each stage matcher against the dictionary. Stages that
// match no known event are permitted (they simply never complete).
func NewFunnel(dict *session.Dictionary, stages ...Matcher) *Funnel {
	f := &Funnel{}
	for _, m := range stages {
		set := make(map[rune]struct{})
		var class []rune
		for _, r := range dict.SymbolsWhere(m) {
			set[r] = struct{}{}
			class = append(class, r)
		}
		f.stages = append(f.stages, set)
		f.classes = append(f.classes, runeClass(class))
	}
	return f
}

// NewFunnelFromNames is NewFunnel with exact event names per stage.
func NewFunnelFromNames(dict *session.Dictionary, stageNames ...string) *Funnel {
	ms := make([]Matcher, len(stageNames))
	for i, n := range stageNames {
		name := n
		ms[i] = func(s string) bool { return s == name }
	}
	return NewFunnel(dict, ms...)
}

// runeClass renders a regexp character class for the given runes.
func runeClass(rs []rune) string {
	if len(rs) == 0 {
		// A class that matches nothing.
		return `[^\x{0}-\x{10FFFF}]`
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i] < rs[j] })
	var b strings.Builder
	b.WriteString("[")
	for _, r := range rs {
		fmt.Fprintf(&b, `\x{%X}`, r)
	}
	b.WriteString("]")
	return b.String()
}

// NumStages returns the number of funnel stages.
func (f *Funnel) NumStages() int { return len(f.stages) }

// Depth returns how many stages the session completed: 0 means it never
// entered the funnel, NumStages means it flowed all the way through.
func (f *Funnel) Depth(seq string) int {
	stage := 0
	for _, r := range seq {
		if stage == len(f.stages) {
			break
		}
		if _, ok := f.stages[stage][r]; ok {
			stage++
		}
	}
	return stage
}

// Regexp returns the paper's regular-expression translation of the first k
// stages: stage classes joined by ".*".
func (f *Funnel) Regexp(k int) (*regexp.Regexp, error) {
	if k > len(f.classes) {
		k = len(f.classes)
	}
	return regexp.Compile(strings.Join(f.classes[:k], ".*"))
}

// Report is the funnel output, per the paper's worked example:
//
//	(0, 490123)
//	(1, 297071)
//	...
//
// Completed[i] counts sessions that completed stage i (0-indexed);
// Examined is the total number of sessions evaluated.
type Report struct {
	Examined  int64
	Completed []int64
}

// Abandonment returns the per-stage abandonment rate: the fraction of
// sessions that completed stage i but not stage i+1.
func (r Report) Abandonment() []float64 {
	out := make([]float64, 0, len(r.Completed)-1)
	for i := 0; i+1 < len(r.Completed); i++ {
		if r.Completed[i] == 0 {
			out = append(out, 0)
			continue
		}
		out = append(out, 1-float64(r.Completed[i+1])/float64(r.Completed[i]))
	}
	return out
}

// Observe folds one session into the report.
func (r *Report) Observe(depth int) {
	r.Examined++
	for i := 0; i < depth && i < len(r.Completed); i++ {
		r.Completed[i]++
	}
}

// FunnelSequencesDay evaluates the funnel over a day of materialized
// session sequences.
func FunnelSequencesDay(j *dataflow.Job, day time.Time, f *Funnel) (Report, error) {
	rep := Report{Completed: make([]int64, f.NumStages())}
	d, err := j.LoadSessionSequencesDay(day)
	if err != nil {
		return rep, err
	}
	seqIdx := d.Schema().MustIndex("sequence")
	err = d.Each(func(t dataflow.Tuple) error {
		rep.Observe(f.Depth(t[seqIdx].(string)))
		return nil
	})
	return rep, err
}

// UniqueUsersPerStage is the §5.3 variant "translating these figures into
// the number of users (as opposed to sessions) is simply a matter of
// applying the unique operator": distinct user ids per completed stage.
func UniqueUsersPerStage(j *dataflow.Job, day time.Time, f *Funnel) ([]int64, error) {
	d, err := j.LoadSessionSequencesDay(day)
	if err != nil {
		return nil, err
	}
	seqIdx := d.Schema().MustIndex("sequence")
	uidIdx := d.Schema().MustIndex("user_id")
	sets := make([]map[int64]struct{}, f.NumStages())
	for i := range sets {
		sets[i] = make(map[int64]struct{})
	}
	err = d.Each(func(t dataflow.Tuple) error {
		depth := f.Depth(t[seqIdx].(string))
		uid := t[uidIdx].(int64)
		for i := 0; i < depth; i++ {
			sets[i][uid] = struct{}{}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]int64, len(sets))
	for i, s := range sets {
		out[i] = int64(len(s))
	}
	return out, nil
}

// FunnelRawDay answers the same funnel question from the raw client event
// logs: full scan, group-by, re-sessionize, then walk each session — the
// cost the materialized sequences amortize away. The scan, the group-by and
// the session cut are CountRawDay's (rawlog.go); sealed hours read four
// column streams and unsealed hours four columns of their rows.
func FunnelRawDay(j *dataflow.Job, day time.Time, stageMatch []Matcher) (Report, error) {
	rep := Report{Completed: make([]int64, len(stageMatch))}
	rs, err := scanRawSessions(j, day)
	if err != nil {
		return rep, err
	}
	defer rs.close()
	stages := make([]func(uint32) bool, len(stageMatch))
	for i, m := range stageMatch {
		stages[i] = rs.matcher(m)
	}
	err = rs.each(func(seg []rawEvent) {
		stage := 0
		for _, e := range seg {
			if stage < len(stages) && stages[stage](e.name) {
				stage++
			}
		}
		rep.Observe(stage)
	})
	return rep, err
}
