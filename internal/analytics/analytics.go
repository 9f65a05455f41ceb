// Package analytics implements the paper's §5 applications over session
// sequences: event counting (the CountClientEvents UDF), funnel analytics
// (the ClientEventsFunnel UDF), and click-through / follow-through rates.
//
// Each UDF is initialized with the client event dictionary and a selection
// of event names — a wildcard pattern or an arbitrary regular expression,
// "automatically expanded to include all matching events" (§5.2) — after
// which evaluation is pure string manipulation over the unicode session
// sequences.
//
// For every sequence-based query there is a raw-logs counterpart that
// performs the same analysis the pre-materialization way: scan the day's
// client events, group by (user id, session id), re-sessionize, then
// analyze. Both raw queries share one group-by (rawlog.go), which folds the
// scan's column batches into a map-side combiner and shuffles one partial
// per session rather than a tuple per event; it still scans every raw byte
// of the day (Stats.BytesRead is what a tuple scan reads). The pairs are
// deliberately kept side by side; their cost gap is the paper's performance
// argument (§4.1, §5.3): TestRawAndSequencePathsAgree and TestFunnelRawAgrees
// hold the answers equal, and the benchmark reports the gap
// (analytics.funnel_raw_ms against analytics.funnel_seq_ms).
package analytics

import (
	"regexp"
	"time"

	"unilog/internal/dataflow"
	"unilog/internal/events"
	"unilog/internal/hdfs"
	"unilog/internal/session"
)

// Matcher selects event names. events.Pattern.MatchesString and
// regexp.MatchString both satisfy it. A matcher must be a pure function of
// the name: the raw-log queries ask it once per distinct name and reuse
// the answer for every later event with that name.
type Matcher func(name string) bool

// MatcherFromPattern adapts a wildcard pattern.
func MatcherFromPattern(p string) (Matcher, error) {
	pat, err := events.ParsePattern(p)
	if err != nil {
		return nil, err
	}
	return pat.MatchesString, nil
}

// MatcherFromRegexp adapts an arbitrary regular expression over the full
// colon-joined event name.
func MatcherFromRegexp(expr string) (Matcher, error) {
	re, err := regexp.Compile(expr)
	if err != nil {
		return nil, err
	}
	return re.MatchString, nil
}

// Counter is the CountClientEvents UDF (§5.2): it counts occurrences of a
// set of events inside session sequences. The event set is expanded once
// against the dictionary; evaluation touches only sequence symbols.
type Counter struct {
	symbols map[rune]struct{}
}

// NewCounter builds a counter for every dictionary event accepted by m.
func NewCounter(dict *session.Dictionary, m Matcher) *Counter {
	c := &Counter{symbols: make(map[rune]struct{})}
	for _, r := range dict.SymbolsWhere(m) {
		c.symbols[r] = struct{}{}
	}
	return c
}

// NumSymbols reports how many event types the matcher expanded to.
func (c *Counter) NumSymbols() int { return len(c.symbols) }

// Count returns the number of matching events in one session sequence —
// the SUM variant of the paper's counting script.
func (c *Counter) Count(seq string) int64 {
	var n int64
	for _, r := range seq {
		if _, ok := c.symbols[r]; ok {
			n++
		}
	}
	return n
}

// Contains reports whether the sequence has at least one matching event —
// the COUNT variant, "useful for understanding what fraction of users take
// advantage of a particular feature" (§5.2).
func (c *Counter) Contains(seq string) bool {
	for _, r := range seq {
		if _, ok := c.symbols[r]; ok {
			return true
		}
	}
	return false
}

// CountReport aggregates a counting query over a day.
type CountReport struct {
	// Events is the total number of matching events (SUM).
	Events int64
	// Sessions is the number of sessions containing a match (COUNT).
	Sessions int64
	// TotalSessions is the number of sessions examined.
	TotalSessions int64
}

// CountSequencesDay runs a counting query over the day's materialized
// session sequences using the dataflow engine, so job costs are metered.
func CountSequencesDay(j *dataflow.Job, day time.Time, dict *session.Dictionary, m Matcher) (CountReport, error) {
	var rep CountReport
	d, err := j.LoadSessionSequencesDay(day)
	if err != nil {
		return rep, err
	}
	c := NewCounter(dict, m)
	seqIdx := d.Schema().MustIndex("sequence")
	err = d.Each(func(t dataflow.Tuple) error {
		seq := t[seqIdx].(string)
		n := c.Count(seq)
		rep.Events += n
		if n > 0 {
			rep.Sessions++
		}
		rep.TotalSessions++
		return nil
	})
	return rep, err
}

// CountRawDay answers the same query from the raw client event logs: a full
// scan, then the reduce-side re-sessionization the paper wants to avoid —
// the raw-log group-by of rawlog.go, which hands each re-sessionized
// session to the count already in timestamp order.
func CountRawDay(j *dataflow.Job, day time.Time, m Matcher) (CountReport, error) {
	var rep CountReport
	rs, err := scanRawSessions(j, day)
	if err != nil {
		return rep, err
	}
	defer rs.close()
	match := rs.matcher(m)
	err = rs.each(func(seg []rawEvent) {
		n := int64(0)
		for _, e := range seg {
			if match(e.name) {
				n++
			}
		}
		rep.Events += n
		rep.TotalSessions++
		if n > 0 {
			rep.Sessions++
		}
	})
	return rep, err
}

// RateReport is a click-through / follow-through measurement (§4.1, §5.2).
type RateReport struct {
	Impressions int64
	Actions     int64
}

// Rate returns Actions per Impression.
func (r RateReport) Rate() float64 {
	if r.Impressions == 0 {
		return 0
	}
	return float64(r.Actions) / float64(r.Impressions)
}

// RateOverSequences computes CTR/FTR-style rates from materialized
// sequences: "it suffices to know that an impression was followed by a
// click or follow event" (§4.1). Counting is global per session rather than
// positional, matching the paper's coarse-grained common case.
func RateOverSequences(fs *hdfs.FS, day time.Time, dict *session.Dictionary, impressions, actions Matcher) (RateReport, error) {
	var rep RateReport
	ci := NewCounter(dict, impressions)
	ca := NewCounter(dict, actions)
	err := session.ScanDay(fs, day, func(r *session.Record) error {
		rep.Impressions += ci.Count(r.Sequence)
		rep.Actions += ca.Count(r.Sequence)
		return nil
	})
	return rep, err
}
