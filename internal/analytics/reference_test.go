package analytics

import (
	"sort"
	"time"

	"unilog/internal/dataflow"
	"unilog/internal/events"
	"unilog/internal/geo"
	"unilog/internal/session"
)

// The tuple-based raw-log jobs the batch folds replaced, kept as references:
// a tuple per event off the scan, the rollup combiner fed one string row at
// a time, and for the raw queries a per-event GroupByOrdered whose groups
// stream past in timestamp order.

// add counts one event by its strings, the combiner's door before it folded
// batches. Malformed names are dropped.
func (c *rollupCombiner) add(name, ip string, loggedIn bool) {
	e, err := events.Lookup(name)
	if err != nil {
		return
	}
	c.counts[cellOf(e.ID, c.country(geo.CountryOf(ip)), loggedIn)]++
}

// refRollups is Rollups over tuples.
func refRollups(j *dataflow.Job, day time.Time) (map[RollupKey]int64, error) {
	d, err := j.LoadClientEventsDay(day)
	if err == nil {
		d, err = d.Project("name", "ip", "logged_in")
	}
	if err != nil {
		return nil, err
	}
	c := newRollupCombiner()
	err = d.Each(func(t dataflow.Tuple) error {
		c.add(t[0].(string), t[1].(string), t[2].(bool))
		return nil
	})
	if err != nil {
		return nil, err
	}
	partial := c.partials()
	keys := make([]RollupKey, 0, len(partial))
	for k := range partial {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		ka, kb := keys[a], keys[b]
		if ka.Level != kb.Level {
			return ka.Level < kb.Level
		}
		if ka.Name != kb.Name {
			return ka.Name < kb.Name
		}
		if ka.Country != kb.Country {
			return ka.Country < kb.Country
		}
		return !ka.LoggedIn && kb.LoggedIn
	})
	tuples := make([]dataflow.Tuple, len(keys))
	for i, k := range keys {
		tuples[i] = dataflow.Tuple{int64(k.Level), k.Name, k.Country, k.LoggedIn, partial[k]}
	}
	rows := dataflow.NewDataset(j, dataflow.Schema{"level", "rolled", "country", "logged_in", "n"}, tuples)
	g, err := rows.GroupBy("level", "rolled", "country", "logged_in")
	if err != nil {
		return nil, err
	}
	defer g.Close()
	counts, err := g.Sum("n", "n")
	if err != nil {
		return nil, err
	}
	out := make(map[RollupKey]int64, len(keys))
	err = counts.Each(func(t dataflow.Tuple) error {
		out[RollupKey{
			Level:    events.RollupLevel(t[0].(int64)),
			Name:     t[1].(string),
			Country:  t[2].(string),
			LoggedIn: t[3].(bool),
		}] = t[4].(int64)
		return nil
	})
	return out, err
}

// refRawSessions groups the day's events by (user id, session id) with the
// shuffle's secondary sort on the timestamp, cuts each group at inactivity
// gaps and hands fn each session's names in order.
func refRawSessions(j *dataflow.Job, day time.Time, fn func(names []string)) error {
	p, err := j.LoadClientEventsDay(day)
	if err == nil {
		p, err = p.Project("user_id", "session_id", "name", "timestamp")
	}
	if err != nil {
		return err
	}
	g, err := p.GroupByOrdered("timestamp", "user_id", "session_id")
	if err != nil {
		return err
	}
	defer g.Close()
	gapMs := session.InactivityGap.Milliseconds()
	var names []string
	return g.EachGroup(func(_ dataflow.Tuple, group []dataflow.Tuple) error {
		names = names[:0]
		for i, t := range group {
			if i > 0 && t[3].(int64)-group[i-1][3].(int64) > gapMs {
				fn(names)
				names = names[:0]
			}
			names = append(names, t[2].(string))
		}
		fn(names)
		return nil
	})
}

// refCountRawDay is CountRawDay over tuples.
func refCountRawDay(j *dataflow.Job, day time.Time, m Matcher) (CountReport, error) {
	var rep CountReport
	err := refRawSessions(j, day, func(names []string) {
		n := int64(0)
		for _, name := range names {
			if m(name) {
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

// refFunnelRawDay is FunnelRawDay over tuples.
func refFunnelRawDay(j *dataflow.Job, day time.Time, stages []Matcher) (Report, error) {
	rep := Report{Completed: make([]int64, len(stages))}
	err := refRawSessions(j, day, func(names []string) {
		stage := 0
		for _, name := range names {
			if stage < len(stages) && stages[stage](name) {
				stage++
			}
		}
		rep.Observe(stage)
	})
	return rep, err
}
