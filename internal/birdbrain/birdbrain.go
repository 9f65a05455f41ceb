// Package birdbrain computes the daily dashboard summaries of §5.1: the
// number of user sessions per day with drill-downs by client type and
// bucketed session duration, plus the country and logged-in/out breakdowns
// of §3.2.
//
// "Due to their compact size, statistics about sessions are easy to compute
// from the session sequences" — every metric here is derived from one scan
// of the materialized session store, never from the raw logs.
//
// The package also answers the dashboards' counting queries. Lambda serves
// today from the realtime counters and a sealed day from the warehouse
// rollup job, run over what the warehouse holds at query time — nothing is
// cached, so a late backfill counts as soon as it lands. Scatter fans the
// same reads over a replicated cluster.
package birdbrain

import (
	"fmt"
	"io"
	"sort"
	"time"

	"unilog/internal/events"
	"unilog/internal/geo"
	"unilog/internal/hdfs"
	"unilog/internal/session"
)

// DurationBuckets are the session-duration drill-down boundaries.
var DurationBuckets = []struct {
	Label string
	Max   int32 // inclusive upper bound, seconds; -1 = unbounded
}{
	{"<1m", 59},
	{"1-5m", 299},
	{"5-15m", 899},
	{"15-30m", 1799},
	{"30m-1h", 3599},
	{">1h", -1},
}

// BucketLabel returns the bucket a duration (seconds) falls in.
func BucketLabel(seconds int32) string {
	for _, b := range DurationBuckets {
		if b.Max < 0 || seconds <= b.Max {
			return b.Label
		}
	}
	return DurationBuckets[len(DurationBuckets)-1].Label
}

// Summary is one day's dashboard payload.
type Summary struct {
	Day               time.Time
	Sessions          int64
	Events            int64
	UniqueUsers       int64
	LoggedInSessions  int64
	LoggedOutSessions int64
	ByClient          map[string]int64
	ByCountry         map[string]int64
	ByDuration        map[string]int64
	// TopEvents lists the most frequent events from the day's dictionary.
	TopEvents []EventCount
	// MeanSessionSeconds is the average session duration.
	MeanSessionSeconds float64
}

// EventCount pairs an event name with its daily count.
type EventCount struct {
	Name  string
	Count int64
}

// Build computes the summary from the materialized session store and the
// day's dictionary.
func Build(fs *hdfs.FS, day time.Time, topK int) (*Summary, error) {
	dict, err := session.LoadDictionary(fs, day)
	if err != nil {
		return nil, err
	}
	s := &Summary{
		Day:        day.UTC().Truncate(24 * time.Hour),
		ByClient:   make(map[string]int64),
		ByCountry:  make(map[string]int64),
		ByDuration: make(map[string]int64),
	}
	users := make(map[int64]struct{})
	var totalSeconds int64
	err = session.ScanDay(fs, day, func(r *session.Record) error {
		s.Sessions++
		n := int64(r.EventCount())
		s.Events += n
		if r.UserID != 0 {
			s.LoggedInSessions++
			users[r.UserID] = struct{}{}
		} else {
			s.LoggedOutSessions++
		}
		s.ByCountry[geo.CountryOf(r.IP)]++
		s.ByDuration[BucketLabel(r.Duration)]++
		totalSeconds += int64(r.Duration)
		// The client drill-down comes from the first event's client
		// component — decodable from the sequence alone.
		for _, sym := range r.Sequence {
			name, ok := dict.Name(sym)
			if !ok {
				return fmt.Errorf("birdbrain: unknown symbol %U", sym)
			}
			en, err := events.ParseName(name)
			if err != nil {
				return err
			}
			s.ByClient[en.Client]++
			break
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	s.UniqueUsers = int64(len(users))
	if s.Sessions > 0 {
		s.MeanSessionSeconds = float64(totalSeconds) / float64(s.Sessions)
	}
	names := dict.Names()
	for i := 0; i < topK && i < len(names); i++ {
		s.TopEvents = append(s.TopEvents, EventCount{Name: names[i], Count: dict.Count(names[i])})
	}
	return s, nil
}

// Render writes the dashboard as fixed-width text tables.
func (s *Summary) Render(w io.Writer) {
	fmt.Fprintf(w, "BirdBrain daily summary — %s\n", s.Day.Format("2006-01-02"))
	fmt.Fprintf(w, "  sessions:            %d\n", s.Sessions)
	fmt.Fprintf(w, "  events:              %d\n", s.Events)
	fmt.Fprintf(w, "  unique users:        %d\n", s.UniqueUsers)
	fmt.Fprintf(w, "  logged in/out:       %d / %d\n", s.LoggedInSessions, s.LoggedOutSessions)
	fmt.Fprintf(w, "  mean session length: %.0fs\n", s.MeanSessionSeconds)
	renderMap(w, "sessions by client", s.ByClient)
	renderMap(w, "sessions by country", s.ByCountry)
	fmt.Fprintf(w, "  %s:\n", "sessions by duration")
	for _, b := range DurationBuckets {
		if n, ok := s.ByDuration[b.Label]; ok {
			fmt.Fprintf(w, "    %-8s %10d\n", b.Label, n)
		}
	}
	if len(s.TopEvents) > 0 {
		fmt.Fprintf(w, "  top events:\n")
		for _, e := range s.TopEvents {
			fmt.Fprintf(w, "    %10d  %s\n", e.Count, e.Name)
		}
	}
}

func renderMap(w io.Writer, title string, m map[string]int64) {
	fmt.Fprintf(w, "  %s:\n", title)
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if m[keys[i]] != m[keys[j]] {
			return m[keys[i]] > m[keys[j]]
		}
		return keys[i] < keys[j]
	})
	for _, k := range keys {
		fmt.Fprintf(w, "    %-12s %10d\n", k, m[k])
	}
}

// Trend is a multi-day view of the dashboard: "the number of user sessions
// daily and plotted as a function of time ... lets us monitor the growth
// of the service over time and spot trends" (§5.1).
type Trend struct {
	Days []*Summary
}

// BuildTrend builds summaries for n consecutive days starting at from,
// skipping days without a session store.
func BuildTrend(fs *hdfs.FS, from time.Time, n int) (*Trend, error) {
	tr := &Trend{}
	for i := 0; i < n; i++ {
		day := from.AddDate(0, 0, i)
		s, err := Build(fs, day, 0)
		if err != nil {
			continue // day not built yet
		}
		tr.Days = append(tr.Days, s)
	}
	if len(tr.Days) == 0 {
		return nil, fmt.Errorf("birdbrain: no built days in range")
	}
	return tr, nil
}
