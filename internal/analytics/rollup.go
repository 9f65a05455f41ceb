package analytics

import (
	"sort"
	"time"

	"unilog/internal/columnar"
	"unilog/internal/dataflow"
	"unilog/internal/events"
	"unilog/internal/geo"
)

// RollupKey identifies one aggregated metric row: a (possibly wildcarded)
// event name at one rollup level, broken down by country and logged-in
// status, exactly as §3.2 describes the automatic Oink aggregations that
// feed the internal dashboard.
type RollupKey struct {
	Level    events.RollupLevel
	Name     string
	Country  string
	LoggedIn bool
}

// Rollups computes, for one day of raw client events, the counts of events
// under all five §3.2 schemas:
//
//	(client, page, section, component, element, action)
//	(client, page, section, component, *, action)
//	(client, page, section, *, *, action)
//	(client, page, *, *, *, action)
//	(client, *, *, *, *, action)
//
// "without any additional intervention from the application developer,
// rudimentary statistics are computed and made available on a daily basis."
//
// The job runs map-combine-reduce: events stream off the scan (one split in
// memory at a time), a map-side combiner counts them by interned (full
// name, country, logged-in) — one name-table lookup and one map write per
// event — and expands each distinct combination into its five rollup rows
// once, when the scan ends.
// Only those partials — a relation the size of the distinct key space, not
// five times the event count — shuffle into the final GroupBy, which
// spills under Job.MemoryBudget like any external operator.
//
// The scan goes through the columnar source projected to the three columns
// the rollup touches; hours not yet sealed into chunks fall back to their
// row files, with identical output either way.
func Rollups(j *dataflow.Job, day time.Time) (map[RollupKey]int64, error) {
	d, err := columnar.LoadDay(j, day, dataflow.Selection{Columns: []string{"name", "ip", "logged_in"}})
	if err != nil {
		return nil, err
	}
	nameIdx := d.Schema().MustIndex("name")
	ipIdx := d.Schema().MustIndex("ip")
	liIdx := d.Schema().MustIndex("logged_in")

	// Map side: stream the day once through the combiner.
	c := newRollupCombiner()
	err = d.Each(func(t dataflow.Tuple) error {
		c.add(t[nameIdx].(string), t[ipIdx].(string), t[liIdx].(bool))
		return nil
	})
	if err != nil {
		return nil, err
	}
	partial := c.partials()

	// Shuffle only the combined partials. Sorting the keys keeps the
	// synthetic relation deterministic run over run.
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

	// Reduce side: the metered group-by over the combined rows, summing
	// the partial counts. With a combiner every group has one partial per
	// map side, so this is cheap — which is the point.
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
		k := RollupKey{
			Level:    events.RollupLevel(t[0].(int64)),
			Name:     t[1].(string),
			Country:  t[2].(string),
			LoggedIn: t[3].(bool),
		}
		out[k] = t[4].(int64)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// rollupCombiner is the map side of Rollups: a count per distinct (full
// event name, country, logged-in) over interned IDs. The name's ID and its
// five §3.2 rolled names come from the events name table, which computed
// them the first time the process saw the name; the country is resolved
// per event (no per-IP table: addresses are nearly as many as events) and
// interned.
type rollupCombiner struct {
	countries []string
	counts    map[combineKey]int64
}

// combineKey is one combiner cell.
type combineKey struct {
	name, country uint32
	loggedIn      bool
}

func newRollupCombiner() *rollupCombiner {
	return &rollupCombiner{counts: make(map[combineKey]int64)}
}

// add counts one event. Malformed names are dropped.
func (c *rollupCombiner) add(name, ip string, loggedIn bool) {
	e, err := events.Lookup(name)
	if err != nil {
		return
	}
	c.counts[combineKey{name: e.ID, country: c.country(geo.CountryOf(ip)), loggedIn: loggedIn}]++
}

// country interns a country code; there are a handful, so a scan beats a
// map.
func (c *rollupCombiner) country(code string) uint32 {
	for i, known := range c.countries {
		if known == code {
			return uint32(i)
		}
	}
	c.countries = append(c.countries, code)
	return uint32(len(c.countries) - 1)
}

// partials expands every cell into its five rollup rows: the table a
// per-event fold of those rows would have built.
func (c *rollupCombiner) partials() map[RollupKey]int64 {
	names := events.NameEntries()
	partial := make(map[RollupKey]int64, len(c.counts))
	for k, n := range c.counts {
		for lvl, name := range names[k.name].Rolled {
			partial[RollupKey{
				Level:    events.RollupLevel(lvl),
				Name:     name,
				Country:  c.countries[k.country],
				LoggedIn: k.loggedIn,
			}] += n
		}
	}
	return partial
}

// RollupTotal sums a rolled-up name across countries and login status at
// the given level — the top-line dashboard number.
func RollupTotal(rollups map[RollupKey]int64, level events.RollupLevel, name string) int64 {
	var total int64
	for k, n := range rollups {
		if k.Level == level && k.Name == name {
			total += n
		}
	}
	return total
}
