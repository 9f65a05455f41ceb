package analytics

import (
	"sort"
	"time"

	"unilog/internal/chunk"
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
// The job runs map-combine-reduce: the scan hands the day over as column
// batches (one chunk or row file at a time), and a map-side combiner counts
// each batch's rows by (name-table ID, country, logged-in) — resolving each
// name dictionary entry through the events name table and each address
// dictionary entry to its country once per batch, so a row costs one
// combiner increment and no string — then expands each distinct combination
// into its five rollup rows once, when the scan ends.
// Only those partials — a relation the size of the distinct key space, not
// five times the event count — shuffle into the final GroupBy, which
// spills under Job.MemoryBudget like any external operator.
//
// The scan is the day's client events projected to the three columns the
// rollup touches; hours not yet sealed into chunks are read from their row
// files into the same batches, with identical output either way.
func Rollups(j *dataflow.Job, day time.Time) (map[RollupKey]int64, error) {
	d, err := j.LoadClientEventsDay(day)
	if err == nil {
		d, err = d.Project("name", "ip", "logged_in")
	}
	if err != nil {
		return nil, err
	}

	// Map side: stream the day once through the combiner.
	c := newRollupCombiner()
	if err := d.EachBatch(c.addBatch); err != nil {
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
	// One backing array for the relation, and each distinct string boxed
	// once: a rolled name or a country recurs across many keys.
	tuples := make([]dataflow.Tuple, len(keys))
	vals := make([]any, 5*len(keys))
	boxed := make(map[string]any)
	box := func(s string) any {
		v, ok := boxed[s]
		if !ok {
			v = s
			boxed[s] = v
		}
		return v
	}
	for i, k := range keys {
		t := dataflow.Tuple(vals[5*i : 5*i+5 : 5*i+5])
		t[0], t[1], t[2], t[3], t[4] = int64(k.Level), box(k.Name), box(k.Country), k.LoggedIn, partial[k]
		tuples[i] = t
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
// them the first time the process saw the name; the country is resolved per
// address dictionary entry of a batch and interned.
type rollupCombiner struct {
	countries []string
	counts    map[combineKey]int64

	// Per batch: name dictionary ID -> name-table ID + 1 (0: a name the
	// table rejects, whose rows are dropped), address dictionary ID ->
	// country.
	names, ips []uint32
}

// combineKey is one combiner cell — the name-table ID, the country's index
// in rollupCombiner.countries and the logged-in bit — packed into the
// map's 64-bit fast path.
type combineKey uint64

func cellOf(name, country uint32, loggedIn bool) combineKey {
	k := combineKey(name)<<32 | combineKey(country)<<1
	if loggedIn {
		k |= 1
	}
	return k
}

func (k combineKey) name() uint32    { return uint32(k >> 32) }
func (k combineKey) country() uint32 { return uint32(k) >> 1 }
func (k combineKey) loggedIn() bool  { return k&1 == 1 }

func newRollupCombiner() *rollupCombiner {
	return &rollupCombiner{counts: make(map[combineKey]int64)}
}

// addBatch counts one batch's rows. Rows with a malformed name (the unnamed
// message's zero name) are dropped.
func (c *rollupCombiner) addBatch(b *chunk.Batch) error {
	c.names = c.names[:0]
	for _, name := range b.Name.Dict {
		id := uint32(0)
		if e, err := events.Lookup(name); err == nil {
			id = e.ID + 1
		}
		c.names = append(c.names, id)
	}
	c.ips = c.ips[:0]
	for _, ip := range b.IP.Dict {
		c.ips = append(c.ips, c.country(geo.CountryOf(ip)))
	}
	for row, local := range b.Name.IDs {
		if name := c.names[local]; name != 0 {
			c.counts[cellOf(name-1, c.ips[b.IP.IDs[row]], b.LoggedIn[row] == 1)]++
		}
	}
	return nil
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
		for lvl, name := range names[k.name()].Rolled {
			partial[RollupKey{
				Level:    events.RollupLevel(lvl),
				Name:     name,
				Country:  c.countries[k.country()],
				LoggedIn: k.loggedIn(),
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
