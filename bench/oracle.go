package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"unilog/internal/analytics"
	"unilog/internal/events"
	"unilog/internal/geo"
	"unilog/internal/realtime"
	"unilog/internal/session"
)

// The oracle folds the generator stream, with the public helpers only
// (events.ParseName/Rollup/Pattern, geo.CountryOf, session.InactivityGap),
// into the answers every workload's outputs are checked against. It shares
// no code path with the jobs, counters or formats under test.

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func hashString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	// A terminator, so that ("ab","c") and ("a","bc") differ.
	h ^= 0xff
	h *= fnvPrime
	return h
}

func hashUint64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

// mix64 is the splitmix64 finalizer; it spreads FNV's weak low bits before
// the hashes are summed.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// eventIdentity hashes (session_id, timestamp, name), the triple that names
// one logged event for the exactly-once check.
func eventIdentity(e *events.ClientEvent) uint64 {
	h := hashString(fnvOffset, e.SessionID)
	h = hashUint64(h, uint64(e.Timestamp))
	// The name is hashed as its colon-joined form without building the
	// string, so a consumer that only has the rendered name (a dataflow
	// tuple) computes the same identity with rowIdentity.
	for i := 0; i < events.NumComponents; i++ {
		if i > 0 {
			h ^= ':'
			h *= fnvPrime
		}
		c := e.Name.At(i)
		for j := 0; j < len(c); j++ {
			h ^= uint64(c[j])
			h *= fnvPrime
		}
	}
	h ^= 0xff
	h *= fnvPrime
	return mix64(h)
}

// rowIdentity is eventIdentity for a row that carries the rendered name.
func rowIdentity(sessionID string, ts int64, name string) uint64 {
	h := hashString(fnvOffset, sessionID)
	h = hashUint64(h, uint64(ts))
	return mix64(hashString(h, name))
}

// setDigest is an order-independent digest of a multiset of events: a lost
// event, a duplicate, or one swapped for another all change it.
type setDigest struct {
	N   int64
	Sum uint64
	Xor uint64
}

func (d *setDigest) add(h uint64) {
	d.N++
	d.Sum += h
	d.Xor ^= h
}

func (d setDigest) String() string { return fmt.Sprintf("%d:%016x:%016x", d.N, d.Sum, d.Xor) }

type sessKey struct {
	user int64
	id   string
}

// oev is the oracle's projection of one generated event.
type oev struct {
	ts       int64
	sess     uint32
	name     uint16
	minute   uint16 // minute of the day
	country  uint8
	loggedIn bool
}

type rollupCell struct {
	name     uint16
	country  uint8
	loggedIn bool
}

type oracle struct {
	day   time.Time
	dayMs int64
	n     int64

	names  []string // distinct full names in first-seen order
	parsed []events.EventName
	nameID map[events.EventName]uint16

	countries []string
	countryID map[string]uint8

	sessID map[sessKey]uint32
	evs    []oev
	cells  map[rollupCell]int64

	digest setDigest // exactly-once identity of the whole day
	input  uint64    // ordered hash of every field of every event

	// Built by finish.
	rollups  map[analytics.RollupKey]int64
	sessions [][]uint16 // each reconstructed session's names in time order
}

func newOracle(day time.Time) *oracle {
	return &oracle{
		day:       day,
		dayMs:     day.UnixMilli(),
		nameID:    make(map[events.EventName]uint16),
		countryID: make(map[string]uint8),
		sessID:    make(map[sessKey]uint32),
		cells:     make(map[rollupCell]int64),
		input:     fnvOffset,
	}
}

// observe folds one generated event and returns its hour of the day.
func (o *oracle) observe(e *events.ClientEvent) (int, error) {
	rel := e.Timestamp - o.dayMs
	if rel < 0 || rel >= 24*3600*1000 {
		return 0, fmt.Errorf("generated event at %d ms falls outside the day", e.Timestamp)
	}
	id, ok := o.nameID[e.Name]
	if !ok {
		full := e.Name.String()
		// Round-trip through the public parser: the oracle only trusts
		// names that ParseName accepts, as the rollup job does.
		parsed, err := events.ParseName(full)
		if err != nil {
			return 0, fmt.Errorf("generated name %q: %w", full, err)
		}
		if len(o.names) >= 1<<16 {
			return 0, fmt.Errorf("more than %d distinct event names", 1<<16)
		}
		id = uint16(len(o.names))
		o.names = append(o.names, full)
		o.parsed = append(o.parsed, parsed)
		o.nameID[e.Name] = id
	}
	country := geo.CountryOf(e.IP)
	cid, ok := o.countryID[country]
	if !ok {
		cid = uint8(len(o.countries))
		o.countries = append(o.countries, country)
		o.countryID[country] = cid
	}
	sk := sessKey{e.UserID, e.SessionID}
	sid, ok := o.sessID[sk]
	if !ok {
		sid = uint32(len(o.sessID))
		o.sessID[sk] = sid
	}
	loggedIn := e.LoggedIn()
	o.evs = append(o.evs, oev{
		ts: e.Timestamp, sess: sid, name: id,
		minute: uint16(rel / 60000), country: cid, loggedIn: loggedIn,
	})
	o.cells[rollupCell{id, cid, loggedIn}]++
	o.n++

	ident := eventIdentity(e)
	o.digest.add(ident)
	h := hashUint64(ident, uint64(e.UserID))
	h = hashString(h, e.IP)
	h = hashUint64(h, uint64(e.Initiator))
	if len(e.Details) > 0 {
		keys := make([]string, 0, len(e.Details))
		for k := range e.Details {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			h = hashString(hashString(h, k), e.Details[k])
		}
	}
	o.input = hashUint64(o.input, h)
	return int(rel / 3600000), nil
}

func (o *oracle) inputDigest() string { return fmt.Sprintf("%d:%016x", o.n, o.input) }

// finish derives the rollup table and the session list once the stream has
// ended.
func (o *oracle) finish() {
	rolled := make([][events.NumRollupLevels]string, len(o.names))
	for i, n := range o.parsed {
		for lvl := 0; lvl < events.NumRollupLevels; lvl++ {
			rolled[i][lvl] = n.Rollup(events.RollupLevel(lvl)).String()
		}
	}
	o.rollups = make(map[analytics.RollupKey]int64)
	for c, n := range o.cells {
		for lvl := 0; lvl < events.NumRollupLevels; lvl++ {
			o.rollups[analytics.RollupKey{
				Level:    events.RollupLevel(lvl),
				Name:     rolled[c.name][lvl],
				Country:  o.countries[c.country],
				LoggedIn: c.loggedIn,
			}] += n
		}
	}

	// Sessions: group on (user id, session id), order by timestamp, split
	// where two neighbours lie more than InactivityGap apart.
	idx := make([]int32, len(o.evs))
	for i := range idx {
		idx[i] = int32(i)
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ea, eb := &o.evs[idx[a]], &o.evs[idx[b]]
		if ea.sess != eb.sess {
			return ea.sess < eb.sess
		}
		return ea.ts < eb.ts
	})
	gap := session.InactivityGap.Milliseconds()
	var cur []uint16
	for i, ix := range idx {
		e := &o.evs[ix]
		if i > 0 {
			prev := &o.evs[idx[i-1]]
			if prev.sess != e.sess || e.ts-prev.ts > gap {
				o.sessions = append(o.sessions, cur)
				cur = nil
			}
		}
		cur = append(cur, e.name)
	}
	if cur != nil {
		o.sessions = append(o.sessions, cur)
	}
}

// nameMask evaluates a predicate once per distinct name.
func (o *oracle) nameMask(match func(i int) bool) []bool {
	mask := make([]bool, len(o.names))
	for i := range mask {
		mask[i] = match(i)
	}
	return mask
}

// patternMask marks the names an events.Pattern accepts.
func (o *oracle) patternMask(p events.Pattern) []bool {
	return o.nameMask(func(i int) bool { return p.Matches(o.parsed[i]) })
}

// pathMask marks the names a hierarchy path counts: the path itself or
// anything below it.
func (o *oracle) pathMask(path string) []bool {
	return o.nameMask(func(i int) bool {
		return o.names[i] == path || strings.HasPrefix(o.names[i], path+":")
	})
}

// countReport is the expected answer of a counting query, raw or over
// sequences: matching events, sessions with a match, sessions examined.
func (o *oracle) countReport(mask []bool) analytics.CountReport {
	var rep analytics.CountReport
	for _, s := range o.sessions {
		var n int64
		for _, id := range s {
			if mask[id] {
				n++
			}
		}
		rep.Events += n
		if n > 0 {
			rep.Sessions++
		}
		rep.TotalSessions++
	}
	return rep
}

// selectAnswer is what a selective scan must return: how many rows, and the
// sum of their timestamps so that the right rows, not just the right
// number, are checked.
type selectAnswer struct {
	Rows  int64
	SumTs int64
}

func (o *oracle) selectAnswer(mask []bool, tmin, tmax int64) selectAnswer {
	var a selectAnswer
	for i := range o.evs {
		e := &o.evs[i]
		if mask[e.name] && e.ts >= tmin && e.ts < tmax {
			a.Rows++
			a.SumTs += e.ts
		}
	}
	return a
}

// pathSum counts the events under a path in minutes [fromMin, toMin) of
// the day, for one replay of the day.
func (o *oracle) pathSum(mask []bool, fromMin, toMin int) int64 {
	var n int64
	for i := range o.evs {
		e := &o.evs[i]
		if mask[e.name] && int(e.minute) >= fromMin && int(e.minute) < toMin {
			n++
		}
	}
	return n
}

// series is pathSum per minute.
func (o *oracle) series(mask []bool, fromMin, toMin int) []int64 {
	out := make([]int64, toMin-fromMin)
	for i := range o.evs {
		e := &o.evs[i]
		if mask[e.name] && int(e.minute) >= fromMin && int(e.minute) < toMin {
			out[int(e.minute)-fromMin]++
		}
	}
	return out
}

// topK ranks the children of a path by count, ties by path ascending, the
// order realtime.Counter.TopK documents.
func (o *oracle) topK(parent string, k, fromMin, toMin int) []realtime.PathCount {
	child := make([]string, len(o.names))
	for i, full := range o.names {
		rest := full
		if parent != "" {
			if !strings.HasPrefix(full, parent+":") {
				continue
			}
			rest = full[len(parent)+1:]
		}
		if j := strings.IndexByte(rest, ':'); j >= 0 {
			rest = rest[:j]
		}
		if parent == "" {
			child[i] = rest
		} else {
			child[i] = parent + ":" + rest
		}
	}
	counts := make(map[string]int64)
	for i := range o.evs {
		e := &o.evs[i]
		if child[e.name] != "" && int(e.minute) >= fromMin && int(e.minute) < toMin {
			counts[child[e.name]]++
		}
	}
	ranked := make([]realtime.PathCount, 0, len(counts))
	for p, n := range counts {
		ranked = append(ranked, realtime.PathCount{Path: p, Count: n})
	}
	sort.Slice(ranked, func(a, b int) bool {
		if ranked[a].Count != ranked[b].Count {
			return ranked[a].Count > ranked[b].Count
		}
		return ranked[a].Path < ranked[b].Path
	})
	if len(ranked) > k {
		ranked = ranked[:k]
	}
	return ranked
}

// rollupDiffs counts the rows on which got differs from want × times.
func rollupDiffs(got, want map[analytics.RollupKey]int64, times int64) int64 {
	var diffs int64
	for k, n := range want {
		if got[k] != n*times {
			diffs++
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			diffs++
		}
	}
	return diffs
}

// sortedNames returns the distinct names in lexical order, the stable base
// from which seeded query lists are drawn.
func (o *oracle) sortedNames() []string {
	out := append([]string(nil), o.names...)
	sort.Strings(out)
	return out
}
