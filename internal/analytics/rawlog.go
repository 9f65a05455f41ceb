package analytics

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"time"

	"unilog/internal/chunk"
	"unilog/internal/dataflow"
	"unilog/internal/recordio"
	"unilog/internal/session"
)

// The raw-log group-by, one copy for every raw-log query: scan the day's
// user id, session id, name and timestamp columns, group the events by (user
// id, session id), put each group in timestamp order and cut it at every
// inactivity gap — the reduce-side re-sessionization the paper's §4.1 calls
// "essentially, a large group-by". The map side folds column batches into a
// combiner keyed by (user id, session id) and shuffles one partial per key
// per flush, not one tuple per event; the reduce side is a plain GroupBy.

// rawEvent is one event of a raw-log session: its timestamp and its name as
// an ID into rawSessions.names.
type rawEvent struct {
	ts   int64
	name uint32
}

func byTimestamp(a, b rawEvent) int { return cmp.Compare(a.ts, b.ts) }

// rawPartialSchema is what the raw-log group-by shuffles: the events one
// combiner flush saw of one (user id, session id), in timestamp order (ties
// in scan order), delta-encoded by appendRawEvents.
var rawPartialSchema = dataflow.Schema{"user_id", "session_id", "events"}

// rawSessions is one day's raw-log group-by, shuffled and ready to reduce.
type rawSessions struct {
	names []string // name ID -> event name, as the scan met them
	g     *dataflow.Grouped
}

// scanRawSessions runs the map side of the raw-log group-by over one day.
// The projection is pushed into the scan (§4.1's early projection): sealed
// hours read four column streams, unsealed hours four columns of their rows.
func scanRawSessions(j *dataflow.Job, day time.Time) (*rawSessions, error) {
	d, err := j.LoadClientEventsDay(day)
	if err == nil {
		d, err = d.Project("user_id", "session_id", "name", "timestamp")
	}
	if err != nil {
		return nil, err
	}
	sh, err := j.NewShuffle(rawPartialSchema, "user_id", "session_id")
	if err != nil {
		return nil, err
	}
	c := &rawCombiner{shuffle: sh, budget: j.MemoryBudget, index: make(map[rawKey]uint32)}
	err = d.EachBatch(c.add)
	if err == nil {
		err = c.flush()
	}
	if err != nil {
		sh.Close()
		return nil, err
	}
	g, err := sh.Group()
	if err != nil {
		return nil, err
	}
	return &rawSessions{names: c.names.strs, g: g}, nil
}

// close releases the shuffle's runs.
func (r *rawSessions) close() error { return r.g.Close() }

// matcher returns m asked once per name ID.
func (r *rawSessions) matcher(m Matcher) func(name uint32) bool {
	const asked, yes = 1, 2
	answers := make([]uint8, len(r.names))
	return func(name uint32) bool {
		a := answers[name]
		if a == 0 {
			a = asked
			if m(r.names[name]) {
				a = yes
			}
			answers[name] = a
		}
		return a == yes
	}
}

// each hands fn every session of the day: each (user id, session id) group's
// events in timestamp order, ties in scan order, cut wherever two events lie
// more than session.InactivityGap apart. seg is valid during the call only.
func (r *rawSessions) each(fn func(seg []rawEvent)) error {
	gapMs := session.InactivityGap.Milliseconds()
	var evs []rawEvent
	return r.g.EachGroup(func(_ dataflow.Tuple, group []dataflow.Tuple) error {
		evs = evs[:0]
		for _, t := range group {
			var err error
			if evs, err = decodeRawEvents(evs, t[2].([]byte)); err != nil {
				return err
			}
		}
		if len(group) > 1 {
			// Partials arrive in flush order and each is in (timestamp,
			// scan) order, so a stable sort restores that order overall.
			slices.SortStableFunc(evs, byTimestamp)
		}
		start := 0
		for i := 1; i <= len(evs); i++ {
			if i < len(evs) && evs[i].ts-evs[i-1].ts <= gapMs {
				continue
			}
			fn(evs[start:i])
			start = i
		}
		return nil
	})
}

// appendRawEvents appends the wire form of a partial's events: per event the
// zig-zag varint delta from the previous timestamp, then the name ID.
func appendRawEvents(buf []byte, evs []rawEvent) []byte {
	prev := int64(0)
	for _, e := range evs {
		buf = binary.AppendVarint(buf, e.ts-prev)
		buf = binary.AppendUvarint(buf, uint64(e.name))
		prev = e.ts
	}
	return buf
}

// decodeRawEvents appends the events appendRawEvents encoded in data.
func decodeRawEvents(evs []rawEvent, data []byte) ([]rawEvent, error) {
	prev := int64(0)
	for len(data) > 0 {
		d, n := binary.Varint(data)
		if n <= 0 {
			return evs, fmt.Errorf("analytics: raw-log partial: %w: bad timestamp delta", recordio.ErrCorrupt)
		}
		name, m := binary.Uvarint(data[n:])
		if m <= 0 || name > uint64(^uint32(0)) {
			return evs, fmt.Errorf("analytics: raw-log partial: %w: bad name ID", recordio.ErrCorrupt)
		}
		prev += d
		evs = append(evs, rawEvent{ts: prev, name: uint32(name)})
		data = data[n+m:]
	}
	return evs, nil
}

// idTable numbers strings in first-seen order.
type idTable struct {
	ids  map[string]uint32
	strs []string
}

// remap numbers every entry of a batch dictionary, returning batch ID ->
// table ID in buf.
func (t *idTable) remap(dict []string, buf []uint32) []uint32 {
	if t.ids == nil {
		t.ids = make(map[string]uint32)
	}
	buf = buf[:0]
	for _, s := range dict {
		id, ok := t.ids[s]
		if !ok {
			id = uint32(len(t.strs))
			t.ids[s] = id
			t.strs = append(t.strs, s)
		}
		buf = append(buf, id)
	}
	return buf
}

// rawKey is one (user id, session id) of the combiner, the session id as an
// ID into rawCombiner.sessions.
type rawKey struct {
	user    int64
	session uint32
}

// rawEntry is one buffered event: 16 bytes, no pointers.
type rawEntry struct {
	ts    int64
	name  uint32
	group uint32 // position of its key in rawCombiner.keys
}

// rawSlot remembers, per session dictionary ID of the current batch, the
// group its rows went to last: a session id is all but unique to a user, so
// most rows find their group by index instead of by hashing a key. A slot is
// valid only in the generation that wrote it.
type rawSlot struct {
	user  int64
	group uint32
	gen   uint32
}

// The table bytes the combiner charges against Job.MemoryBudget: an entry,
// and a key with its index entry.
const (
	rawEntryBytes = 16
	rawKeyBytes   = 32
)

// rawCombiner is the map side of the raw-log group-by: a pointer-free table
// of the events since the last flush, keyed by (user id, session id). A
// flush — whenever the table outgrows Job.MemoryBudget, and once at the end
// — adds one partial per key to the shuffle.
type rawCombiner struct {
	shuffle *dataflow.Shuffle
	budget  int64

	names, sessions idTable
	index           map[rawKey]uint32 // key -> group, since the last flush
	keys            []rawKey
	entries         []rawEntry // in scan order

	// Per batch: batch dictionary ID -> table ID, and the session slots.
	nameMap, sessionMap []uint32
	slots               []rawSlot
	gen                 uint32 // bumped per batch and per flush

	// Flush scratch, and each session id boxed once for every partial.
	ends    []int
	sorted  []rawEvent
	enc     []byte
	boxedID []any
}

// add folds one batch into the table.
func (c *rawCombiner) add(b *chunk.Batch) error {
	c.nameMap = c.names.remap(b.Name.Dict, c.nameMap)
	c.sessionMap = c.sessions.remap(b.SessionID.Dict, c.sessionMap)
	if n := len(b.SessionID.Dict); cap(c.slots) < n {
		c.slots = make([]rawSlot, n)
	} else {
		c.slots = c.slots[:n]
	}
	c.gen++
	for row, local := range b.SessionID.IDs {
		user := b.UserID[row]
		slot := &c.slots[local]
		if slot.gen != c.gen || slot.user != user {
			*slot = rawSlot{user: user, group: c.group(rawKey{user: user, session: c.sessionMap[local]}), gen: c.gen}
		}
		c.entries = append(c.entries, rawEntry{ts: b.Timestamp[row], name: c.nameMap[b.Name.IDs[row]], group: slot.group})
		if c.budget > 0 && int64(len(c.entries))*rawEntryBytes+int64(len(c.keys))*rawKeyBytes > c.budget {
			if err := c.flush(); err != nil {
				return err
			}
		}
	}
	return nil
}

// group returns the position of k's group, opening it on first sight.
func (c *rawCombiner) group(k rawKey) uint32 {
	g, ok := c.index[k]
	if !ok {
		g = uint32(len(c.keys))
		c.index[k] = g
		c.keys = append(c.keys, k)
	}
	return g
}

// flush adds one partial per key to the shuffle — the key's events, stably
// sorted by timestamp and encoded — and empties the table.
func (c *rawCombiner) flush() error {
	n := len(c.keys)
	if n == 0 {
		return nil
	}
	// A stable counting sort on the group moves the entries into key order
	// with each key's events still in scan order.
	ends := slices.Grow(c.ends[:0], n+1)[:n+1]
	clear(ends)
	for _, e := range c.entries {
		ends[e.group+1]++
	}
	for g := 1; g <= n; g++ {
		ends[g] += ends[g-1]
	}
	sorted := slices.Grow(c.sorted[:0], len(c.entries))[:len(c.entries)]
	for _, e := range c.entries {
		sorted[ends[e.group]] = rawEvent{ts: e.ts, name: e.name}
		ends[e.group]++
	}
	// ends[g] is now the end of group g; encode every partial into one
	// scratch buffer, then copy them out in one allocation.
	enc := c.enc[:0]
	lo := 0
	for g := 0; g < n; g++ {
		seg := sorted[lo:ends[g]]
		if !slices.IsSortedFunc(seg, byTimestamp) {
			slices.SortStableFunc(seg, byTimestamp)
		}
		enc = appendRawEvents(enc, seg)
		lo = ends[g]
		ends[g] = len(enc)
	}
	arena := append([]byte(nil), enc...)
	vals := make([]any, 3*n)
	lo = 0
	for g, k := range c.keys {
		t := dataflow.Tuple(vals[3*g : 3*g+3 : 3*g+3])
		t[0], t[1], t[2] = k.user, c.boxedSession(k.session), arena[lo:ends[g]:ends[g]]
		lo = ends[g]
		if err := c.shuffle.Add(t); err != nil {
			return err
		}
	}
	c.ends, c.sorted, c.enc = ends, sorted, enc
	clear(c.index)
	c.keys, c.entries = c.keys[:0], c.entries[:0]
	c.gen++
	return nil
}

// boxedSession returns session id s as a tuple value, boxed once.
func (c *rawCombiner) boxedSession(s uint32) any {
	for int(s) >= len(c.boxedID) {
		c.boxedID = append(c.boxedID, nil)
	}
	if c.boxedID[s] == nil {
		c.boxedID[s] = c.sessions.strs[s]
	}
	return c.boxedID[s]
}
