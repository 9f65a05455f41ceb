package session

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"time"
	"unicode/utf8"

	"unilog/internal/chunk"
	"unilog/internal/events"
	"unilog/internal/thrift"
)

// InactivityGap delimits user sessions: "following standard practices, we
// use a 30-minute inactivity interval" (§4.2).
const InactivityGap = 30 * time.Minute

// Record is the materialized session relation of §4.2:
//
//	user_id: long, session_id: string, ip: string,
//	session_sequence: string, duration: int
//
// Start is an implementation extra used to assign a record to its day
// partition; the paper's relation is "slightly simplified".
type Record struct {
	UserID    int64
	SessionID string
	IP        string
	// Sequence is the unicode session-sequence string. Other than overall
	// duration, no temporal information survives — only relative order.
	Sequence string
	// Duration is the whole-second interval between the first and last
	// event of the session.
	Duration int32
	// Start is the timestamp of the first event, in ms since the epoch.
	Start int64
}

// EventCount returns the number of events in the session.
func (r *Record) EventCount() int {
	n := 0
	for range r.Sequence {
		n++
	}
	return n
}

// Thrift field ids for Record.
const (
	rfUserID    = 1
	rfSessionID = 2
	rfIP        = 3
	rfSequence  = 4
	rfDuration  = 5
	rfStart     = 6
)

// Encode writes the record as a Thrift struct.
func (r *Record) Encode(enc *thrift.CompactEncoder) {
	enc.WriteStructBegin()
	enc.WriteFieldBegin(thrift.I64, rfUserID)
	enc.WriteI64(r.UserID)
	enc.WriteFieldBegin(thrift.STRING, rfSessionID)
	enc.WriteString(r.SessionID)
	enc.WriteFieldBegin(thrift.STRING, rfIP)
	enc.WriteString(r.IP)
	enc.WriteFieldBegin(thrift.STRING, rfSequence)
	enc.WriteString(r.Sequence)
	enc.WriteFieldBegin(thrift.I32, rfDuration)
	enc.WriteI32(r.Duration)
	enc.WriteFieldBegin(thrift.I64, rfStart)
	enc.WriteI64(r.Start)
	enc.WriteFieldStop()
	enc.WriteStructEnd()
}

// Decode reads the record from a Thrift struct.
func (r *Record) Decode(dec *thrift.CompactDecoder) error {
	if err := dec.ReadStructBegin(); err != nil {
		return err
	}
	for {
		ft, id, err := dec.ReadFieldBegin()
		if err != nil {
			return err
		}
		if ft == thrift.STOP {
			break
		}
		switch id {
		case rfUserID:
			r.UserID, err = dec.ReadI64()
		case rfSessionID:
			r.SessionID, err = dec.ReadString()
		case rfIP:
			r.IP, err = dec.ReadString()
		case rfSequence:
			r.Sequence, err = dec.ReadString()
		case rfDuration:
			r.Duration, err = dec.ReadI32()
		case rfStart:
			r.Start, err = dec.ReadI64()
		default:
			err = dec.Skip(ft)
		}
		if err != nil {
			return err
		}
	}
	return dec.ReadStructEnd()
}

// groupKey identifies one (user, session-id) group.
type groupKey struct {
	userID  int64
	session uint32
}

// entry is the projection of a client event the sessionizer keeps: 16
// bytes of timestamp, name ID and IP ID — everything else is discarded
// early, mirroring the early-projection Pig idiom of §4.1.
type entry struct {
	ts   int64
	name uint32
	ip   uint32
}

// sessionizer is the one session-reconstruction core: a group table over
// interned IDs. Row events reach it through Builder.Add (intern, then
// append), column batches through dayScan (remap batch-local IDs once per
// distinct value, then append), and finish turns it into records.
//
// The table is flat: one entry per event in scan order, each with its
// group beside it, and finish orders it by group with a counting sort,
// which keeps scan order within each group. It grows a block at a time, so
// a day's events are written once: append's growth of one slice that large
// would allocate about five times the table, and one slice per group more
// still.
type sessionizer struct {
	names, sessions, ips chunk.Interner // day-global IDs, in first-seen order

	index  map[groupKey]uint32 // group key -> position in keys
	keys   []groupKey
	blocks []*tableBlock
	rows   int // events in the table
}

// blockRows is the number of events a tableBlock holds.
const blockRows = 4096

// tableBlock holds blockRows consecutive events of the group table.
type tableBlock struct {
	entries [blockRows]entry
	group   [blockRows]uint32 // entries[i]'s group
}

// filled returns block i's events and their groups.
func (s *sessionizer) filled(i int) ([]entry, []uint32) {
	n := min(blockRows, s.rows-i*blockRows)
	return s.blocks[i].entries[:n], s.blocks[i].group[:n]
}

func newSessionizer() *sessionizer {
	return &sessionizer{
		index: make(map[groupKey]uint32),
	}
}

// group returns the position of k's group, opening it on first sight.
func (s *sessionizer) group(k groupKey) uint32 {
	g, ok := s.index[k]
	if !ok {
		g = uint32(len(s.keys))
		s.index[k] = g
		s.keys = append(s.keys, k)
	}
	return g
}

// add appends one event, already interned, to group g.
func (s *sessionizer) add(g uint32, e entry) {
	i := s.rows % blockRows
	if i == 0 {
		s.blocks = append(s.blocks, new(tableBlock))
	}
	b := s.blocks[len(s.blocks)-1]
	b.entries[i], b.group[i] = e, g
	s.rows++
}

// byGroup returns the entries ordered by group, scan order kept within a
// group, and where each group starts: group g is out[start[g]:start[g+1]].
func (s *sessionizer) byGroup() (out []entry, start []int) {
	start = make([]int, len(s.keys)+1)
	for i := range s.blocks {
		_, groups := s.filled(i)
		for _, g := range groups {
			start[g+1]++
		}
	}
	for g := range s.keys {
		start[g+1] += start[g]
	}
	next := slices.Clone(start[:len(s.keys)])
	out = make([]entry, s.rows)
	for i := range s.blocks {
		entries, groups := s.filled(i)
		for j, g := range groups {
			out[next[g]] = entries[j]
			next[g]++
		}
	}
	return out, start
}

// finish orders each group by timestamp (ties by name), splits it on
// inactivity gaps, and encodes each resulting session through dict.
// Records are returned sorted by (UserID, SessionID, Start) for
// deterministic output.
func (s *sessionizer) finish(dict *Dictionary, gap time.Duration) ([]Record, error) {
	// Per distinct name, once: its code point (0, which is never assigned,
	// when the dictionary lacks it), and its lexical rank so equal-timestamp
	// ties sort on an integer exactly as they would on the name string.
	symbols := make([]rune, len(s.names.Strs))
	byName := make([]uint32, len(s.names.Strs))
	for id, name := range s.names.Strs {
		symbols[id], _ = dict.Symbol(name)
		byName[id] = uint32(id)
	}
	slices.SortFunc(byName, func(a, b uint32) int { return strings.Compare(s.names.Strs[a], s.names.Strs[b]) })
	rank := make([]uint32, len(byName))
	for r, id := range byName {
		rank[id] = uint32(r)
	}

	order := make([]uint32, len(s.keys))
	for g := range order {
		order[g] = uint32(g)
	}
	slices.SortFunc(order, func(a, b uint32) int {
		ka, kb := s.keys[a], s.keys[b]
		if c := cmp.Compare(ka.userID, kb.userID); c != 0 {
			return c
		}
		return strings.Compare(s.sessions.Strs[ka.session], s.sessions.Strs[kb.session])
	})

	table, start := s.byGroup()
	out := make([]Record, 0, len(s.keys)) // a group is at least one session
	var seq []byte
	gapMillis := gap.Milliseconds()
	for _, g := range order {
		evs := table[start[g]:start[g+1]]
		slices.SortStableFunc(evs, func(a, b entry) int {
			if c := cmp.Compare(a.ts, b.ts); c != 0 {
				return c
			}
			return cmp.Compare(rank[a.name], rank[b.name])
		})
		start := 0
		for i := 1; i <= len(evs); i++ {
			if i < len(evs) && evs[i].ts-evs[i-1].ts <= gapMillis {
				continue
			}
			seg := evs[start:i]
			seq = seq[:0]
			for _, e := range seg {
				if symbols[e.name] == 0 {
					return nil, fmt.Errorf("%w: %q", ErrUnknownEvent, s.names.Strs[e.name])
				}
				seq = utf8.AppendRune(seq, symbols[e.name])
			}
			out = append(out, Record{
				UserID:    s.keys[g].userID,
				SessionID: s.sessions.Strs[s.keys[g].session],
				IP:        s.ips.Strs[seg[0].ip],
				Sequence:  string(seq),
				Duration:  int32((seg[len(seg)-1].ts - seg[0].ts) / 1000),
				Start:     seg[0].ts,
			})
			start = i
		}
	}
	return out, nil
}

// Builder reconstructs sessions from a stream of client events. Feed every
// event of the day with Add, then call Finish.
//
// This is the materialization of the group-by the paper wants to avoid
// doing per-query: "essentially, a large group-by across potentially
// terabytes of data" (§4.1) — done once here, so queries don't have to.
type Builder struct {
	dict *Dictionary
	gap  time.Duration
	core *sessionizer
}

// NewBuilder returns a Builder encoding with the given dictionary and the
// standard 30-minute gap.
func NewBuilder(dict *Dictionary) *Builder {
	return &Builder{dict: dict, gap: InactivityGap, core: newSessionizer()}
}

// SetGap overrides the inactivity gap (used by ablation experiments).
func (b *Builder) SetGap(gap time.Duration) { b.gap = gap }

// Add feeds one client event: intern its three strings, append its 16-byte
// entry and its group.
func (b *Builder) Add(e *events.ClientEvent) {
	c := b.core
	g := c.group(groupKey{userID: e.UserID, session: c.sessions.ID(e.SessionID)})
	c.add(g, entry{ts: e.Timestamp, name: c.names.ID(e.Name.String()), ip: c.ips.ID(e.IP)})
}

// Finish orders each group by timestamp, splits it on inactivity gaps, and
// encodes each resulting session. Records are returned sorted by
// (UserID, SessionID, Start) for deterministic output.
func (b *Builder) Finish() ([]Record, error) {
	return b.core.finish(b.dict, b.gap)
}
