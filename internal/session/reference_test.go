package session

// The reference implementation the equivalence tests compare against: the
// two-row-scan daily job exactly as it ran before the dictionary-ID core —
// a full Thrift row scan for the histogram, a second one feeding a
// string-keyed group table, dictionary saved before the sessions.

import (
	"sort"
	"time"

	"unilog/internal/events"
	"unilog/internal/hdfs"
	"unilog/internal/warehouse"
)

// refSessionKey identifies one (user, session-id) group.
type refSessionKey struct {
	userID    int64
	sessionID string
}

// refPendingEvent is the projection of a client event the sessionizer keeps:
// name, timestamp, IP — everything else is discarded early, mirroring the
// early-projection Pig idiom of §4.1.
type refPendingEvent struct {
	name string
	ts   int64
	ip   string
}

// refBuilder reconstructs sessions from a stream of client events. Feed every
// event of the day with Add, then call Finish.
//
// This is the materialization of the group-by the paper wants to avoid
// doing per-query: "essentially, a large group-by across potentially
// terabytes of data" (§4.1) — done once here, so queries don't have to.
type refBuilder struct {
	dict   *Dictionary
	gap    time.Duration
	groups map[refSessionKey][]refPendingEvent
	errs   []error
}

// newRefBuilder returns a refBuilder encoding with the given dictionary and the
// standard 30-minute gap.
func newRefBuilder(dict *Dictionary) *refBuilder {
	return &refBuilder{
		dict:   dict,
		gap:    InactivityGap,
		groups: make(map[refSessionKey][]refPendingEvent),
	}
}

// SetGap overrides the inactivity gap (used by ablation experiments).
func (b *refBuilder) SetGap(gap time.Duration) { b.gap = gap }

// Add feeds one client event.
func (b *refBuilder) Add(e *events.ClientEvent) {
	k := refSessionKey{userID: e.UserID, sessionID: e.SessionID}
	b.groups[k] = append(b.groups[k], refPendingEvent{name: e.Name.String(), ts: e.Timestamp, ip: e.IP})
}

// Finish orders each group by timestamp, splits it on inactivity gaps, and
// encodes each resulting session. Records are returned sorted by
// (UserID, SessionID, Start) for deterministic output.
func (b *refBuilder) Finish() ([]Record, error) {
	keys := make([]refSessionKey, 0, len(b.groups))
	for k := range b.groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].userID != keys[j].userID {
			return keys[i].userID < keys[j].userID
		}
		return keys[i].sessionID < keys[j].sessionID
	})
	var out []Record
	gapMillis := b.gap.Milliseconds()
	for _, k := range keys {
		evs := b.groups[k]
		sort.SliceStable(evs, func(i, j int) bool {
			if evs[i].ts != evs[j].ts {
				return evs[i].ts < evs[j].ts
			}
			return evs[i].name < evs[j].name
		})
		start := 0
		for i := 1; i <= len(evs); i++ {
			if i < len(evs) && evs[i].ts-evs[i-1].ts <= gapMillis {
				continue
			}
			seg := evs[start:i]
			rec, err := b.encodeSegment(k, seg)
			if err != nil {
				return nil, err
			}
			out = append(out, rec)
			start = i
		}
	}
	return out, nil
}

func (b *refBuilder) encodeSegment(k refSessionKey, seg []refPendingEvent) (Record, error) {
	names := make([]string, len(seg))
	for i, e := range seg {
		names[i] = e.name
	}
	seq, err := b.dict.Encode(names)
	if err != nil {
		return Record{}, err
	}
	return Record{
		UserID:    k.userID,
		SessionID: k.sessionID,
		IP:        seg[0].ip,
		Sequence:  seq,
		Duration:  int32((seg[len(seg)-1].ts - seg[0].ts) / 1000),
		Start:     seg[0].ts,
	}, nil
}

// Observe counts one event and retains it as a sample if quota remains.
func (h *Histogram) Observe(e *events.ClientEvent) {
	name := e.Name.String()
	h.Counts[name]++
	h.Events++
	if h.SampleLimit > 0 && len(h.Samples[name]) < h.SampleLimit {
		h.Samples[name] = append(h.Samples[name], e.Marshal())
	}
}

// refHistogramDay scans one day of client events in the warehouse and returns
// the event histogram — the first pass of the daily session-sequence job.
func refHistogramDay(fs *hdfs.FS, day time.Time, sampleLimit int) (*Histogram, error) {
	h := NewHistogram(sampleLimit)
	err := warehouse.ScanDay(fs, events.Category, day, func(e *events.ClientEvent) error {
		h.Observe(e)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return h, nil
}

// refBuildDay runs the full two-pass daily job (§4.2): histogram + dictionary
// construction, then session reconstruction and materialization. The
// dictionary is persisted to its known HDFS location; the records land in
// the day's session-sequence partition.
func refBuildDay(fs *hdfs.FS, day time.Time, sampleLimit int) (*Dictionary, *Histogram, DayStats, error) {
	var stats DayStats
	// Pass 1: histogram and dictionary.
	h, err := refHistogramDay(fs, day, sampleLimit)
	if err != nil {
		return nil, nil, stats, err
	}
	dict, err := Build(h.Counts)
	if err != nil {
		return nil, nil, stats, err
	}
	if err := SaveDictionary(fs, day, dict); err != nil {
		return nil, nil, stats, err
	}
	// Pass 2: reconstruct and materialize sessions.
	b := newRefBuilder(dict)
	err = warehouse.ScanDay(fs, events.Category, day, func(e *events.ClientEvent) error {
		b.Add(e)
		return nil
	})
	if err != nil {
		return nil, nil, stats, err
	}
	recs, err := b.Finish()
	if err != nil {
		return nil, nil, stats, err
	}
	if err := WriteDay(fs, day, recs, 0); err != nil {
		return nil, nil, stats, err
	}

	stats.Events = h.Events
	stats.Sessions = int64(len(recs))
	stats.Alphabet = dict.Len()
	if raw, err := rawDaySize(fs, day); err == nil {
		stats.RawBytes = raw
	}
	if sz, err := fs.TotalSize(warehouse.SessionDayDir(day)); err == nil {
		stats.SeqBytes = sz
	}
	return dict, h, stats, nil
}
