package session

import (
	"fmt"
	"time"

	"unilog/internal/chunk"
	"unilog/internal/events"
	"unilog/internal/hdfs"
	"unilog/internal/warehouse"
)

// dayScan is the one physical scan behind HistogramDay and BuildDay. An
// hour sealed into column chunks (the _col-SEALED marker, nothing else,
// decides) is read through the typed chunk reader: chunk-local dictionary
// IDs are remapped to day-global IDs once per distinct value and every
// row after that is integer work. Any other hour is read from its row
// files and interned event by event. Both feed the same counters and the
// same sessionizer, in the same order the row scan visits the day.
type dayScan struct {
	core        *sessionizer
	sessions    bool // fill the group table, not only the histogram
	sampleLimit int

	counts  []int64    // events per day-global name ID
	samples [][][]byte // up to sampleLimit serialized events per name ID
	events  int64

	// Per-chunk scratch, reused across chunks.
	nameMap, sessionMap, ipMap []uint32 // chunk-local ID -> day-global ID
	slots                      []groupSlot
}

// groupSlot caches, per chunk-local session ID, the group its rows went to
// last: session ids are all but unique to a user, so most rows find their
// group by index instead of by hashing a key.
type groupSlot struct {
	userID int64
	group  uint32
	ok     bool
}

func newDayScan(sampleLimit int, sessions bool) *dayScan {
	return &dayScan{core: newSessionizer(), sessions: sessions, sampleLimit: sampleLimit}
}

// scan reads every existing hour of the day once, sealed hours by chunk and
// the rest by row file — the per-hour choice columnar.EventsFormat makes.
func (s *dayScan) scan(fs *hdfs.FS, day time.Time) error {
	day = day.UTC().Truncate(24 * time.Hour)
	for h := 0; h < 24; h++ {
		hour := day.Add(time.Duration(h) * time.Hour)
		dir := warehouse.HourDir(events.Category, hour)
		if !fs.Exists(dir) {
			continue
		}
		var err error
		if chunk.Sealed(fs, dir) {
			err = s.scanChunks(fs, dir)
		} else {
			err = warehouse.ScanHour(fs, events.Category, hour, s.addEvent)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// growNames extends the per-name tables to the names interned so far.
func (s *dayScan) growNames() {
	for n := len(s.core.names.strs); len(s.counts) < n; {
		s.counts = append(s.counts, 0)
		s.samples = append(s.samples, nil)
	}
}

// addEvent feeds one row-file event: intern, count, sample, append.
func (s *dayScan) addEvent(e *events.ClientEvent) error {
	c := s.core
	name := c.names.id(e.Name.String())
	s.growNames()
	s.counts[name]++
	s.events++
	if len(s.samples[name]) < s.sampleLimit {
		s.samples[name] = append(s.samples[name], e.Marshal())
	}
	if s.sessions {
		c.add(e.UserID, c.sessions.id(e.SessionID), name, c.ips.id(e.IP), e.Timestamp)
	}
	return nil
}

// remap interns a chunk dictionary, returning chunk-local ID -> global ID.
func remap(t *interner, dict []string, buf []uint32) []uint32 {
	buf = buf[:0]
	for _, v := range dict {
		buf = append(buf, t.id(v))
	}
	return buf
}

// scanChunks feeds one sealed hour. The chunks are enumerated from the
// marker's count, so one that went missing after the seal is an error
// rather than a shorter hour.
func (s *dayScan) scanChunks(fs *hdfs.FS, dir string) error {
	n, err := chunk.SealedChunks(fs, dir)
	if err != nil {
		return err
	}
	need := chunk.Name
	if s.sessions {
		need |= chunk.UserID | chunk.SessionID | chunk.IP | chunk.Timestamp
	}
	for i := 0; i < n; i++ {
		m, err := chunk.ReadMeta(fs, chunk.MetaPath(dir, i))
		if err != nil {
			return err
		}
		base := chunk.Base(dir, i)
		var cc chunk.Columns
		if err := cc.Load(fs, base, m, need); err != nil {
			return err
		}
		s.nameMap = remap(&s.core.names, cc.Name.Dict, s.nameMap)
		s.growNames()
		for _, id := range cc.Name.IDs {
			s.counts[s.nameMap[id]]++
		}
		s.events += int64(m.Rows)
		if s.unsaturated() {
			// Only now are the remaining columns worth reading, and only
			// the sampled rows become events.
			if err := cc.Load(fs, base, m, chunk.All&^chunk.LoggedIn); err != nil {
				return err
			}
			if err := s.sample(&cc); err != nil {
				return fmt.Errorf("session: %s.name: %w", base, err)
			}
		}
		if s.sessions {
			s.group(&cc)
		}
	}
	return nil
}

// unsaturated reports whether any name of the current chunk's dictionary
// still wants samples.
func (s *dayScan) unsaturated() bool {
	for _, name := range s.nameMap {
		if len(s.samples[name]) < s.sampleLimit {
			return true
		}
	}
	return false
}

// sample retains the chunk's first events of every name short of its quota.
func (s *dayScan) sample(cc *chunk.Columns) error {
	for row, id := range cc.Name.IDs {
		name := s.nameMap[id]
		if len(s.samples[name]) >= s.sampleLimit {
			continue
		}
		e, err := cc.Event(row)
		if err != nil {
			return err
		}
		s.samples[name] = append(s.samples[name], e.Marshal())
	}
	return nil
}

// group appends the chunk's rows to the group table.
func (s *dayScan) group(cc *chunk.Columns) {
	c := s.core
	s.sessionMap = remap(&c.sessions, cc.SessionID.Dict, s.sessionMap)
	s.ipMap = remap(&c.ips, cc.IP.Dict, s.ipMap)
	if n := len(cc.SessionID.Dict); cap(s.slots) < n {
		s.slots = make([]groupSlot, n)
	} else {
		s.slots = s.slots[:n]
		clear(s.slots)
	}
	for row, local := range cc.SessionID.IDs {
		userID := cc.UserID[row]
		slot := &s.slots[local]
		if !slot.ok || slot.userID != userID {
			*slot = groupSlot{userID: userID, group: c.group(groupKey{userID: userID, session: s.sessionMap[local]}), ok: true}
		}
		c.groups[slot.group] = append(c.groups[slot.group], entry{
			ts:   cc.Timestamp[row],
			name: s.nameMap[cc.Name.IDs[row]],
			ip:   s.ipMap[cc.IP.IDs[row]],
		})
	}
}

// histogram renders the counters as the exported, string-keyed Histogram.
func (s *dayScan) histogram() *Histogram {
	h := NewHistogram(s.sampleLimit)
	h.Events = s.events
	for id, name := range s.core.names.strs {
		if s.counts[id] == 0 {
			continue // a dictionary entry no row referenced
		}
		h.Counts[name] = s.counts[id]
		if len(s.samples[id]) > 0 {
			h.Samples[name] = s.samples[id]
		}
	}
	return h
}
