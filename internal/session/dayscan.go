package session

import (
	"fmt"
	"time"

	"unilog/internal/chunk"
	"unilog/internal/events"
	"unilog/internal/hdfs"
	"unilog/internal/warehouse"
)

// dayScan is the one physical scan behind HistogramDay and BuildDay. It
// reads the day through the day reader (chunk.ReadHour), one column batch
// per sealed chunk or per row file of an hour not yet sealed, and treats
// both alike: batch dictionary IDs are remapped to day-global IDs once per
// distinct value and every row after that is integer work, feeding the
// same counters and the same sessionizer in scan order.
type dayScan struct {
	core        *sessionizer
	sessions    bool // fill the group table, not only the histogram
	sampleLimit int

	counts  []int64    // events per day-global name ID
	samples [][][]byte // up to sampleLimit serialized events per name ID
	events  int64

	// Per-batch scratch, reused across batches.
	nameMap, sessionMap, ipMap []uint32 // batch-local ID -> day-global ID
	slots                      []groupSlot
}

// groupSlot caches, per batch-local session ID, the group its rows went to
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

// scan reads every existing hour of the day once.
func (s *dayScan) scan(fs *hdfs.FS, day time.Time) error {
	need := chunk.Name
	if s.sessions {
		need |= chunk.UserID | chunk.SessionID | chunk.IP | chunk.Timestamp
	}
	for _, dir := range warehouse.HourDirs(fs, events.Category, day) {
		if err := chunk.ReadHour(fs, dir, need, s.scanBatch); err != nil {
			return err
		}
	}
	return nil
}

// growNames extends the per-name tables to the names interned so far.
func (s *dayScan) growNames() {
	for n := len(s.core.names.Strs); len(s.counts) < n; {
		s.counts = append(s.counts, 0)
		s.samples = append(s.samples, nil)
	}
}

// scanBatch feeds one batch: count its names, sample the names still short
// of their quota, and append its rows to the group table. Nothing of the
// batch is kept, so it is released for the next file's walk.
func (s *dayScan) scanBatch(b *chunk.Batch) error {
	defer b.Release()
	s.nameMap = s.core.names.Remap(b.Name.Dict, s.nameMap)
	s.growNames()
	for _, id := range b.Name.IDs {
		s.counts[s.nameMap[id]]++
	}
	s.events += int64(b.Rows)
	if s.unsaturated() {
		// Only now are the remaining columns worth reading, and only the
		// sampled rows become events.
		if err := b.Widen(chunk.All &^ chunk.LoggedIn); err != nil {
			return err
		}
		if err := s.sample(&b.Columns); err != nil {
			return fmt.Errorf("session: %s: %w", b.Path, err)
		}
	}
	if s.sessions {
		s.group(&b.Columns)
	}
	return nil
}

// unsaturated reports whether any name of the current batch's dictionary
// still wants samples.
func (s *dayScan) unsaturated() bool {
	for _, name := range s.nameMap {
		if len(s.samples[name]) < s.sampleLimit {
			return true
		}
	}
	return false
}

// sample retains the batch's first events of every name short of its quota.
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

// group appends the batch's rows to the group table.
func (s *dayScan) group(cc *chunk.Columns) {
	c := s.core
	s.sessionMap = c.sessions.Remap(cc.SessionID.Dict, s.sessionMap)
	s.ipMap = c.ips.Remap(cc.IP.Dict, s.ipMap)
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
		c.add(slot.group, entry{
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
	for id, name := range s.core.names.Strs {
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
