package realtime

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"unilog/internal/events"
	"unilog/internal/recordio"
)

// A snapshot is the other half of durability: the WAL alone would grow
// without bound and make recovery replay a whole day, so the snapshotter
// periodically serializes every shard's ring into one CRC-framed
// file and retires the WAL segments the file covers.
//
// The snapshot/WAL boundary must be exact — counters are additive, so a
// record replayed on top of a snapshot that already contains it double
// counts. The protocol gets exactness per shard from the drain goroutine
// itself: a snap message asks each drain to (1) rotate its WAL to a fresh
// segment and (2) serialize its ring, in that order, between batches.
// The serialized state is then precisely the effect of every record in
// segments below the rotated sequence number, and recovery replays only
// segments at or above it. Shards are captured independently (shard A may
// apply more batches while shard B serializes) — that is fine, because
// shards never share keys and recovery is per-shard.
//
// Snapshot files are named snap-<seq>.snap; higher seq wins. A file is a
// CRC record stream: one header record (version, per-shard next WAL
// sequence numbers, the observed-event total, the retention high-water
// minute, and the full Stats block so activity counters survive
// restarts), one dictionary record (the name table's event names and the
// counter's countries, indexed by ID), then one record per non-empty minute
// bucket holding its leaf rows (name ID, country ID and logged-in bit,
// count). A snapshot is the leaf table and nothing derived from it: prefix
// sums and rollup rows are sums over leaves, rebuilt when they are read.
// Writes go to a temp file that is fsynced and atomically renamed, so a
// crashed snapshotter leaves either the old snapshot or the new one, never a
// half-written current file.

// errClosed reports a durability operation on a stopped counter.
var errClosed = errors.New("realtime: counter is closed")

// snapRecordVersion is the snapshot format version. A header carrying any
// other version — the retired v1 (string-keyed buckets, no dictionary, no
// stats) and v2 (prefix and rollup tables per bucket) included — is
// rejected as corrupt.
const snapRecordVersion = 3

// Record tags inside a snapshot file.
const (
	snapTagHeader = 'H'
	snapTagDict   = 'D'
	snapTagBucket = 'B'
)

// snapName formats a snapshot file name.
func snapName(seq int64) string { return fmt.Sprintf("snap-%010d.snap", seq) }

// parseSnapName inverts snapName.
func parseSnapName(name string) (seq int64, ok bool) {
	rest, ok := strings.CutPrefix(name, "snap-")
	if !ok {
		return 0, false
	}
	rest, ok = strings.CutSuffix(rest, ".snap")
	if !ok {
		return 0, false
	}
	seq, err := strconv.ParseInt(rest, 10, 64)
	if err != nil || seq < 0 {
		return 0, false
	}
	return seq, true
}

// shardState is one shard's contribution to a snapshot: its encoded
// buckets and the leaf rows in them, its applied-event count, and the WAL
// sequence number its state is exact up to (exclusive).
type shardState struct {
	recs    [][]byte
	leaves  int64
	applied int64
	dropped int64
	evicted int64
	nextSeq int64
	err     error
}

// captureShard encodes every live bucket of a shard — one behind the
// retention horizon is not live even while its slot is unrecycled, and a
// load would drop it anyway (loadBucket). With rotate it runs
// on the shard's drain goroutine and first rotates the WAL so the
// boundary is durable; without, the drains have exited (Close) and the
// caller sets the boundary. The shard lock is held only against
// concurrent readers, and only the leaves are read: a bucket's prefix
// cache and stale mark are as the capture found them. Bucket records
// carry only IDs; the dictionary that resolves them is fetched
// afterwards, in writeSnapshot, which is safe because IDs are append-only
// — the table can only have grown since the capture.
func (c *Counter) captureShard(s *shard, rotate bool) shardState {
	st := shardState{applied: s.applied, dropped: s.dropped, evicted: s.evicted}
	if rotate && s.wal != nil {
		seq, err := s.wal.rotate()
		if err != nil {
			return shardState{err: err}
		}
		st.nextSeq = seq
	}
	horizon := c.maxMinute.Load() - int64(c.buckets)
	s.mu.Lock()
	for j := range s.ring {
		b := &s.ring[j]
		if b.leaf == nil || b.minute <= horizon {
			continue
		}
		st.recs = append(st.recs, encodeBucket(nil, s.idx, b.minute, b.leaf))
		st.leaves += int64(len(b.leaf))
	}
	s.mu.Unlock()
	return st
}

// Snapshot forces a snapshot now: every shard rotates its WAL and hands
// its state to the caller, which writes the file and deletes the covered
// segments. Automatic snapshots call this on the Config.SnapshotEvery
// cadence. It returns errClosed (and changes nothing) on a stopped
// counter.
func (c *Counter) Snapshot() error {
	err := c.snapshotNow()
	if err != nil && err != errClosed {
		c.snapErrors.Add(1)
	}
	return err
}

func (c *Counter) snapshotNow() error {
	if c.dir == "" {
		return errors.New("realtime: memory-only counter has no snapshots (use Open)")
	}
	c.snapMu.Lock()
	defer c.snapMu.Unlock()
	c.closeMu.RLock()
	if c.closed {
		c.closeMu.RUnlock()
		return errClosed
	}
	replies := make([]chan shardState, len(c.shards))
	for i, s := range c.shards {
		replies[i] = make(chan shardState, 1)
		s.ch <- shardMsg{snap: replies[i]}
	}
	c.closeMu.RUnlock()
	states := make([]shardState, len(c.shards))
	for i := range replies {
		states[i] = <-replies[i]
	}
	for i := range states {
		if states[i].err != nil {
			return states[i].err
		}
	}
	return c.writeSnapshot(states)
}

// snapshotFinal serializes directly from the rings after the drains
// have exited (Close); the WAL writers are closed, so the snapshot covers
// every segment and the whole log is retired.
func (c *Counter) snapshotFinal() error {
	states := make([]shardState, len(c.shards))
	for i, s := range c.shards {
		states[i] = c.captureShard(s, false)
		states[i].nextSeq = s.wal.seq + 1
	}
	return c.writeSnapshot(states)
}

// writeSnapshot persists the captured states as snap-<snapSeq+1>.snap and
// prunes everything it supersedes. Callers hold snapMu.
func (c *Counter) writeSnapshot(states []shardState) error {
	defer tmSnapshotNs.ObserveSince(time.Now())
	// The header's next-sequence list must cover not only the live shards
	// but any lingering segment files from a previous, larger
	// configuration: their content was replayed at Open and is therefore
	// in this snapshot, and recording them here keeps a crash between
	// rename and prune from double counting them on the next recovery.
	next := make([]int64, len(states))
	for i, st := range states {
		next[i] = st.nextSeq
	}
	for shard, seq := range c.lingeringSegments(len(states)) {
		for len(next) <= shard {
			next = append(next, 0)
		}
		next[shard] = seq + 1
	}
	var observed, dropped, evicted int64
	for _, st := range states {
		observed += st.applied
		dropped += st.dropped
		evicted += st.evicted
	}
	observed += c.observedBase
	// The activity counters are captured here so a restart carries them
	// forward. The replay-derivable ones — DroppedOld, Evicted — use the
	// per-shard values read on each drain goroutine at its WAL rotation,
	// exactly like the observed total: sampling the live atomics instead
	// would bake post-rotation drops into the snapshot and count them
	// again when the WAL tail replays. Snapshots counts the file being
	// cut.
	stats := c.Stats()
	stats.Snapshots++
	stats.DroppedOld = c.droppedBase + dropped
	stats.Evicted = c.evictedBase + evicted

	seq := c.snapSeq + 1
	tmp := filepath.Join(c.dir, fmt.Sprintf("snap-%010d.tmp", seq))
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	cw := recordio.NewCRCWriter(bw)
	werr := cw.Append(encodeSnapHeader(nil, next, observed, c.maxMinute.Load(), stats))
	if werr == nil {
		// The name table as it stands covers every leaf captured before it
		// was fetched: IDs are append-only.
		entries := events.NameEntries()
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Full
		}
		werr = cw.Append(encodeSnapDict(nil, names, c.tab.countries()))
	}
	var leaves int64
	for _, st := range states {
		leaves += st.leaves
		for _, rec := range st.recs {
			if werr != nil {
				break
			}
			werr = cw.Append(rec)
		}
	}
	if werr == nil {
		werr = bw.Flush()
	}
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp)
		return werr
	}
	final := filepath.Join(c.dir, snapName(seq))
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return err
	}
	syncDir(c.dir)
	c.snapSeq = seq
	c.snapshots.Add(1)
	tmSnapshotBytes.Set(cw.Bytes())
	tmSnapshotLeaves.Set(leaves)
	c.prune(seq, next)
	return nil
}

// lingeringSegments returns, for every shard index >= liveShards that
// still has WAL files on disk, the highest segment sequence present.
func (c *Counter) lingeringSegments(liveShards int) map[int]int64 {
	out := map[int]int64{}
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		return out
	}
	for _, e := range entries {
		shard, seq, ok := parseWALName(e.Name())
		if !ok || shard < liveShards {
			continue
		}
		if cur, ok := out[shard]; !ok || seq > cur {
			out[shard] = seq
		}
	}
	return out
}

// prune best-effort deletes superseded snapshots and WAL segments below
// each shard's covered boundary. The immediately previous snapshot is
// kept: it is what recovery falls back to if the newest file turns out
// unreadable, and it costs one file. Failures are harmless: recovery
// ignores superseded snapshots and skips covered segments by sequence.
func (c *Counter) prune(seq int64, next []int64) {
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if s, ok := parseSnapName(name); ok && s < seq-1 {
			os.Remove(filepath.Join(c.dir, name))
		}
		if shard, s, ok := parseWALName(name); ok && shard < len(next) && s < next[shard] {
			os.Remove(filepath.Join(c.dir, name))
		}
	}
}

// snapshotLoop cuts a snapshot every Config.SnapshotEvery until shutdown.
func (c *Counter) snapshotLoop() {
	defer close(c.snapDone)
	t := time.NewTicker(c.cfg.SnapshotEvery)
	defer t.Stop()
	for {
		select {
		case <-c.snapQuit:
			return
		case <-t.C:
			_ = c.Snapshot() // failure counted in SnapshotErrors; WAL tail stays
		}
	}
}

// syncDir fsyncs a directory so a just-renamed file survives a power cut.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

// encodeSnapHeader appends the header record: tag, version, the per-shard
// next WAL sequences, the observed total, the high-water minute, and the
// activity-counter block.
func encodeSnapHeader(buf []byte, next []int64, observed, maxMinute int64, stats Stats) []byte {
	buf = append(buf, snapTagHeader, snapRecordVersion)
	buf = binary.AppendUvarint(buf, uint64(len(next)))
	for _, n := range next {
		buf = binary.AppendUvarint(buf, uint64(n))
	}
	buf = binary.AppendUvarint(buf, uint64(observed))
	buf = binary.AppendUvarint(buf, uint64(maxMinute))
	for _, v := range statsFields(&stats) {
		buf = binary.AppendUvarint(buf, uint64(*v))
	}
	return buf
}

// statsFields lists the persisted activity counters in wire order.
// Observed is deliberately absent: it travels separately, computed from
// the per-shard applied counts the snapshot protocol makes exact.
func statsFields(s *Stats) []*int64 {
	return []*int64{
		&s.TapEntries, &s.DecodeErrors, &s.Invalid, &s.DroppedOld,
		&s.Evicted, &s.QueueFull, &s.WALBatches, &s.WALBytes,
		&s.WALErrors, &s.Fsyncs, &s.Snapshots, &s.SnapshotErrors,
	}
}

// snapHeader is the decoded header record.
type snapHeader struct {
	next      []int64
	observed  int64
	maxMinute int64
	stats     Stats
}

// decodeSnapHeader parses a header record on the shared recordio.Cursor.
func decodeSnapHeader(rec []byte) (snapHeader, error) {
	var h snapHeader
	corrupt := func(what string) (snapHeader, error) {
		return h, fmt.Errorf("%w: snapshot header %s", recordio.ErrCorrupt, what)
	}
	if len(rec) < 2 || rec[0] != snapTagHeader {
		return corrupt("tag")
	}
	if rec[1] != snapRecordVersion {
		return corrupt(fmt.Sprintf("version %d", rec[1]))
	}
	c := recordio.NewCursor(rec[2:])
	h.next = make([]int64, c.Count("shard count"))
	for i := range h.next {
		h.next[i] = int64(c.Uvarint("next seq"))
	}
	h.observed = int64(c.Uvarint("observed"))
	h.maxMinute = int64(c.Uvarint("max minute"))
	for _, f := range statsFields(&h.stats) {
		*f = int64(c.Uvarint("stats"))
	}
	if err := c.Err(); err != nil {
		return h, fmt.Errorf("snapshot header: %w", err)
	}
	return h, nil
}

// snapDict is the decoded dictionary record: the writer's ID -> string
// tables for full event names and countries.
type snapDict struct {
	names     []string
	countries []string
}

// encodeSnapDict appends the dictionary record.
func encodeSnapDict(buf []byte, names, countries []string) []byte {
	buf = append(buf, snapTagDict)
	buf = binary.AppendUvarint(buf, uint64(len(names)))
	for _, s := range names {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
	buf = binary.AppendUvarint(buf, uint64(len(countries)))
	for _, s := range countries {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
	return buf
}

// decodeSnapDict parses a dictionary record. The cursor's Count bounds the
// entry count by the remaining bytes, so a CRC-colliding file cannot
// balloon the preallocation.
func decodeSnapDict(rec []byte) (snapDict, error) {
	var d snapDict
	corrupt := func(what string) (snapDict, error) {
		return d, fmt.Errorf("%w: snapshot dictionary %s", recordio.ErrCorrupt, what)
	}
	if len(rec) < 1 || rec[0] != snapTagDict {
		return corrupt("tag")
	}
	c := recordio.NewCursor(rec[1:])
	readStrs := func(what string) []string {
		count := c.Count(what)
		out := make([]string, 0, count)
		for i := 0; i < count && c.Ok(); i++ {
			out = append(out, c.String(what))
		}
		return out
	}
	d.names = readStrs("names")
	d.countries = readStrs("countries")
	if err := c.Err(); err != nil {
		return d, fmt.Errorf("snapshot dictionary: %w", err)
	}
	return d, nil
}

// snapRemap translates a file's dictionary IDs, which are its writer's,
// into the loading process's: index by file ID, read the name table's or the
// counter's ID (symtab.internDict).
type snapRemap struct {
	names     []uint32
	countries []uint32
}

// encodeBucket appends one bucket record: tag, shard, minute, then the
// bucket's leaf rows — name ID, country ID << 1 | logged-in (the low word
// of a leafKey as it stands), count — with their strings in the dictionary
// record, written once per file.
func encodeBucket(buf []byte, shard int, minute int64, leaf map[uint64]int64) []byte {
	buf = append(buf, snapTagBucket)
	buf = binary.AppendUvarint(buf, uint64(shard))
	buf = binary.AppendUvarint(buf, uint64(minute))
	buf = binary.AppendUvarint(buf, uint64(len(leaf)))
	for k, v := range leaf {
		buf = binary.AppendUvarint(buf, k>>32)
		buf = binary.AppendUvarint(buf, uint64(uint32(k)))
		buf = binary.AppendUvarint(buf, uint64(v))
	}
	return buf
}

// snapBucket is a decoded bucket record with its leaves keyed the way the
// loading counter keys them, which is how a snapshot survives shard-count
// and ID-assignment differences.
type snapBucket struct {
	shard  int
	minute int64
	leaf   map[uint64]int64
}

// decodeBucket parses a bucket record, range-checking each row's IDs
// against the file's dictionary and mapping them through remap into the
// counter's own leaf keys. Bounds checks ride on the shared
// recordio.Cursor; dictionary-range checks stay local.
func decodeBucket(rec []byte, remap *snapRemap) (snapBucket, error) {
	var b snapBucket
	corrupt := func(what string) (snapBucket, error) {
		return b, fmt.Errorf("%w: snapshot bucket %s", recordio.ErrCorrupt, what)
	}
	if len(rec) < 1 || rec[0] != snapTagBucket {
		return corrupt("tag")
	}
	c := recordio.NewCursor(rec[1:])
	b.shard = int(c.Uvarint("coordinates"))
	b.minute = int64(c.Uvarint("coordinates"))
	badID := false
	n := c.Count("leaf count")
	b.leaf = make(map[uint64]int64, n)
	for i := 0; i < n && c.Ok() && !badID; i++ {
		name := c.Uvarint("leaf name")
		cl := c.Uvarint("leaf country and login bit")
		v := c.Uvarint("leaf value")
		if name >= uint64(len(remap.names)) || cl>>1 >= uint64(len(remap.countries)) {
			badID = true
		} else if c.Ok() {
			b.leaf[leafKey(remap.names[name], remap.countries[cl>>1], cl&1 != 0)] += int64(v)
		}
	}
	if err := c.Err(); err != nil {
		return b, fmt.Errorf("snapshot bucket: %w", err)
	}
	if b.shard < 0 || b.minute < 1 {
		return corrupt("coordinates out of range") // would index a ring out of range
	}
	if badID {
		return corrupt("dictionary id out of range")
	}
	return b, nil
}
