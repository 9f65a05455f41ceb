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
// segment and (2) copy its ring's leaves, in that order, between batches.
// The captured state is then precisely the effect of every record in
// segments below the rotated sequence number, and recovery replays only
// segments at or above it. Shards are captured independently (shard A may
// apply more batches while shard B is copied) — that is fine, because
// shards never share keys and each shard's WAL tail replays on its own.
//
// Snapshot files are named snap-<seq>.snap; higher seq wins. A file is a
// CRC record stream: one header record (version, per-shard next WAL
// sequence numbers, the observed-event total, the retention high-water
// minute, and the full Stats block so activity counters survive
// restarts), then the live leaves as counted WAL records (wal.go): each
// leaf one observation — name, minute, country, logged-in bit — with its
// count, up to Config.MaxBatch per record, under one dictionary that runs
// through the file as a segment's does. A load reads them back with the
// WAL's decoder and applies them with the drain's applyOne, so a leaf
// lands on its name's shard under the loading configuration. A snapshot
// is the leaf table and nothing derived from it: prefix sums and rollup
// rows are sums over leaves, rebuilt when they are read. Writes go to a
// temp file that is fsynced and atomically renamed, so a crashed
// snapshotter leaves either the old snapshot or the new one, never a
// half-written current file.

// errClosed reports a durability operation on a stopped counter.
var errClosed = errors.New("realtime: counter is closed")

// snapRecordVersion is the snapshot format version. A header carrying any
// other version — the retired v1 (string-keyed buckets, no dictionary, no
// stats), v2 (prefix and rollup tables per bucket) and v3 (a dictionary
// record, then leaf rows per bucket) included — is rejected as corrupt.
const snapRecordVersion = 4

// snapTagHeader leads a snapshot's header record.
const snapTagHeader = 'H'

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

// shardState is one shard's contribution to a snapshot: its live leaves
// as observations with their counts, its applied-event count, and the WAL
// sequence number its state is exact up to (exclusive).
type shardState struct {
	leaves  []obs
	counts  []int64
	applied int64
	dropped int64
	evicted int64
	nextSeq int64
	err     error
}

// captureShard copies every leaf of every live bucket of a shard — one
// behind the retention horizon is not live even while its slot is
// unrecycled, and a load would drop it anyway. With rotate it runs on the
// shard's drain goroutine and first rotates the WAL so the boundary is
// durable; without, the drains have exited (Close) and the caller sets the
// boundary. The shard lock is held only against concurrent readers, and
// only the leaves are read: a bucket's prefix cache and stale mark are as
// the capture found them.
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
	names := events.NameEntries() // covers every ID in the ring
	// Sized first: a day's ring holds tens of thousands of leaves.
	live := 0
	for j := range s.ring {
		if b := &s.ring[j]; b.minute > horizon {
			live += len(b.leaf)
		}
	}
	st.leaves, st.counts = make([]obs, 0, live), make([]int64, 0, live)
	for j := range s.ring {
		if b := &s.ring[j]; b.minute > horizon {
			for k, n := range b.leaf {
				name, country, loggedIn := leafFields(k)
				st.leaves = append(st.leaves, obs{minute: b.minute, name: names[name], country: country, loggedIn: loggedIn})
				st.counts = append(st.counts, n)
			}
		}
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
	if c.closed.Load() {
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
	// One writer for the file, so one dictionary runs through its records.
	var w walWriter
	var rec []byte
	var leaves int64
	for _, st := range states {
		leaves += int64(len(st.leaves))
		for i := 0; i < len(st.leaves) && werr == nil; i += c.cfg.MaxBatch {
			j := min(i+c.cfg.MaxBatch, len(st.leaves))
			rec, _, _ = w.encodeBatch(rec[:0], st.leaves[i:j], st.counts[i:j], c.tab)
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
