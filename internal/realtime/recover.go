package realtime

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"unilog/internal/events"
	"unilog/internal/recordio"
	"unilog/internal/telemetry"
)

// Open starts a durable counter rooted at dir, recovering whatever a
// previous incarnation left there: it loads the newest valid snapshot,
// replays each shard's WAL tail on top, and only then starts the drain
// goroutines and the periodic snapshotter.
//
// Recovery is deliberately tolerant — a crash can leave a torn final WAL
// record, a half-written snapshot temp file, or segments a finished
// snapshot did not get to delete — and must always come up with a
// consistent counter rather than an error or a double count:
//
//   - a snapshot that fails to parse end-to-end is ignored in favor of the
//     next older one (or an empty state);
//   - WAL segments below the snapshot's recorded boundary are skipped,
//     whether or not the snapshotter managed to delete them;
//   - a torn or corrupt record ends its segment: replay keeps the
//     segment's intact prefix, truncates the file down to it (so the
//     damage cannot shadow later, healthy segments on the next
//     recovery), and moves on to the next segment;
//   - appending always begins in a fresh segment, never after a tear.
//
// Replay and snapshot load read the same records, with the same decoder,
// and apply them with the drain's own applyOne: every logged name is
// re-digested through the process's name table and the counter's own
// country table, built fresh here, so routing and IDs always follow the
// current process and configuration — a log or snapshot written under a
// different shard count (or a different ID assignment) recovers exactly,
// each leaf on its name's shard.
//
// Counts recovered this way are exact for everything the WAL fsync
// cadence made durable: after a clean Close, or a Crash with the tail
// flushed, a reopened counter answers every query identically to one
// that never went down — including the activity counters in Stats, which
// the snapshot carries across the restart.
func Open(dir string, cfg Config) (*Counter, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	c := allocCounter(cfg.withDefaults())
	c.dir = dir

	span := telemetry.StartSpan("realtime.recovery")
	defer span.End()

	snaps, segs, maxSnapSeq, err := scanDir(dir)
	if err != nil {
		return nil, err
	}
	c.snapSeq = maxSnapSeq

	var header snapHeader
	snapSpan := span.Child("snapshot")
	// Newest first; one refused is superseded at the next snapshot.
	for _, s := range snaps {
		if header, err = c.loadSnapshot(filepath.Join(dir, s.name)); err == nil {
			break
		}
	}
	snapSpan.End()

	// Replay each logged shard's surviving segments, oldest first,
	// re-digesting every record so routing follows the current
	// configuration even if the log was written under a different one.
	walSpan := span.Child("wal")
	for shard, files := range segs {
		sort.Slice(files, func(i, j int) bool { return files[i].seq < files[j].seq })
		from := int64(0)
		if shard < len(header.next) {
			from = header.next[shard]
		}
		for _, f := range files {
			if f.seq < from {
				continue // covered by the snapshot
			}
			if err := c.replaySegment(filepath.Join(dir, f.name)); err != nil {
				// The segment could not even be repaired (e.g. the
				// truncate failed): stop this shard's chain rather than
				// risk replaying past an unhealed tear twice.
				break
			}
		}
	}
	walSpan.End()

	// Append into fresh segments strictly after anything on disk or
	// recorded in the snapshot header.
	for i, s := range c.shards {
		seq := int64(0)
		if i < len(header.next) {
			seq = header.next[i]
		}
		for _, f := range segs[i] {
			if f.seq+1 > seq {
				seq = f.seq + 1
			}
		}
		w, err := openWAL(dir, i, seq)
		if err != nil {
			// Nothing has started and the segments opened so far are
			// empty: releasing them is all there is to undo, and this
			// error, not theirs, is the one the caller needs.
			for _, opened := range c.shards[:i] {
				_ = opened.wal.close()
			}
			return nil, fmt.Errorf("realtime: open wal shard %d: %w", i, err)
		}
		s.wal = w
	}

	c.start()
	return c, nil
}

// restoreStats seeds the activity counters from a recovered snapshot
// header, so dashboards watching Stats see monotonic values across a
// restart. Observed is restored separately via observedBase, which the
// snapshot protocol keeps exact.
func (c *Counter) restoreStats(s Stats) {
	c.droppedBase = s.DroppedOld
	c.evictedBase = s.Evicted
	c.tapEntries.Store(s.TapEntries)
	c.decodeErrors.Store(s.DecodeErrors)
	c.invalid.Store(s.Invalid)
	c.droppedOld.Store(s.DroppedOld)
	c.evicted.Store(s.Evicted)
	c.queueFull.Store(s.QueueFull)
	c.walBatches.Store(s.WALBatches)
	c.walBytes.Store(s.WALBytes)
	c.walErrors.Store(s.WALErrors)
	c.fsyncs.Store(s.Fsyncs)
	c.snapshots.Store(s.Snapshots)
	c.snapErrors.Store(s.SnapshotErrors)
}

// dirEntry is one parsed snapshot or segment file name.
type dirEntry struct {
	name string
	seq  int64
}

// scanDir classifies dir's contents: snapshots newest-first, WAL segments
// grouped by shard index, and the highest snapshot sequence seen (valid
// or not, so new snapshots always supersede leftovers).
func scanDir(dir string) (snaps []dirEntry, segs map[int][]dirEntry, maxSnapSeq int64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, 0, err
	}
	segs = map[int][]dirEntry{}
	for _, e := range entries {
		name := e.Name()
		if seq, ok := parseSnapName(name); ok {
			snaps = append(snaps, dirEntry{name, seq})
			if seq > maxSnapSeq {
				maxSnapSeq = seq
			}
		} else if shard, seq, ok := parseWALName(name); ok {
			segs[shard] = append(segs[shard], dirEntry{name, seq})
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].seq > snaps[j].seq })
	return snaps, segs, maxSnapSeq, nil
}

// loadSnapshot reads a whole snapshot file and, only once every frame and
// leaf of it has checked out, applies it — a snapshot is all-or-nothing: a
// file refused leaves nothing in the counter. Both passes read the leaf
// records with the WAL's decoder; the second applies each leaf as replay
// does (replayOne), on its name's shard under this configuration, after the
// header's high-water minute is restored, so a leaf behind the horizon
// drops and one in a clean minute marks it and its hour stale. The observed
// total and every activity counter then come from the header, which
// already accounts for the leaves, so what the apply tallied is reset.
func (c *Counter) loadSnapshot(path string) (snapHeader, error) {
	fail := func(err error) (snapHeader, error) {
		return snapHeader{}, fmt.Errorf("realtime: snapshot %s: %w", filepath.Base(path), err)
	}
	f, err := os.Open(path)
	if err != nil {
		return snapHeader{}, err
	}
	defer f.Close()
	r := recordio.NewCRCReader(f)
	rec, err := r.Next()
	if err == io.EOF {
		return fail(fmt.Errorf("%w: empty snapshot", recordio.ErrCorrupt))
	}
	if err != nil {
		return fail(err)
	}
	header, err := decodeSnapHeader(rec)
	if err != nil {
		return fail(err)
	}
	var recs [][]byte
	dec := &walDecoder{counted: true}
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err == nil {
			err = dec.decodeBatch(rec, func(*events.NameEntry, int64, string, bool, int64) error { return nil })
		}
		if err != nil {
			return fail(err)
		}
		recs = append(recs, slices.Clone(rec))
	}

	c.maxMinute.Store(header.maxMinute)
	dec = &walDecoder{counted: true}
	for _, rec := range recs {
		_ = dec.decodeBatch(rec, c.replayOne) // checked above
	}
	for _, s := range c.shards {
		s.applied, s.dropped, s.evicted = 0, 0, 0
	}
	c.observedBase = header.observed
	c.observed.Store(header.observed)
	c.restoreStats(header.stats)
	return header, nil
}

// replayOne applies n of one observation read back from a WAL record or a
// snapshot: digested afresh, so it routes under this configuration and a
// name or minute observe would refuse counts Invalid, then applyOne.
func (c *Counter) replayOne(name *events.NameEntry, minute int64, country string, loggedIn bool, n int64) error {
	if o, ok := c.digest(name, minute, country, loggedIn); ok && c.applyOne(c.shards[c.shardOf(o.name)], &o, n) {
		c.observed.Add(n)
	}
	return nil
}

// replaySegment re-applies every intact batch record in one WAL segment,
// feeding a per-segment decoder (records grow its dictionaries in
// order). On a torn or corrupt record it applies
// the intact prefix, truncates the file down to that prefix (counting the
// damage in WALErrors), and reports success so the shard's chain
// continues; it errors only when the segment cannot be read or repaired.
func (c *Counter) replaySegment(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	r := recordio.NewCRCReader(f)
	dec := &walDecoder{}
	var intact int64 // bytes of whole, checksummed records applied
	var lenBuf [binary.MaxVarintLen64]byte
	for {
		rec, err := r.Next()
		if err == io.EOF {
			f.Close()
			return nil
		}
		if err == nil {
			err = dec.decodeBatch(rec, c.replayOne)
		}
		if err != nil {
			// A torn or corrupt frame, or a structurally damaged batch
			// behind a valid checksum: the segment ends here.
			f.Close()
			c.walErrors.Add(1)
			return os.Truncate(path, intact)
		}
		intact += int64(binary.PutUvarint(lenBuf[:], uint64(len(rec)))) + 4 + int64(len(rec))
	}
}
