package realtime

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"unilog/internal/events"
	"unilog/internal/recordio"
)

// The write-ahead log makes the counters durable without slowing the hot
// path below its memory-only throughput class: each shard's drain
// goroutine appends whole batches (one CRC-framed record per batch, see
// recordio.CRCWriter) to its own segment file before applying them, so
// logging parallelizes with sharding and costs one buffered write per
// batch, not per event. fsync is amortized over Config.FsyncEvery batches.
//
// Record format v2 is dictionary-compressed: each segment carries its own
// name and country dictionaries, built incrementally — the first record
// that references a name embeds its string once, and every later
// observation in the segment refers to it by a small varint ID. Minutes
// are delta-encoded against the record's first observation. Steady state
// is therefore a few bytes per observation instead of the ~36 B the v1
// format spent re-logging the full hierarchical name every time.
// Dictionaries are strictly per-segment, so segments stay independently
// replayable and rotation/pruning needs no cross-file bookkeeping.
//
// A snapshot (snapshot.go) is written in the same records with one
// difference: lead byte 3 instead of 2, and a count after each
// observation, so one record row stands for a whole leaf. A live segment
// accepts only 2 and a snapshot only 3, so either byte out of place is
// corruption like any other.
//
// The log remains the minimum needed to re-digest its observations on
// replay: names, minutes, countries, login bits. Prefixes, rollup names,
// and shard routing are all derived from the name, so they are
// recomputed at recovery time against the recovering counter's own
// configuration — a log written by a 4-shard counter replays correctly
// into an 8-shard one.
//
// Segments are named wal-<shard>-<seq>.log. A snapshot rotates every
// shard to a fresh segment and then deletes the segments it covers, so
// the set of files on disk is always: the newest snapshot plus the
// segments appended since it was cut (plus, transiently, garbage an
// interrupted snapshot failed to delete, which recovery ignores).

// walRecordVersion is the WAL record format version. Any other version
// byte — the retired v1 (full name logged per observation) and the
// snapshot's counted records included — is rejected as corrupt.
// countedRecordVersion leads a counted record, which only a snapshot holds.
const (
	walRecordVersion     = 2
	countedRecordVersion = 3
)

// walName formats a segment file name.
func walName(shard int, seq int64) string {
	return fmt.Sprintf("wal-%03d-%010d.log", shard, seq)
}

// parseWALName inverts walName.
func parseWALName(name string) (shard int, seq int64, ok bool) {
	rest, ok := strings.CutPrefix(name, "wal-")
	if !ok {
		return 0, 0, false
	}
	rest, ok = strings.CutSuffix(rest, ".log")
	if !ok {
		return 0, 0, false
	}
	shardStr, seqStr, ok := strings.Cut(rest, "-")
	if !ok {
		return 0, 0, false
	}
	s, err1 := strconv.Atoi(shardStr)
	q, err2 := strconv.ParseInt(seqStr, 10, 64)
	if err1 != nil || err2 != nil || s < 0 || q < 0 {
		return 0, 0, false
	}
	return s, q, true
}

// walWriter appends CRC-framed batch records to one shard's current
// segment. It is owned by the shard's drain goroutine once the counter is
// running; only open/rotate/close bookkeeping happens elsewhere, and only
// while the drains are parked (startup, shutdown, or a snap message).
type walWriter struct {
	dir   string
	shard int
	seq   int64 // current segment sequence number

	f  *os.File
	bw *bufio.Writer
	cw *recordio.CRCWriter

	sinceSync int    // batches appended since the last fsync
	scratch   []byte // batch encoding buffer, reused

	// Per-segment dictionaries: name-table or country ID -> dense
	// segment-local ID, assigned in first-reference order (the decoder
	// mirrors the assignment, so only the strings travel). Reset on
	// rotate — each segment's dictionary stands alone.
	nameLocal    idIndex
	countryLocal idIndex
}

// idIndex numbers process-wide IDs densely, in the order they are first
// added: a segment's name and country dictionaries, a shard's hour rows.
// slot is indexed by the process ID and holds the local ID + 1, 0 for an ID
// not numbered, so a lookup is one array index. It grows to the highest ID
// added: for names, the highest name-table ID, however few it numbers.
type idIndex struct {
	slot []uint32
	n    uint32 // local IDs assigned
}

// add numbers id with the next local ID if it has none yet, and reports
// whether it did.
func (d *idIndex) add(id uint32) bool {
	if int(id) >= len(d.slot) {
		d.slot = append(d.slot, make([]uint32, int(id)+1-len(d.slot))...)
	}
	if d.slot[id] != 0 {
		return false
	}
	d.n++
	d.slot[id] = d.n
	return true
}

// local returns the local ID of an id add has numbered.
func (d *idIndex) local(id uint32) uint32 { return d.slot[id] - 1 }

// forget undoes the assignments of ids, the last len(ids) made.
func (d *idIndex) forget(ids []uint32) {
	for _, id := range ids {
		d.slot[id] = 0
	}
	d.n -= uint32(len(ids))
}

// openWAL creates (or truncates) the segment walName(shard, seq) and
// returns a writer positioned at its start. Recovery always starts a
// fresh segment rather than appending after a possibly-torn tail.
func openWAL(dir string, shard int, seq int64) (*walWriter, error) {
	f, err := os.Create(filepath.Join(dir, walName(shard, seq)))
	if err != nil {
		return nil, err
	}
	w := &walWriter{dir: dir, shard: shard, seq: seq, f: f}
	w.bw = bufio.NewWriterSize(f, 1<<16)
	w.cw = recordio.NewCRCWriter(w.bw)
	return w, nil
}

// errFsync marks an append whose record reached the segment but whose
// fsync failed: the batch will replay after a process kill, only an OS
// crash can lose it. Callers distinguish it from a write failure, which
// means the batch never made the log at all.
var errFsync = errors.New("realtime: wal fsync failed")

// append logs one batch: encode, frame, flush to the OS, and fsync every
// fsyncEvery batches. It returns the framed size and whether this append
// fsynced. tab resolves the country strings a first-seen dictionary entry
// needs. On a write or flush error the dictionary additions are rolled
// back, so a batch that never reached the log cannot leave later records
// referencing entries the decoder will never see; a failed fsync keeps
// them (the record is in the file) and reports errFsync, with the sync
// retried on the very next append rather than a full fsyncEvery later.
func (w *walWriter) append(batch []obs, fsyncEvery int, tab *symtab) (int64, bool, error) {
	var addedNames, addedCountries []uint32
	w.scratch, addedNames, addedCountries = w.encodeBatch(w.scratch[:0], batch, nil, tab)
	rollback := func() {
		w.nameLocal.forget(addedNames)
		w.countryLocal.forget(addedCountries)
	}
	before := w.cw.Bytes()
	if err := w.cw.Append(w.scratch); err != nil {
		rollback()
		return 0, false, err
	}
	// Flush the bufio layer every batch: once this returns, a process
	// kill cannot lose the batch, only an OS crash can (until the next
	// fsync).
	if err := w.bw.Flush(); err != nil {
		rollback()
		return 0, false, err
	}
	w.sinceSync++
	if w.sinceSync < fsyncEvery {
		return w.cw.Bytes() - before, false, nil
	}
	t0 := time.Now()
	err := w.f.Sync()
	tmWALFsyncNs.ObserveSince(t0)
	if err != nil {
		// sinceSync stays at the threshold: the next append retries.
		return w.cw.Bytes() - before, false, fmt.Errorf("%w: %v", errFsync, err)
	}
	w.sinceSync = 0
	return w.cw.Bytes() - before, true, nil
}

// rotate durably finishes the current segment and opens the next one,
// returning the new segment's sequence number. Everything appended so far
// lives in segments < the returned seq; the fresh segment starts with an
// empty dictionary.
func (w *walWriter) rotate() (int64, error) {
	if err := w.close(); err != nil {
		return 0, err
	}
	nw, err := openWAL(w.dir, w.shard, w.seq+1)
	if err != nil {
		return 0, err
	}
	*w = *nw
	return w.seq, nil
}

// close flushes, fsyncs, and closes the current segment file.
func (w *walWriter) close() error {
	if w.f == nil {
		return nil
	}
	err := w.bw.Flush()
	if serr := w.f.Sync(); err == nil {
		err = serr
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}

// walAppend is the drain-goroutine side: it logs the batch and folds the
// outcome into the counter's stats. A failed write degrades that batch to
// memory-only rather than stalling ingestion; WALErrors records the loss.
// A failed fsync still counts the batch and its bytes (the record is in
// the log and will replay after a kill) alongside a WALError for the
// weakened durability.
func (c *Counter) walAppend(s *shard, batch []obs) {
	t0 := time.Now()
	n, synced, err := s.wal.append(batch, c.cfg.FsyncEvery, c.tab)
	tmWALAppendNs.ObserveSince(t0)
	if err != nil && !errors.Is(err, errFsync) {
		c.walErrors.Add(1)
		return
	}
	c.walBatches.Add(1)
	c.walBytes.Add(n)
	tmWALBytes.Add(n)
	tmWALRecordEvents.Observe(int64(len(batch)))
	if err != nil {
		c.walErrors.Add(1)
		return
	}
	if synced {
		c.fsyncs.Add(1)
	}
}

// encodeBatch appends the v2 wire form of a batch to buf:
//
//	version byte (2)
//	uvarint count of first-seen names, then each name (len-prefixed);
//	  segment-local name IDs are implicit, assigned in listed order
//	uvarint count of first-seen countries, then each code (len-prefixed)
//	uvarint observation count
//	uvarint base minute (the first observation's)
//	per observation:
//	  uvarint segment-local name ID
//	  signed varint minute delta from the base
//	  uvarint (segment-local country ID << 1) | logged-in bit
//
// With counts non-nil (a snapshot's leaves, counts[i] for batch[i]) the
// version byte is 3 and each observation ends with a uvarint count.
//
// It also returns the global IDs it added to the segment dictionaries so
// a failed append can roll them back.
func (w *walWriter) encodeBatch(buf []byte, batch []obs, counts []int64, tab *symtab) (out []byte, addedNames, addedCountries []uint32) {
	var newNames, newCountries []string
	for i := range batch {
		o := &batch[i]
		if w.nameLocal.add(o.name.ID) {
			addedNames = append(addedNames, o.name.ID)
			newNames = append(newNames, o.name.Full)
		}
		if w.countryLocal.add(o.country) {
			addedCountries = append(addedCountries, o.country)
			newCountries = append(newCountries, tab.countryName(o.country))
		}
	}
	if counts == nil {
		buf = append(buf, walRecordVersion)
	} else {
		buf = append(buf, countedRecordVersion)
	}
	buf = binary.AppendUvarint(buf, uint64(len(newNames)))
	for _, s := range newNames {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
	buf = binary.AppendUvarint(buf, uint64(len(newCountries)))
	for _, s := range newCountries {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
	buf = binary.AppendUvarint(buf, uint64(len(batch)))
	base := int64(0)
	if len(batch) > 0 {
		base = batch[0].minute
	}
	buf = binary.AppendUvarint(buf, uint64(base))
	for i := range batch {
		o := &batch[i]
		buf = binary.AppendUvarint(buf, uint64(w.nameLocal.local(o.name.ID)))
		buf = binary.AppendVarint(buf, o.minute-base)
		cl := uint64(w.countryLocal.local(o.country)) << 1
		if o.loggedIn {
			cl |= 1
		}
		buf = binary.AppendUvarint(buf, cl)
		if counts != nil {
			buf = binary.AppendUvarint(buf, uint64(counts[i]))
		}
	}
	return buf, addedNames, addedCountries
}

// walDecoder accumulates one file's dictionaries while replaying its
// records in order: each name resolved once, as it is read, through the
// process's name table (nil for a name the table refuses), each country as
// its code. Create one per segment, with counted set for a snapshot's
// records.
type walDecoder struct {
	names     []*events.NameEntry
	countries []string
	counted   bool
}

// decodeBatch walks one record, invoking fn per observation with its count
// (1 in a live segment) and extending the dictionaries with the record's
// first-seen entries. Any structural damage — a version byte other than
// the decoder's, or a count of 0 or past math.MaxInt64, included —
// surfaces as recordio.ErrCorrupt so replay treats it like a failed
// checksum. A snapshot holds only leaves its writer counted, so in a
// counted record a name that is not an event name, or a minute before the
// first, is damage too; a live segment hands them to fn, which counts them
// Invalid. Bounds checking rides on the shared recordio.Cursor; the wrap
// keeps errors in the familiar "wal record <field>" shape.
func (d *walDecoder) decodeBatch(rec []byte, fn func(name *events.NameEntry, minute int64, country string, loggedIn bool, n int64) error) error {
	if len(rec) == 0 {
		return fmt.Errorf("%w: wal record empty", recordio.ErrCorrupt)
	}
	want := byte(walRecordVersion)
	if d.counted {
		want = countedRecordVersion
	}
	if rec[0] != want {
		return fmt.Errorf("%w: wal record version %d", recordio.ErrCorrupt, rec[0])
	}
	c := recordio.NewCursor(rec[1:])
	corrupt := func(what string) error {
		return fmt.Errorf("%w: wal record %s", recordio.ErrCorrupt, what)
	}
	for i, count := 0, c.Count("dictionary name count"); i < count && c.Ok(); i++ {
		b := c.Bytes("dictionary name")
		e, err := events.LookupBytes(b)
		if err != nil && d.counted && c.Ok() {
			return corrupt(fmt.Sprintf("name %q: %v", b, err))
		}
		d.names = append(d.names, e)
	}
	for i, count := 0, c.Count("dictionary country count"); i < count && c.Ok(); i++ {
		d.countries = append(d.countries, c.String("dictionary country"))
	}
	count := c.Uvarint("count")
	base := c.Uvarint("base minute")
	if !c.Ok() {
		return fmt.Errorf("wal record: %w", c.Err())
	}
	for i := uint64(0); i < count; i++ {
		nameID := c.Uvarint("name id")
		delta := c.Varint("minute delta")
		cl := c.Uvarint("country id")
		n := uint64(1)
		if d.counted {
			n = c.Uvarint("leaf count")
		}
		if !c.Ok() {
			return fmt.Errorf("wal record: %w", c.Err())
		}
		if nameID >= uint64(len(d.names)) {
			return corrupt("name id")
		}
		if cl>>1 >= uint64(len(d.countries)) {
			return corrupt("country id")
		}
		if n == 0 || n > math.MaxInt64 {
			return corrupt("leaf count")
		}
		minute := int64(base) + delta
		if d.counted && minute < 1 {
			return corrupt(fmt.Sprintf("leaf minute %d", minute))
		}
		if err := fn(d.names[nameID], minute, d.countries[cl>>1], cl&1 == 1, int64(n)); err != nil {
			return err
		}
	}
	return nil
}
