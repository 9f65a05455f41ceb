// Package realtime is the streaming counterpart of the batch pipeline: a
// Rainbird-style sharded, windowed counting service that tails the Scribe
// ingestion path and answers BirdBrain-style counting queries seconds after
// events occur, instead of the day-later latency of the log mover plus
// daily jobs (§2, §6 "real-time processing").
//
// The design exploits the property §3 built into the event namespace: the
// six-level client:page:section:component:element:action hierarchy means
// every count of interest is a sum along a path prefix, and §3.2 defines
// the five rollup tables as aggregations of the full name. So an event is
// counted once, at its leaf — (full name, country, logged-in) in its
// minute — and everything else is derived from leaves when it is read:
// the six prefix sums ("web", "web:home", ..., the full name) into a
// per-bucket cache, after which point lookups, drill-downs and prefix top-K
// are map reads, no scan required; the rollup rows on the fly.
//
// Architecture:
//
//   - the process-wide events name table numbers every distinct event name
//     once, with its digest — prefix IDs, rolled names, hash — on an
//     immutable events.NameEntry, so the per-event hot path is one
//     read-locked lookup (none for an Observation, which carries the
//     entry), the shard is the entry's hash modulo the shard
//     count, and the counters below increment one integer-keyed cell.
//     A country is its index in geo's fixed table from the tap to the WAL,
//     so no counter numbers countries; what a counter keeps of its own is
//     a bit per path it has counted (symtab.go);
//   - a Tap on scribe.Aggregator.Append fans accepted client_events into N
//     counter shards (hash of the event name) over bounded channels;
//     producers block when a shard queue is full (backpressure), and each
//     shard drains whole batches at a time. The tap reads each message's
//     events.Header in place — no ClientEvent, no strings, no details map —
//     and looks the name up by its bytes, so an event whose name has been
//     seen before allocates nothing between the Scribe buffer and the shard
//     queue (ingest.go);
//   - a shard owns one ring of one-minute buckets (configurable
//     retention) behind one mutex: its single drain goroutine takes the
//     lock once per batch, a reader once per shard, and write parallelism
//     comes from the shard count alone;
//   - a bucket is its leaf table. Under the shard lock a write is one map
//     increment and a stale mark (applyOne); the prefix readers (PathSum,
//     Series, TopK) rebuild a stale bucket's prefix sums from its leaves
//     the first time they meet it (bucket.derive) and read the cache from
//     then until the bucket is written again; the rollup
//     readers (RollupSnapshot, RollupTotal) sum leaves and expand each
//     distinct one into its five analytics.RollupKey rows, which makes the
//     streaming path directly comparable with the warehouse batch job —
//     Reconcile diffs the day a counter holds, live or recovered, against
//     analytics.Rollups and asserts exact agreement;
//   - beside its minute ring a shard keeps hour sums path-major: one row
//     per path, found by a slice index by path ID, one entry per cell of a
//     short ring of hour cells. The first write to a clean minute marks its
//     hour's cell stale, so PathSum and TopK (one kernel, SumPaths) take
//     every hour a window covers whole from the rows, a stale cell's column
//     rebuilt first, and read minute buckets only at the window's edges: a
//     day-window read sums one run of one row per path per shard in a local.
//     Series and the rollup readers keep reading minutes.
//
// What the write path no longer does the read side pays, bounded: a prefix
// read that finds a bucket stale does about six map adds per leaf of that
// bucket, once, however many events the leaves count, and one that finds an
// hour cell stale zeroes its column and adds in that hour's ≤ 60 minute
// caches. A generated day of 80k events holds ~11 leaves in each of its
// ~4.6k buckets: the first dashboard refresh after ingesting it derives them
// all and sums every shard's 24 cells, and later refreshes over the clean
// day add up a 24-entry run of one row per path and shard, where a TopK
// probed 24 hour maps per child (BenchmarkDashboardRefresh). A late write
// costs the next read one minute's derivation and one hour's sum. The case
// that pays repeatedly is a poller of a minute still being written, which
// derives that one bucket per poll.
// realtime.derive.buckets, realtime.derive.hours and realtime.derive.ns
// (telemetry.go) show all of it, and realtime.hours.rows the rows, which
// are never removed. A snapshot pays none of it: the file holds the leaves
// as the buckets do (snapshot.go), hour rows are never written to disk, and
// a loaded bucket and its hour are derived like any other stale ones.
//
// Totals are distributive: a key's count is the sum of its per-shard,
// per-bucket cells, so ingestion never coordinates across shards and
// queries merge at read time.
package realtime

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"unilog/internal/events"
	"unilog/internal/geo"
)

// Config sizes the counter. Zero values take the defaults below.
type Config struct {
	// Shards is the number of counter shards, each with its own drain
	// goroutine and queue. Default 4.
	Shards int
	// Retention is how much history the ring of one-minute buckets keeps.
	// Observations older than the newest minute seen by the whole counter
	// minus Retention are dropped and counted in Stats.DroppedOld, so a
	// window older than the horizon reads uniformly empty rather than
	// partially evicted. Default 26h (a full day plus slack, so a day
	// replay always fits).
	Retention time.Duration
	// QueueDepth is the per-shard channel capacity in batches. Default 128.
	QueueDepth int
	// MaxBatch caps observations per enqueued batch. Default 512.
	MaxBatch int

	// SnapshotEvery and FsyncEvery matter only to a durable counter — one
	// made by Open, which names the directory; New ignores them.
	//
	// SnapshotEvery is the interval between automatic snapshots. Each
	// snapshot bounds both recovery time and disk use (the WAL tail it
	// retires is deleted). Default 30s.
	SnapshotEvery time.Duration
	// FsyncEvery is the number of appended WAL batches between fsyncs on
	// each shard's log, the durability/throughput trade-off knob: 1
	// fsyncs every batch (strongest, slowest), larger values amortize
	// the sync over more batches and risk losing at most that many
	// batches on an OS (not process) crash — every batch reaches the
	// page cache before it is applied, so a killed process loses
	// nothing that was drained. A batch is whatever one producer handed
	// over at once: up to MaxBatch events from a Batcher or TapBatch, one
	// event from Counter.Ingest, and on a cluster node one delivery's
	// events for the partition — so there it counts deliveries. Default 64.
	FsyncEvery int
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.Retention <= 0 {
		c.Retention = 26 * time.Hour
	}
	if c.Retention < 2*time.Minute {
		c.Retention = 2 * time.Minute
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 128
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 512
	}
	if c.SnapshotEvery <= 0 {
		c.SnapshotEvery = 30 * time.Second
	}
	if c.FsyncEvery <= 0 {
		c.FsyncEvery = 64
	}
	return c
}

// Stats counts counter activity. All fields are monotonic.
type Stats struct {
	// Observed is the number of events applied to the counters.
	Observed int64
	// TapEntries is the number of Scribe entries seen by TapBatch.
	TapEntries int64
	// DecodeErrors counts tap entries that failed Thrift decoding or
	// carried a name events.ParseName rejects.
	DecodeErrors int64
	// Invalid counts decoded events and observations (Add, Ingest, WAL
	// replay) whose name failed validation, AddObservation calls with a nil
	// Name, and events by any door whose timestamp lies before the first
	// Unix minute.
	Invalid int64
	// DroppedOld counts observations older than the retention window.
	DroppedOld int64
	// Evicted counts minute buckets recycled by the ring.
	Evicted int64
	// QueueFull counts enqueues that found a shard queue full and had to
	// block — the backpressure signal.
	QueueFull int64
	// WALBatches and WALBytes count batches and framed bytes appended to
	// the write-ahead logs (zero on memory-only counters).
	WALBatches int64
	WALBytes   int64
	// WALErrors counts WAL appends or fsyncs that failed; the counter
	// keeps serving from memory but the failed tail is not durable.
	WALErrors int64
	// Fsyncs counts explicit WAL fsyncs (see Config.FsyncEvery).
	Fsyncs int64
	// Snapshots counts snapshots written; SnapshotErrors counts attempts
	// that failed and left the previous snapshot and WAL tail in place.
	Snapshots      int64
	SnapshotErrors int64
}

// leafKey packs what the counters keep of an event besides its minute —
// name ID, geo country index, logged-in bit — into the one word a bucket's
// leaf map is keyed by.
func leafKey(name uint32, country uint8, loggedIn bool) uint64 {
	k := uint64(name)<<32 | uint64(country)<<1
	if loggedIn {
		k |= 1
	}
	return k
}

// leafFields inverts leafKey.
func leafFields(k uint64) (name uint32, country uint8, loggedIn bool) {
	return uint32(k >> 32), uint8(k >> 1), k&1 != 0
}

// bucket is one minute of counters within one shard. The leaf table is the
// bucket: rollup level 0 keeps the full name, so (name, country, loggedIn)
// is the finest cell §3.2 defines and every other count is a sum over
// leaves. prefix caches the six hierarchy-prefix sums per leaf for the
// prefix readers; any write sets stale and the next prefix read rebuilds
// the map from the leaves (derive). Staleness belongs to the bucket, not
// to the clock: a replayed or late event dirties an old minute like any
// other.
type bucket struct {
	minute int64            // Unix minute this slot currently holds; 0 = empty
	leaf   map[uint64]int64 // leafKey -> count; nil = slot never used
	prefix map[uint32]int64 // path ID -> count, valid while !stale
	stale  bool
}

// hourCell says which hour one column of a shard's hour rows holds, and
// whether a minute of it turned stale since it was summed (touchHour): a
// clean cell's column is exact, a stale one is rebuilt by the next read.
type hourCell struct {
	minute int64 // the hour's first minute; 0 = never summed
	stale  bool
}

// sumPrefixes adds every leaf's count to its six hierarchy prefixes in dst.
// names is an events.NameEntries taken after the leaves were last written.
func sumPrefixes(dst map[uint32]int64, leaf map[uint64]int64, names []*events.NameEntry) {
	for k, n := range leaf {
		name, _, _ := leafFields(k)
		for _, id := range names[name].Prefix {
			dst[id] += n
		}
	}
}

// derive rebuilds the prefix cache from the leaves, reusing the map. It is
// where anything else computed per bucket from its leaves belongs.
func (b *bucket) derive(names []*events.NameEntry) {
	if b.prefix == nil {
		b.prefix = make(map[uint32]int64, 2*events.NumComponents)
	} else {
		clear(b.prefix)
	}
	sumPrefixes(b.prefix, b.leaf, names)
	b.stale = false
}

type shardMsg struct {
	batch []Observation
	// sync, when non-nil, is closed once every message enqueued before it
	// has been applied.
	sync chan struct{}
	// snap, when non-nil, asks the drain goroutine to rotate its WAL to a
	// fresh segment and reply with its ring's leaves — the per-shard half
	// of a consistent snapshot (see snapshot.go).
	snap chan shardState
}

// shard owns one queue, one drain goroutine, one ring of minute buckets
// and its hour rows, which mu guards against concurrent readers.
type shard struct {
	ch   chan shardMsg
	mu   sync.Mutex
	ring []bucket
	// sent counts batches enqueued on ch and done the batches the drain has
	// applied; done < sent is a batch in flight, which Sync must wait for.
	sent, done atomic.Uint64
	// hours holds Retention/60 + 2 hour cells, indexed by Unix hour: enough
	// that two hours sharing a cell are never both within the retention
	// horizon, so the cell an hour claims on a write is not taken from an
	// hour a read can still ask for whole. (A taken cell would be summed
	// again on its next read, never read wrong: a cell is trusted only
	// while it holds the hour asked for.)
	hours []hourCell
	// hourRow numbers the paths sumHour has given a row of hourSum, a slice
	// indexed by path ID like symtab's bitset: row r is entries
	// [r*len(hours), (r+1)*len(hours)), the path's count in each hour cell.
	hourRow idIndex
	hourSum []int64
	wal     *walWriter // nil on memory-only counters; drain-goroutine-owned after start
	// applied counts events this shard has applied since start; dropped
	// and evicted mirror the replay-derivable slices of DroppedOld and
	// Evicted. All three are written only by the owning drain goroutine
	// (or single-threaded recovery), and snapshots read them from that
	// same goroutine, which is what lets a mid-run snapshot record
	// totals exactly consistent with the captured ring — WAL-tail
	// replay then re-derives precisely the post-rotation remainder.
	applied int64
	dropped int64
	evicted int64
	// leafHint, while a snapshot loads, is the file's leaf count for each
	// ring slot, so applyOne makes a bucket's map the size the load fills.
	leafHint []int32
}

// busy reports a batch in flight (sent read first, then done).
func (s *shard) busy() bool { return s.sent.Load() > s.done.Load() }

// Counter is the realtime counting service. Create with New, feed it via
// TapBatch (wired to scribe.Aggregator.Tap), a Batcher (decoded events
// through Add, reduced ones through AddObservation), or Ingest, and read
// it with the query methods in query.go.
type Counter struct {
	cfg     Config
	shards  []*shard
	buckets int // ring length, minutes
	tab     *symtab

	// batchPool recycles Observation slices between the drain goroutines
	// (which finish with a batch after applying it) and Batchers (which
	// need an empty buffer after handing one off), making steady-state
	// ingestion allocation-free.
	batchPool sync.Pool

	// closed is set under closeMu.Lock; Sync's idle check reads it without.
	closeMu sync.RWMutex
	closed  atomic.Bool
	wg      sync.WaitGroup

	// Durability state (zero on memory-only counters). dir, set by Open
	// and what makes a counter durable, holds the WAL segments and
	// snapshots; snapMu serializes snapshot attempts; snapSeq numbers
	// snapshot files; snapQuit stops the periodic snapshotter.
	dir      string
	snapMu   sync.Mutex
	snapSeq  int64
	snapQuit chan struct{}
	snapDone chan struct{}
	// observedBase is the observed total carried over from the recovered
	// snapshot; the live observed counter starts from it. droppedBase
	// and evictedBase carry the matching slices of DroppedOld/Evicted,
	// so snapshots can record those counters exactly at the WAL rotation
	// boundary instead of sampling the live atomics mid-drain (which
	// would double count post-rotation drops on replay). All three are
	// written only before start() and read-only afterwards.
	observedBase int64
	droppedBase  int64
	evictedBase  int64

	// maxMinute is the newest Unix minute any shard has applied — the
	// high-water mark the retention horizon hangs from.
	maxMinute atomic.Int64
	// hourRows counts the hour rows of every shard (realtime.hours.rows).
	hourRows atomic.Int64

	observed     atomic.Int64
	tapEntries   atomic.Int64
	decodeErrors atomic.Int64
	invalid      atomic.Int64
	droppedOld   atomic.Int64
	evicted      atomic.Int64
	queueFull    atomic.Int64
	walBatches   atomic.Int64
	walBytes     atomic.Int64
	walErrors    atomic.Int64
	fsyncs       atomic.Int64
	snapshots    atomic.Int64
	snapErrors   atomic.Int64
	applyDelay   atomic.Int64 // ns; see SetApplyDelay
}

// New starts a memory-only counter with cfg's shards and drain goroutines
// running. The durability fields of cfg are ignored; durable counters come
// from Open, which recovers any existing state before starting.
func New(cfg Config) *Counter {
	c := allocCounter(cfg.withDefaults())
	c.start()
	return c
}

// allocCounter allocates the shards without starting goroutines, so
// Open can load recovered state single-threaded first.
func allocCounter(cfg Config) *Counter {
	c := &Counter{
		cfg:     cfg,
		buckets: int(cfg.Retention / time.Minute),
		tab:     newSymtab(),
	}
	c.batchPool.New = func() any {
		b := make([]Observation, 0, cfg.MaxBatch)
		return &b
	}
	for i := 0; i < cfg.Shards; i++ {
		c.shards = append(c.shards, &shard{
			ch:    make(chan shardMsg, cfg.QueueDepth),
			ring:  make([]bucket, c.buckets),
			hours: make([]hourCell, c.buckets/60+2),
		})
	}
	return c
}

// start launches the drain goroutines (and, on durable counters, the
// periodic snapshotter).
func (c *Counter) start() {
	for _, s := range c.shards {
		c.wg.Add(1)
		go c.drain(s)
	}
	if c.dir != "" {
		c.snapQuit = make(chan struct{})
		c.snapDone = make(chan struct{})
		go c.snapshotLoop()
	}
}

// Close stops the drain goroutines after the queues empty, then writes a
// final snapshot on durable counters (so the next Open loads one file and
// replays nothing). The counters remain readable; further ingestion is a
// no-op.
func (c *Counter) Close() { c.shutdown(true) }

// Crash stops the counter the way a kill would: the drain goroutines exit
// and the WAL files close with whatever the fsync cadence made durable,
// but no final snapshot is written and nothing is truncated — the next
// Open must recover from the last snapshot plus the WAL tail. It exists
// for crash-recovery tests and fault-injection demos.
func (c *Counter) Crash() { c.shutdown(false) }

func (c *Counter) shutdown(final bool) {
	c.closeMu.Lock()
	if c.closed.Load() {
		c.closeMu.Unlock()
		return
	}
	c.closed.Store(true)
	for _, s := range c.shards {
		close(s.ch)
	}
	c.closeMu.Unlock()
	c.wg.Wait()
	if c.dir == "" {
		return
	}
	close(c.snapQuit)
	<-c.snapDone
	if final {
		// Queues are drained, goroutines stopped: serialize the rings
		// directly and retire the whole WAL.
		c.snapMu.Lock()
		if err := c.snapshotFinal(); err != nil {
			c.snapErrors.Add(1)
		}
		c.snapMu.Unlock()
	}
}

// SetApplyDelay makes each drain sleep d before applying every batch from
// now on (0, the default, turns it off): a fault-injection hook for a slow
// consumer. With a small Config.QueueDepth producers then block in send,
// counted in Stats.QueueFull. internal/scenario's slow_consumer fault sets it.
func (c *Counter) SetApplyDelay(d time.Duration) { c.applyDelay.Store(int64(d)) }

// Sync blocks until every observation enqueued before the call has been
// applied — the read-your-writes barrier queries and tests need. A shard
// with nothing in flight costs two atomic loads, and an open counter with
// none in flight returns before closeMu; only shards whose drain has
// batches still to apply are sent a sync message and waited on.
func (c *Counter) Sync() {
	tmSyncCalls.Inc()
	if !c.closed.Load() && !slices.ContainsFunc(c.shards, (*shard).busy) {
		return
	}
	c.closeMu.RLock()
	if c.closed.Load() {
		c.closeMu.RUnlock()
		c.wg.Wait()
		return
	}
	var dones []chan struct{}
	for _, s := range c.shards {
		if !s.busy() {
			continue
		}
		d := make(chan struct{})
		s.ch <- shardMsg{sync: d}
		dones = append(dones, d)
	}
	c.closeMu.RUnlock()
	tmSyncWaits.Add(int64(len(dones)))
	for _, d := range dones {
		<-d
	}
}

// Stats returns a snapshot of the counter's activity counters.
func (c *Counter) Stats() Stats {
	return Stats{
		Observed:       c.observed.Load(),
		TapEntries:     c.tapEntries.Load(),
		DecodeErrors:   c.decodeErrors.Load(),
		Invalid:        c.invalid.Load(),
		DroppedOld:     c.droppedOld.Load(),
		Evicted:        c.evicted.Load(),
		QueueFull:      c.queueFull.Load(),
		WALBatches:     c.walBatches.Load(),
		WALBytes:       c.walBytes.Load(),
		WALErrors:      c.walErrors.Load(),
		Fsyncs:         c.fsyncs.Load(),
		Snapshots:      c.snapshots.Load(),
		SnapshotErrors: c.snapErrors.Load(),
	}
}

// shardOf picks the shard of an event name: its hash modulo the shard
// count, in 32 bits, where the division is cheaper.
func (c *Counter) shardOf(e *events.NameEntry) int {
	return int(uint32(e.Hash) % uint32(len(c.shards)))
}

// digest vets one observation — where every door to the counters meets —
// and marks its name's paths counted. It reports false, counting
// Stats.Invalid, for events that must not be counted: a nil entry (the name
// was invalid), a timestamp before Unix minute 1 — the timestamp comes from
// outside, a negative minute would index the ring out of range and minute 0
// is the ring's empty-slot value — or a country past geo.Unknown's index,
// which no WAL record may carry.
func (c *Counter) digest(o Observation) bool {
	if o.Name == nil || o.Minute < 1 || int(o.Country) > len(geo.Countries) {
		c.invalid.Add(1)
		return false
	}
	c.tab.count(o.Name)
	return true
}

// observe reduces one decoded event to its Observation and digests it.
func (c *Counter) observe(e *events.ClientEvent) (Observation, bool) {
	name, _ := events.LookupName(e.Name)
	o := Observation{Name: name, Minute: e.Timestamp / 60_000, Country: uint8(geo.CountryIndex(e.IP)), LoggedIn: e.LoggedIn()}
	return o, c.digest(o)
}

// send enqueues one batch on a shard, blocking when the queue is full.
func (c *Counter) send(shardIdx int, batch []Observation) {
	if len(batch) == 0 {
		return
	}
	c.closeMu.RLock()
	defer c.closeMu.RUnlock()
	if c.closed.Load() {
		return
	}
	s := c.shards[shardIdx]
	if len(s.ch) == cap(s.ch) {
		c.queueFull.Add(1)
	}
	s.sent.Add(1)
	s.ch <- shardMsg{batch: batch}
}

// drain is the per-shard goroutine: it pulls batches off the queue,
// appends each to the shard's WAL (durable counters), and applies it
// under one acquisition of the shard lock. The
// write-ahead ordering — log before apply — is what makes recovery exact:
// a batch is never visible to queries unless it is also in the OS's hands.
func (c *Counter) drain(s *shard) {
	defer c.wg.Done()
	for msg := range s.ch {
		if msg.batch != nil {
			if d := time.Duration(c.applyDelay.Load()); d > 0 {
				time.Sleep(d)
			}
			if s.wal != nil {
				c.walAppend(s, msg.batch)
			}
			c.apply(s, msg.batch)
			s.done.Add(1)
			// The batch was handed off exclusively; recycle full-size
			// buffers so the next Batcher send is allocation-free.
			if cap(msg.batch) >= c.cfg.MaxBatch {
				buf := msg.batch[:0]
				c.batchPool.Put(&buf)
			}
		}
		if msg.snap != nil {
			msg.snap <- c.captureShard(s, true)
		}
		if msg.sync != nil {
			close(msg.sync)
		}
	}
	if s.wal != nil {
		if err := s.wal.close(); err != nil {
			c.walErrors.Add(1)
		}
	}
}

func (c *Counter) apply(s *shard, batch []Observation) {
	t0 := time.Now()
	var applied int64
	s.mu.Lock()
	for i := range batch {
		if c.applyOne(s, &batch[i], 1) {
			applied++
		}
	}
	s.mu.Unlock()
	c.observed.Add(applied)
	tmIngestEvents.Add(applied)
	tmIngestBatches.Inc()
	tmApplyBatchNs.ObserveSince(t0)
}

// applyOne counts n of one observation in its minute bucket — an add to
// its leaf, which marks the bucket's prefix cache stale (and, if it was
// clean, its hour cell too) — reporting whether they were applied (vs
// dropped behind the retention horizon). The drain applies every event
// with n = 1; WAL replay and snapshot load apply a record's count. Nothing
// else may happen per event here: the drains hold the shard lock for it.
// Callers hold the shard lock (or are single-threaded recovery) and account
// the observed total (apply batches one atomic add per batch; recovery adds
// per record).
func (c *Counter) applyOne(s *shard, o *Observation, n int64) bool {
	for {
		cur := c.maxMinute.Load()
		if o.Minute <= cur || c.maxMinute.CompareAndSwap(cur, o.Minute) {
			break
		}
	}
	if o.Minute <= c.maxMinute.Load()-int64(c.buckets) {
		// Older than the retention horizon: drop rather than serve a
		// partially-evicted minute.
		s.dropped += n
		c.droppedOld.Add(n)
		return false
	}
	slot := int(o.Minute) % c.buckets
	b := &s.ring[slot]
	if b.minute != o.Minute {
		if b.minute > o.Minute {
			// The slot already holds a newer minute (the horizon advanced
			// between the checks above): treat as past retention.
			s.dropped += n
			c.droppedOld.Add(n)
			return false
		}
		if b.leaf != nil {
			s.evicted++
			c.evicted.Add(1)
		}
		// A recycled slot starts clean, so its first write marks the new
		// minute's hour: the old minute's stale mark says nothing about it.
		b.minute, b.stale = o.Minute, false
		hint := 2 * events.NumComponents
		if s.leafHint != nil {
			hint = int(s.leafHint[slot])
		}
		b.leaf = make(map[uint64]int64, hint)
	}
	b.leaf[leafKey(o.Name.ID, o.Country, o.LoggedIn)] += n
	if !b.stale {
		b.stale = true
		s.touchHour(o.Minute)
	}
	s.applied += n
	return true
}

// touchHour marks the hour cell of minute stale, claiming the cell for that
// hour if an older one held it. Callers hold the shard lock.
func (s *shard) touchHour(minute int64) {
	h := &s.hours[minute/60%int64(len(s.hours))]
	h.minute, h.stale = minute-minute%60, true
}
