// Package scribe reimplements the message-delivery layer of §2: Scribe
// daemons on every production host forward (category, message) log entries
// to a cluster of per-datacenter aggregators, which merge per-category
// streams and write them, compressed on the fly, onto the staging HDFS
// cluster. A client-events stream is encoded as it arrives: each message
// is walked once into a chunk.Builder, and each roll stages one chunk image
// (chunk.Builder.AppendImage), the rows the log mover re-chunks into the
// warehouse's column chunks without inflating or walking a record. A
// client event the encoder refuses is staged as a row of InvalidCategory.
// Every other category is staged as gzipped record streams.
//
// Fault-tolerance follows the paper:
//
//   - aggregators register ephemeral znodes in ZooKeeper; daemons discover a
//     live aggregator by listing that path and re-check it when their
//     aggregator disappears;
//   - daemons buffer entries in a local spool when no aggregator is
//     reachable and re-deliver later;
//   - aggregators buffer closed files in memory (standing in for their local
//     disk) when staging HDFS is unavailable and retry the writes.
//
// An aggregator can be stopped gracefully (an administrator restart: all
// buffers flush first) or crashed (in-flight buffers are dropped and
// counted, never silently lost).
package scribe

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"unilog/internal/chunk"
	"unilog/internal/events"
	"unilog/internal/hdfs"
	"unilog/internal/recordio"
	"unilog/internal/warehouse"
	"unilog/internal/zk"
)

// Errors surfaced by the delivery layer.
var (
	ErrNoAggregators  = errors.New("scribe: no live aggregators registered")
	ErrAggregatorDown = errors.New("scribe: aggregator not running")
	ErrSpilled        = errors.New("scribe: entries spooled locally, delivery pending")
)

// AggregatorsZNode is the fixed ZooKeeper path where aggregators register
// ephemeral nodes and daemons look them up.
const AggregatorsZNode = "/scribe/aggregators"

const zkSessionTimeout = time.Minute

// stagingLevel is the deflate level of the aggregator's gzip staging
// files, which since client events are staged as chunk images hold every
// other category only: it prices their transfer, not storage, for the log
// mover copies those bytes out of each datacenter's staging cluster into
// the main warehouse (§2) and splices them there as they are. On the
// generator's busiest hour of a 2,000-user day (13,683 client events,
// 3.70 MB of messages, cut into members of 5,000 records as RollRecords
// does), on a 2-vCPU x86-64 host, medians of 15 writes, three rounds:
//
//	level   ms          bytes     B/event
//	1       48.2-52.9   813,442   59.4
//	3       59.1-61.1   715,713   52.3
//	5       83.9-88.6   671,343   49.1
//
// Level 3 takes 0.70x the time of level 5 for 6.6% more bytes on the wire.
// Level 1 would take 0.84x the time of level 3 for 14% more bytes.
const stagingLevel = 3

// InvalidCategory is where an aggregator stages a client event the chunk
// encoder refuses — a message the header walk cannot read, or a name
// events.ParseName rejects — as a gzip row, so it is counted
// (AggregatorStats.Invalid) and moved like any other category's rows,
// never dropped.
const InvalidCategory = events.Category + "_invalid"

// Entry is one log message: "Each log entry consists of two strings, a
// category and a message" (§2).
type Entry struct {
	Category string
	Message  []byte
}

// aggState tracks the aggregator lifecycle.
type aggState int

const (
	aggRunning aggState = iota
	aggStopped
	aggCrashed
)

// AggregatorStats counts aggregator activity.
type AggregatorStats struct {
	BatchesReceived  int64
	MessagesReceived int64
	FilesWritten     int64
	FlushFailures    int64
	MessagesDropped  int64 // lost in a hard crash
	PendingFiles     int64 // files buffered awaiting a staging retry
	PendingMessages  int64 // messages in open streams not yet in a file
	// Invalid counts client events the chunk encoder refused, staged as
	// rows of InvalidCategory instead.
	Invalid int64
}

type memBuf struct{ data []byte }

func (m *memBuf) Write(p []byte) (int, error) {
	m.data = append(m.data, p...)
	return len(p), nil
}

// categoryStream is an open output stream for one category and hour: a
// client-events stream's rows in a chunk encoder, any other's a
// compressing gzip stream.
type categoryStream struct {
	hour  time.Time
	b     *chunk.Builder // the client-events category's
	buf   *memBuf        // the others'
	w     *recordio.GzipWriter
	count int64
}

// pendingFile is a finished staging file that could not be written because
// HDFS was unavailable; it lives in the aggregator's "local disk" buffer.
type pendingFile struct {
	path  string
	data  []byte
	count int64
}

// Aggregator merges per-category streams from many daemons and deposits
// them on the staging cluster.
type Aggregator struct {
	ID string

	staging  *hdfs.FS
	clock    zk.Clock
	zkServer *zk.Server
	conn     *zk.Conn

	// RollRecords caps messages per staging file before it is rolled.
	RollRecords int64

	// Tap, when set, observes every entry Append accepts, under the
	// category it is staged in (InvalidCategory for a client event the
	// encoder refuses), so a streaming consumer sees exactly the traffic
	// that will reach staging. It runs synchronously once the batch has
	// committed, outside the aggregator lock; a slow tap therefore slows
	// the sending daemon, which is the intended backpressure. Set it
	// before traffic starts.
	Tap func(batch []Entry)

	mu      sync.Mutex
	state   aggState
	streams map[string]*categoryStream
	spare   []*chunk.Builder // emptied encoders of rolled streams
	pending []pendingFile
	fileSeq int
	stats   AggregatorStats
}

// NewAggregator creates an aggregator, connects it to ZooKeeper, and
// registers its ephemeral znode under AggregatorsZNode.
func NewAggregator(id string, staging *hdfs.FS, zkServer *zk.Server, clock zk.Clock) (*Aggregator, error) {
	if clock == nil {
		clock = zk.SystemClock{}
	}
	conn, err := registerAggregator(zkServer, id)
	if err != nil {
		return nil, err
	}
	return &Aggregator{
		ID:          id,
		staging:     staging,
		clock:       clock,
		zkServer:    zkServer,
		conn:        conn,
		RollRecords: 5000,
		streams:     make(map[string]*categoryStream),
	}, nil
}

// registerAggregator opens a session and creates the ephemeral
// registration znode (with persistent parents).
func registerAggregator(zkServer *zk.Server, id string) (*zk.Conn, error) {
	conn := zkServer.Connect(zkSessionTimeout)
	for _, p := range []string{"/scribe", AggregatorsZNode} {
		if _, err := conn.Create(p, nil, zk.Persistent); err != nil && !errors.Is(err, zk.ErrNodeExists) {
			conn.Close()
			return nil, err
		}
	}
	if _, err := conn.Create(AggregatorsZNode+"/"+id, []byte(id), zk.Ephemeral); err != nil {
		conn.Close()
		return nil, err
	}
	return conn, nil
}

// heartbeatLocked keeps the ZooKeeper registration alive. A real ZooKeeper
// client heartbeats from a background thread; with an injected clock the
// aggregator pings on activity instead, re-registering if the session
// expired while it was idle (as a production aggregator would).
func (a *Aggregator) heartbeatLocked() {
	if a.state != aggRunning {
		return
	}
	if err := a.conn.Ping(); err == nil {
		return
	}
	if conn, err := registerAggregator(a.zkServer, a.ID); err == nil {
		a.conn = conn
	}
}

// Append accepts a batch of entries. Acceptance is durable against staging
// outages (buffered locally) but not against a hard Crash of this
// aggregator.
func (a *Aggregator) Append(batch []Entry) error {
	tap, tapped, err := a.appendLocked(batch)
	// Even on a mid-batch error the entries collected so far were
	// committed to their streams, so the tap must still observe them.
	if tap != nil && len(tapped) > 0 {
		tmTapEntries.Add(int64(len(tapped)))
		tap(tapped)
	}
	return err
}

// appendLocked commits the batch under the lock and returns the tap
// callback plus the entries it should observe, each with the category it
// was staged in. The tap itself runs in Append, unlocked.
func (a *Aggregator) appendLocked(batch []Entry) (func(batch []Entry), []Entry, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.state != aggRunning {
		return nil, nil, fmt.Errorf("%w: %s", ErrAggregatorDown, a.ID)
	}
	a.heartbeatLocked()
	a.stats.BatchesReceived++
	received := a.stats.MessagesReceived
	defer func() { tmAggMessages.Add(a.stats.MessagesReceived - received) }()
	var tapped []Entry
	var invalid int64
	defer func() { tmAggInvalid.Add(invalid) }()
	now := a.clock.Now().UTC().Truncate(time.Hour)
	for _, e := range batch {
		category := e.Category
		s := a.streamLocked(category, now)
		if s.b != nil && s.b.AddRecord(e.Message) != nil {
			// Not a row a chunk can hold: it is staged, and moved, as a
			// row of its own category.
			invalid++
			a.stats.Invalid++
			category = InvalidCategory
			s = a.streamLocked(category, now)
		}
		if s.w != nil {
			if err := s.w.Append(e.Message); err != nil {
				return a.Tap, tapped, err
			}
		}
		if a.Tap != nil {
			tapped = append(tapped, Entry{Category: category, Message: e.Message})
		}
		s.count++
		a.stats.MessagesReceived++
		a.stats.PendingMessages++
		if s.count >= a.RollRecords {
			a.rollStreamLocked(category, s)
		}
	}
	a.retryPendingLocked()
	return a.Tap, tapped, nil
}

// streamLocked returns the open stream of category for hour, rolling one
// still open for an earlier hour and opening a new one as needed.
func (a *Aggregator) streamLocked(category string, hour time.Time) *categoryStream {
	s := a.streams[category]
	if s != nil && !s.hour.Equal(hour) {
		a.rollStreamLocked(category, s)
		s = nil
	}
	if s == nil {
		s = &categoryStream{hour: hour}
		if category == events.Category {
			if n := len(a.spare); n > 0 {
				s.b, a.spare = a.spare[n-1], a.spare[:n-1]
			} else {
				s.b = new(chunk.Builder)
			}
		} else {
			s.buf = &memBuf{}
			s.w, _ = recordio.NewGzipWriterLevel(s.buf, stagingLevel) // a valid level
		}
		a.streams[category] = s
	}
	return s
}

// rollStreamLocked closes the stream and queues its file for writing: a
// client-events stream's rows as one chunk image, any other's gzip member.
func (a *Aggregator) rollStreamLocked(category string, s *categoryStream) {
	delete(a.streams, category)
	var data []byte
	var err error
	ext := "gz"
	if s.b != nil {
		if data, _, err = s.b.AppendImage(nil); err == nil {
			a.spare = append(a.spare, s.b) // empty, as AppendImage leaves it
		}
		ext = "col"
	} else if s.count > 0 {
		err = s.w.Close()
		data = s.buf.data
	}
	if s.count == 0 {
		return
	}
	if err != nil {
		// Neither an in-memory gzip stream nor a chunk image of records
		// the encoder took can fail in practice; if one does, its messages
		// are counted as dropped rather than staged corrupt.
		a.stats.MessagesDropped += s.count
		a.stats.PendingMessages -= s.count
		tmAggDropped.Add(s.count)
		return
	}
	path := fmt.Sprintf("%s/%s-%05d.%s", warehouse.StagingHourDir(category, s.hour), a.ID, a.fileSeq, ext)
	a.fileSeq++
	a.pending = append(a.pending, pendingFile{path: path, data: data, count: s.count})
	a.stats.PendingFiles++
	a.stats.PendingMessages -= s.count
	a.retryPendingLocked()
}

// retryPendingLocked writes queued files to staging, stopping at the first
// failure so file order within the run is preserved.
func (a *Aggregator) retryPendingLocked() {
	for len(a.pending) > 0 {
		f := a.pending[0]
		t0 := time.Now()
		if err := a.staging.WriteFile(f.path, f.data); err != nil {
			a.stats.FlushFailures++
			tmFlushFailures.Inc()
			return
		}
		tmFlushNs.ObserveSince(t0)
		tmFilesWritten.Inc()
		a.stats.FilesWritten++
		a.stats.PendingFiles--
		a.pending = a.pending[1:]
	}
}

// FlushAll rolls every open stream and attempts to write all queued files.
// It returns ErrSpilled if staging is unavailable and data remains queued.
func (a *Aggregator) FlushAll() error { return a.flush(time.Time{}, true) }

// flush rolls every open stream, or with all false those of hour through
// and earlier only, and attempts to write all queued files. A later hour's
// stream left open stages the entries it holds in one image with the rest
// of its hour, not in one of their own.
func (a *Aggregator) flush(through time.Time, all bool) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.state == aggCrashed {
		return fmt.Errorf("%w: %s", ErrAggregatorDown, a.ID)
	}
	a.heartbeatLocked()
	for cat, s := range a.streams {
		if all || !s.hour.After(through) {
			a.rollStreamLocked(cat, s)
		}
	}
	a.retryPendingLocked()
	if len(a.pending) > 0 {
		return fmt.Errorf("%w: %d files queued on %s", ErrSpilled, len(a.pending), a.ID)
	}
	return nil
}

// Stop gracefully shuts the aggregator down: flush everything, then drop
// the ZooKeeper registration (the "restarted by an administrator" case).
func (a *Aggregator) Stop() error {
	err := a.FlushAll()
	a.mu.Lock()
	a.state = aggStopped
	a.mu.Unlock()
	a.conn.Close()
	return err
}

// Crash simulates a hard failure: open streams and queued files are dropped
// (and counted in MessagesDropped) and the ephemeral znode disappears.
func (a *Aggregator) Crash() {
	a.mu.Lock()
	for cat, s := range a.streams {
		a.stats.MessagesDropped += s.count
		a.stats.PendingMessages -= s.count
		tmAggDropped.Add(s.count)
		delete(a.streams, cat)
	}
	for _, f := range a.pending {
		a.stats.MessagesDropped += f.count
		tmAggDropped.Add(f.count)
	}
	a.stats.PendingFiles = 0
	a.pending = nil
	a.state = aggCrashed
	a.mu.Unlock()
	a.conn.Close()
}

// Stats returns a snapshot of the aggregator's counters.
func (a *Aggregator) Stats() AggregatorStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats
}

// Network routes daemon batches to aggregators by id, standing in for the
// datacenter network.
type Network struct {
	mu   sync.Mutex
	aggs map[string]*Aggregator
	// FailSend, when set, injects a transport error for the given
	// aggregator id before delivery is attempted.
	FailSend func(aggID string) error
}

// NewNetwork returns an empty network.
func NewNetwork() *Network { return &Network{aggs: make(map[string]*Aggregator)} }

// Register makes an aggregator reachable.
func (n *Network) Register(a *Aggregator) {
	n.mu.Lock()
	n.aggs[a.ID] = a
	n.mu.Unlock()
}

// Send delivers a batch to the aggregator with the given id.
func (n *Network) Send(aggID string, batch []Entry) error {
	n.mu.Lock()
	a := n.aggs[aggID]
	fail := n.FailSend
	n.mu.Unlock()
	if fail != nil {
		if err := fail(aggID); err != nil {
			return err
		}
	}
	if a == nil {
		return fmt.Errorf("%w: %s unknown", ErrAggregatorDown, aggID)
	}
	return a.Append(batch)
}

// DaemonStats counts daemon activity.
type DaemonStats struct {
	Accepted       int64 // messages handed to Log
	Delivered      int64 // messages acked by an aggregator
	Spooled        int64 // messages currently in the local spool
	SpoolHighWater int64
	SendFailures   int64
	Rediscoveries  int64
}

// Daemon is the per-host Scribe client. Log buffers entries; batches are
// delivered to a discovered aggregator, spooling locally on failure.
type Daemon struct {
	Host string
	// BatchSize triggers an automatic flush when the pending batch reaches
	// this many entries.
	BatchSize int

	zkServer *zk.Server
	conn     *zk.Conn
	net      *Network
	rng      *rand.Rand

	mu      sync.Mutex
	spool   []Entry // undelivered entries, oldest first
	current string  // cached aggregator id, "" when unknown
	stats   DaemonStats
}

// NewDaemon creates a daemon for the given host. The seed drives aggregator
// selection so tests are deterministic.
func NewDaemon(host string, zkServer *zk.Server, net *Network, seed int64) *Daemon {
	return &Daemon{
		Host:      host,
		BatchSize: 200,
		zkServer:  zkServer,
		conn:      zkServer.Connect(zkSessionTimeout),
		net:       net,
		rng:       rand.New(rand.NewSource(seed)),
	}
}

// Log accepts one message for delivery. Entries are flushed automatically
// once BatchSize accumulate; call Flush to force delivery.
func (d *Daemon) Log(category string, message []byte) {
	d.mu.Lock()
	msg := make([]byte, len(message))
	copy(msg, message)
	d.spool = append(d.spool, Entry{Category: category, Message: msg})
	d.stats.Accepted++
	tmDaemonAccept.Inc()
	d.stats.Spooled = int64(len(d.spool))
	if d.stats.Spooled > d.stats.SpoolHighWater {
		d.stats.SpoolHighWater = d.stats.Spooled
		tmSpoolHigh.SetMax(d.stats.Spooled)
	}
	flush := len(d.spool) >= d.BatchSize
	d.mu.Unlock()
	if flush {
		d.Flush() //nolint:errcheck // spooled entries are retried next flush
	}
}

// Flush attempts to deliver everything in the spool. On transport failure
// it rediscovers an aggregator via ZooKeeper and retries; entries remain
// spooled if no aggregator accepts them.
func (d *Daemon) Flush() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.spool) == 0 {
		return nil
	}
	const maxAttempts = 3
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if d.current == "" {
			id, err := d.discoverLocked()
			if err != nil {
				return fmt.Errorf("%w: %v", ErrSpilled, err)
			}
			d.current = id
		}
		batch := d.spool
		if err := d.net.Send(d.current, batch); err != nil {
			d.stats.SendFailures++
			tmSendFailures.Inc()
			d.current = "" // force rediscovery
			continue
		}
		d.stats.Delivered += int64(len(batch))
		d.spool = nil
		d.stats.Spooled = 0
		return nil
	}
	return fmt.Errorf("%w: %d entries after %d attempts", ErrSpilled, len(d.spool), maxAttempts)
}

// discoverLocked picks a random live aggregator from ZooKeeper — "the same
// mechanism is used for balancing load across aggregators" (§2).
func (d *Daemon) discoverLocked() (string, error) {
	d.stats.Rediscoveries++
	kids, err := d.conn.Children(AggregatorsZNode)
	if errors.Is(err, zk.ErrSessionExpired) || errors.Is(err, zk.ErrClosed) {
		// The session lapsed while the daemon was idle; reconnect, as the
		// ZooKeeper client library would after session loss.
		d.conn = d.zkServer.Connect(zkSessionTimeout)
		kids, err = d.conn.Children(AggregatorsZNode)
	}
	if err != nil {
		return "", err
	}
	if len(kids) == 0 {
		return "", ErrNoAggregators
	}
	pick := kids[d.rng.Intn(len(kids))]
	data, err := d.conn.Get(AggregatorsZNode + "/" + pick)
	if err != nil {
		return "", err
	}
	return string(data), nil
}

// Stats returns a snapshot of the daemon's counters.
func (d *Daemon) Stats() DaemonStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// Close releases the daemon's ZooKeeper session. Spooled entries are
// reported, not silently dropped.
func (d *Daemon) Close() (spooled int64) {
	d.mu.Lock()
	spooled = int64(len(d.spool))
	d.mu.Unlock()
	d.conn.Close()
	return spooled
}
