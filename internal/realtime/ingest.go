package realtime

import (
	"time"

	"unilog/internal/events"
	"unilog/internal/geo"
	"unilog/internal/scribe"
	"unilog/internal/thrift"
)

// TapBatch observes one batch of Scribe entries. Assign it to
// scribe.Aggregator.Tap to make an aggregator fan its accepted
// client_events into the counters; entries of other categories pass
// through uncounted. Safe for concurrent use by many aggregators.
//
// It digests each message from its header walk (events.Header) without
// building a ClientEvent: the name is looked up in the events name table by
// the bytes in the message, the country read off the IP bytes, so an event
// whose name has been seen before allocates nothing. A message that fails
// the walk, or whose name fails events.ParseName the first time it is
// seen, counts in Stats.DecodeErrors; a timestamp before Unix minute 1 in
// Stats.Invalid.
func (c *Counter) TapBatch(batch []scribe.Entry) {
	defer tmTapBatchNs.ObserveSince(time.Now())
	b := c.NewBatcher()
	var dec thrift.CompactDecoder
	var h events.Header
	for i := range batch {
		if batch[i].Category != events.Category {
			continue
		}
		c.tapEntries.Add(1)
		dec.Reset(batch[i].Message)
		if err := h.Decode(&dec); err != nil {
			c.decodeErrors.Add(1)
			continue
		}
		name, err := events.LookupBytes(h.Name)
		if err != nil {
			c.decodeErrors.Add(1)
			continue
		}
		if o, ok := c.digest(name, h.Timestamp/60_000, geo.CountryOfBytes(h.IP), h.LoggedIn()); ok {
			b.add(o)
		}
	}
	b.Flush()
}

// Ingest counts one already-decoded event as a batch of its own: one
// channel send and, on a durable counter, one WAL record — a dictionary
// delta, a write(2) and 1/FsyncEvery of an fsync for a single observation.
// It is for tests and one-off events; anything that has more than one
// event in hand uses a Batcher.
func (c *Counter) Ingest(e *events.ClientEvent) {
	if o, ok := c.observe(e); ok {
		c.send(c.shardOf(o.name), []obs{o})
	}
}

// Batcher accumulates per-shard batches of observations and ships each
// when it reaches Config.MaxBatch. One Batcher serves one producer
// goroutine; create one per goroutine. Buffers cycle through the
// counter's batch pool — a drain goroutine returns each batch after
// applying it — so a producer in steady state allocates nothing.
type Batcher struct {
	c   *Counter
	per [][]obs
}

// NewBatcher returns an empty batcher bound to the counter.
func (c *Counter) NewBatcher() *Batcher {
	return &Batcher{c: c, per: make([][]obs, len(c.shards))}
}

// Observation is one event reduced to what the counters keep of it: the
// name table's entry for its name, its minute, the country its IP resolved
// to and whether a user was logged in — what a WAL record logs per event,
// and what a cluster node hands its partition counters for each routed
// event it delivers. Every field is owned by the process, so it outlives the
// message it was read from.
type Observation struct {
	Name     *events.NameEntry // the name's entry; nil stands for an invalid name
	Minute   int64             // event timestamp in Unix minutes
	Country  string            // geo.CountryOf the event's IP
	LoggedIn bool
}

// Add digests and buffers one decoded event, flushing its shard's batch
// if full.
func (b *Batcher) Add(e *events.ClientEvent) {
	if o, ok := b.c.observe(e); ok {
		b.add(o)
	}
}

// AddObservation is Add for an event that has already been reduced to an
// Observation. The name is already the table's entry, so it goes straight
// to digest — no lookup — where every other door, WAL replay included,
// meets it: a nil Name or a minute before 1 counts in Stats.Invalid.
func (b *Batcher) AddObservation(o Observation) {
	if o, ok := b.c.digest(o.Name, o.Minute, o.Country, o.LoggedIn); ok {
		b.add(o)
	}
}

// add buffers one digested observation — where the decoded-event, the
// observation and the tap paths meet.
func (b *Batcher) add(o obs) {
	shard := b.c.shardOf(o.name)
	buf := b.per[shard]
	if buf == nil {
		buf = (*b.c.batchPool.Get().(*[]obs))[:0]
	}
	buf = append(buf, o)
	if len(buf) >= b.c.cfg.MaxBatch {
		b.c.send(shard, buf)
		buf = nil
	}
	b.per[shard] = buf
}

// Flush ships every non-empty shard batch. Call when the producer is done
// (or wants its writes visible after the next Sync).
func (b *Batcher) Flush() {
	for shard, batch := range b.per {
		if len(batch) > 0 {
			b.c.send(shard, batch)
			b.per[shard] = nil
		}
	}
}
