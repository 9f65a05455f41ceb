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
// It reads each message with ReadObservations, so an event whose name has
// been seen before allocates nothing. A message that fails the walk, or
// whose name fails events.ParseName the first time it is seen, counts in
// Stats.DecodeErrors; a timestamp before Unix minute 1 in Stats.Invalid.
func (c *Counter) TapBatch(batch []scribe.Entry) {
	defer tmTapBatchNs.ObserveSince(time.Now())
	b := c.NewBatcher()
	entries, failed := ReadObservations(batch, b.AddObservation)
	c.tapEntries.Add(entries)
	c.decodeErrors.Add(failed)
	b.Flush()
}

// ReadObservations reduces each client_events entry of a Scribe batch to
// its Observation and hands it to fn; entries of other categories are
// skipped. It is the one header walk both taps share, a counter's and a
// cluster router's: each message's events.Header is read in place — no
// ClientEvent, no strings, no details map — the name looked up in the
// events name table by the bytes in the message, and the country read off
// the IP bytes as its geo index. It returns how many client_events entries
// it read and how many of them failed the walk or carried a name
// events.ParseName rejects the first time it is seen; fn sees none of
// those. What fn does see is not vetted: a minute before 1 is the
// counter's to refuse.
func ReadObservations(batch []scribe.Entry, fn func(Observation)) (entries, failed int64) {
	var dec thrift.CompactDecoder
	var h events.Header
	for i := range batch {
		if batch[i].Category != events.Category {
			continue
		}
		entries++
		dec.Reset(batch[i].Message)
		err := h.Decode(&dec)
		var name *events.NameEntry
		if err == nil {
			name, err = events.LookupBytes(h.Name)
		}
		if err != nil {
			failed++
			continue
		}
		fn(Observation{Name: name, Minute: h.Timestamp / 60_000, Country: uint8(geo.CountryIndex(h.IP)), LoggedIn: h.LoggedIn()})
	}
	return entries, failed
}

// Ingest counts one already-decoded event as a batch of its own: one
// channel send and, on a durable counter, one WAL record — a dictionary
// delta, a write(2) and 1/FsyncEvery of an fsync for a single observation.
// It is for tests and one-off events; anything that has more than one
// event in hand uses a Batcher.
func (c *Counter) Ingest(e *events.ClientEvent) {
	if o, ok := c.observe(e); ok {
		c.send(c.shardOf(o.Name), []Observation{o})
	}
}

// Batcher accumulates per-shard batches of observations and ships each
// when it reaches Config.MaxBatch. One Batcher serves one producer
// goroutine; create one per goroutine. Buffers cycle through the
// counter's batch pool — a drain goroutine returns each batch after
// applying it — so a producer in steady state allocates nothing.
type Batcher struct {
	c   *Counter
	per [][]Observation
}

// NewBatcher returns an empty batcher bound to the counter.
func (c *Counter) NewBatcher() *Batcher {
	return &Batcher{c: c, per: make([][]Observation, len(c.shards))}
}

// Observation is one event reduced to what the counters keep of it: the
// name table's entry for its name, its minute, its country as geo numbers it
// and whether a user was logged in — what a shard applies, what a WAL
// record logs per event (a snapshot per leaf, with a count), and what a
// cluster node hands its partition counters for each routed event it
// delivers. Every field is owned by the process, so it outlives the message
// it was read from: at ~24 bytes it is what the shard channels carry, where
// the pre-interning representation hauled eleven strings (~200 B) per event.
type Observation struct {
	Name     *events.NameEntry // the name's entry; nil stands for an invalid name
	Minute   int64             // event timestamp in Unix minutes
	Country  uint8             // geo.CountryIndex of the event's IP; len(geo.Countries) is geo.Unknown
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
// meets it: a nil Name, a minute before 1 or a Country past geo.Unknown's
// index counts in Stats.Invalid.
func (b *Batcher) AddObservation(o Observation) {
	if b.c.digest(o) {
		b.add(o)
	}
}

// add buffers one digested observation — where the decoded-event, the
// observation and the tap paths meet.
func (b *Batcher) add(o Observation) {
	shard := b.c.shardOf(o.Name)
	buf := b.per[shard]
	if buf == nil {
		buf = (*b.c.batchPool.Get().(*[]Observation))[:0]
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
