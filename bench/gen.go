package main

import (
	"fmt"
	"time"

	"unilog/internal/events"
	"unilog/internal/hdfs"
	"unilog/internal/scribe"
	"unilog/internal/warehouse"
	"unilog/internal/workload"
)

// benchDay is the UTC day every generated event falls into. Only the seed
// varies between runs; the date is a label.
var benchDay = time.Date(2012, time.March, 1, 0, 0, 0, 0, time.UTC)

// eventsPerUser is what internal/workload yields per logged-in user at the
// default session shape with 0.3 logged-out sessions per user, measured on
// a 300k-event day; it converts a target event count into a population.
const eventsPerUser = 75.5

// dayConfig sizes the default workload shape to about the given number of
// events. Every random choice flows from seed.
func dayConfig(seed int64, targetEvents int) workload.Config {
	cfg := workload.DefaultConfig(benchDay)
	cfg.Seed = seed
	users := int(float64(targetEvents) / eventsPerUser)
	if users < 40 {
		users = 40
	}
	cfg.Users = users
	cfg.LoggedOutSessions = users * 3 / 10
	return cfg
}

// arena holds pre-marshalled Thrift messages back to back, in feed order:
// hour by hour, generation order within an hour. The system under test is
// handed slices of buf and never sees the generator.
type arena struct {
	buf []byte
	off []uint32 // message i is buf[off[i]:off[i+1]]
	// hourStart[h] is the index of the first message of hour h;
	// hourStart[24] is the message count.
	hourStart [25]int
}

func (a *arena) len() int { return len(a.off) - 1 }

func (a *arena) msg(i int) []byte { return a.buf[a.off[i]:a.off[i+1]] }

// entries wraps every message as a client-events Scribe entry, the shape
// the realtime and cluster taps receive.
func (a *arena) entries() []scribe.Entry {
	out := make([]scribe.Entry, a.len())
	for i := range out {
		out[i] = scribe.Entry{Category: events.Category, Message: a.msg(i)}
	}
	return out
}

// genStats is what set-up measured about the generator and the client side.
type genStats struct {
	Events      int64
	GenSeconds  float64 // whole generation pass, sink included
	SinkNs      int64   // time inside the timed part of the sink
	InputDigest string
}

// generateArena runs the generator once, marshalling every event into the
// arena and folding it into the oracle. SinkNs is the time inside Marshal.
func generateArena(cfg workload.Config) (*arena, *oracle, genStats, error) {
	o := newOracle(cfg.Day)
	var hourBuf [24][]byte
	var hourOff [24][]uint32
	var gs genStats
	start := time.Now()
	_, err := workload.New(cfg).GenerateTo(func(e *events.ClientEvent) error {
		h, err := o.observe(e)
		if err != nil {
			return err
		}
		t0 := time.Now()
		msg := e.Marshal()
		gs.SinkNs += time.Since(t0).Nanoseconds()
		hourOff[h] = append(hourOff[h], uint32(len(hourBuf[h])))
		hourBuf[h] = append(hourBuf[h], msg...)
		return nil
	})
	if err != nil {
		return nil, nil, gs, err
	}
	a := &arena{}
	total := 0
	for h := range hourBuf {
		total += len(hourBuf[h])
	}
	a.buf = make([]byte, 0, total)
	a.off = make([]uint32, 0, o.n+1)
	for h := range hourBuf {
		a.hourStart[h] = len(a.off)
		base := uint32(len(a.buf))
		for _, off := range hourOff[h] {
			a.off = append(a.off, base+off)
		}
		a.buf = append(a.buf, hourBuf[h]...)
	}
	a.hourStart[24] = len(a.off)
	a.off = append(a.off, uint32(len(a.buf)))
	o.finish()
	gs.GenSeconds = time.Since(start).Seconds()
	gs.Events = o.n
	gs.InputDigest = o.inputDigest()
	return a, o, gs, nil
}

// generateWarehouse streams the generated day straight into a warehouse
// through warehouse.Writer, the way the batch workloads receive it, and
// folds it into the oracle. SinkNs is the time inside Writer.Append/Close.
func generateWarehouse(cfg workload.Config) (*hdfs.FS, *oracle, genStats, error) {
	o := newOracle(cfg.Day)
	fs := hdfs.New(0)
	w := warehouse.NewWriter(fs, events.Category)
	w.RollRecords = 4000
	var gs genStats
	start := time.Now()
	_, err := workload.New(cfg).GenerateTo(func(e *events.ClientEvent) error {
		if _, err := o.observe(e); err != nil {
			return err
		}
		t0 := time.Now()
		err := w.Append(e)
		gs.SinkNs += time.Since(t0).Nanoseconds()
		return err
	})
	if err != nil {
		return nil, nil, gs, err
	}
	t0 := time.Now()
	if err := w.Close(); err != nil {
		return nil, nil, gs, err
	}
	gs.SinkNs += time.Since(t0).Nanoseconds()
	if w.Written() != o.n {
		return nil, nil, gs, fmt.Errorf("warehouse writer took %d of %d events", w.Written(), o.n)
	}
	o.finish()
	gs.GenSeconds = time.Since(start).Seconds()
	gs.Events = o.n
	gs.InputDigest = o.inputDigest()
	return fs, o, gs, nil
}
