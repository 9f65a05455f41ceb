package scribe

import (
	"fmt"
	"slices"
	"time"

	"unilog/internal/events"
	"unilog/internal/hdfs"
	"unilog/internal/warehouse"
	"unilog/internal/zk"
)

// Datacenter wires one datacenter of Figure 1 together: a ZooKeeper
// ensemble, a staging HDFS cluster, a set of aggregators co-located with
// it, and Scribe daemons on the production hosts.
type Datacenter struct {
	Name        string
	Staging     *hdfs.FS
	ZooKeeper   *zk.Server
	Net         *Network
	Aggregators []*Aggregator
	Daemons     []*Daemon

	clock zk.Clock
}

// NewDatacenter builds a datacenter with the given numbers of aggregators
// and daemons. All randomness derives from seed.
func NewDatacenter(name string, staging *hdfs.FS, clock zk.Clock, nAggs, nDaemons int, seed int64) (*Datacenter, error) {
	if clock == nil {
		clock = zk.SystemClock{}
	}
	dc := &Datacenter{
		Name:      name,
		Staging:   staging,
		ZooKeeper: zk.NewServer(clock),
		Net:       NewNetwork(),
		clock:     clock,
	}
	for i := 0; i < nAggs; i++ {
		a, err := NewAggregator(fmt.Sprintf("%s-agg%02d", name, i), staging, dc.ZooKeeper, clock)
		if err != nil {
			return nil, err
		}
		dc.Net.Register(a)
		dc.Aggregators = append(dc.Aggregators, a)
	}
	for i := 0; i < nDaemons; i++ {
		d := NewDaemon(fmt.Sprintf("%s-host%03d", name, i), dc.ZooKeeper, dc.Net, seed+int64(i))
		dc.Daemons = append(dc.Daemons, d)
	}
	return dc, nil
}

// FlushAll drains every daemon spool and every aggregator buffer to the
// staging cluster. The first error is returned but all components are
// attempted.
func (dc *Datacenter) FlushAll() error {
	return dc.flush((*Aggregator).FlushAll)
}

// flush drains every daemon spool into the aggregators, then each
// aggregator through flushAgg, returning the first error once all were
// attempted.
func (dc *Datacenter) flush(flushAgg func(*Aggregator) error) error {
	var first error
	for _, d := range dc.Daemons {
		if err := d.Flush(); err != nil && first == nil {
			first = err
		}
	}
	for _, a := range dc.Aggregators {
		if err := flushAgg(a); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// SealHour flushes the hour — every daemon spool, and every aggregator
// stream of this hour or an earlier one — and writes the _SEALED marker for
// each given category-hour, signalling to the log mover that this
// datacenter has transferred all its logs for the hour (§2: the mover
// "ensures that ... all datacenters that produce a given log category have
// transferred their logs"). Sealing events.Category seals InvalidCategory
// with it, where the client events the encoder refused are staged. A
// stream of a later hour stays open: the entries a spool hands it now are
// staged with the rest of that hour.
func (dc *Datacenter) SealHour(categories []string, hour time.Time) error {
	if err := dc.flush(func(a *Aggregator) error { return a.flush(hour, false) }); err != nil {
		return err
	}
	if slices.Contains(categories, events.Category) {
		categories = append(slices.Clip(categories), InvalidCategory)
	}
	for _, cat := range categories {
		dir := warehouse.StagingHourDir(cat, hour)
		if err := dc.Staging.MkdirAll(dir); err != nil {
			return err
		}
		marker := dir + "/" + warehouse.SealedMarker
		if dc.Staging.Exists(marker) {
			continue
		}
		if err := dc.Staging.WriteFile(marker, nil); err != nil {
			return err
		}
	}
	return nil
}
