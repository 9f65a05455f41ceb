package cluster

import (
	"sync"
	"time"
)

// Status is the failure detector's view of a node.
type Status int

// Detector statuses. A node ages Alive → Suspect → Dead as heartbeat
// silence grows, and snaps back to Alive on the first heartbeat after
// any silence.
const (
	StatusAlive Status = iota
	StatusSuspect
	StatusDead
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusAlive:
		return "alive"
	case StatusSuspect:
		return "suspect"
	case StatusDead:
		return "dead"
	}
	return "unknown"
}

// detector is a heartbeat/suspicion failure detector. Heartbeats record
// when a node was last seen; refresh re-ages every node against the
// injected clock's now. Suspicion is the hedge against declaring a
// slow node dead: a send to a suspect node is still attempted (the write
// may land), a send to a dead node parks as a hint without one.
type detector struct {
	mu           sync.Mutex
	suspectAfter time.Duration
	deadAfter    time.Duration
	lastSeen     []time.Time
	status       []Status

	suspects int64 // alive→suspect transitions
	deaths   int64 // suspect→dead transitions
	revivals int64 // suspect/dead→alive transitions
}

func newDetector(n int, suspectAfter, deadAfter time.Duration, now time.Time) *detector {
	d := &detector{
		suspectAfter: suspectAfter,
		deadAfter:    deadAfter,
		lastSeen:     make([]time.Time, n),
		status:       make([]Status, n),
	}
	for i := range d.lastSeen {
		d.lastSeen[i] = now
	}
	return d
}

// heartbeat records that node id was seen at now. The status change (if
// any) lands on the next refresh, which is where transitions are
// counted — heartbeat stays cheap and refresh stays the single place
// state moves.
func (d *detector) heartbeat(id int, now time.Time) {
	d.mu.Lock()
	if now.After(d.lastSeen[id]) {
		d.lastSeen[id] = now
	}
	d.mu.Unlock()
}

// refresh re-ages every node against now, counting transitions.
func (d *detector) refresh(now time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for id := range d.status {
		silence := now.Sub(d.lastSeen[id])
		var next Status
		switch {
		case silence >= d.deadAfter:
			next = StatusDead
		case silence >= d.suspectAfter:
			next = StatusSuspect
		default:
			next = StatusAlive
		}
		prev := d.status[id]
		if next == prev {
			continue
		}
		d.status[id] = next
		switch {
		case next == StatusSuspect && prev == StatusAlive:
			d.suspects++
			tmClusterSuspects.Inc()
		case next == StatusDead:
			d.deaths++
			tmClusterDeaths.Inc()
		case next == StatusAlive:
			d.revivals++
			tmClusterRevivals.Inc()
		}
	}
}

// statusOf reports the detector's current view of node id.
func (d *detector) statusOf(id int) Status {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.status[id]
}

// transitions returns the cumulative transition counts.
func (d *detector) transitions() (suspects, deaths, revivals int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.suspects, d.deaths, d.revivals
}
