package cluster

import (
	"sync"
	"sync/atomic"
	"time"
)

// sendQueue is the per-node write path and the one place a node's
// undelivered events wait. It delivers its whole backlog in order, and
// there are two ways a failed backlog gets retried:
//
//   - by the backoff timer: capped exponential delays, attempted from
//     send and pump, while the node is merely failing;
//   - by the failure detector: once the node has failed for hintAfter, or
//     the detector declares it dead, the queue is parked — the backlog
//     becomes hints, sends are accepted without an attempt (a known-dead
//     node costs no delivery attempts), and the one attempt that can
//     un-park it is pump's when the detector reports the node alive.
//
// A restarted durable node first replays its own WAL (everything it
// accepted before the crash), then takes the parked backlog (everything
// it missed while down); the two sets are disjoint because a delivery
// either committed before the crash or failed into this queue.
type sendQueue struct {
	mu        sync.Mutex
	node      *Node
	base      time.Duration // first retry delay; doubles per failure
	cap       time.Duration // backoff ceiling
	hintAfter time.Duration // continuous-failure budget before parking
	hints     *hintLoad     // parked backlog of every queue in the cluster

	pending     []routed
	failures    int       // consecutive failed attempts
	firstFail   time.Time // start of the current failure streak
	nextAttempt time.Time // backoff gate; zero means attempt immediately
	parked      bool      // pending is hints, waiting for StatusAlive

	stats sendStats
}

type sendStats struct {
	delivered      int64 // events that reached the node, replays included
	attempts       int64
	retries        int64
	failures       int64
	hinted         int64 // events that were in, or entered, a parked queue
	replayed       int64 // events delivered by an un-parking attempt
	replayFailures int64
}

// hintLoad is the cluster-wide hint backlog: the events sitting in parked
// queues, and the most there have ever been.
type hintLoad struct {
	pending   atomic.Int64
	highWater atomic.Int64
}

func (h *hintLoad) add(n int64) {
	now := h.pending.Add(n)
	for {
		hw := h.highWater.Load()
		if now <= hw || h.highWater.CompareAndSwap(hw, now) {
			return
		}
	}
}

func newSendQueue(n *Node, base, cap, hintAfter time.Duration, hints *hintLoad) *sendQueue {
	return &sendQueue{node: n, base: base, cap: cap, hintAfter: hintAfter, hints: hints}
}

// backoff returns the delay after the f-th consecutive failure:
// min(base·2^(f-1), cap).
func (q *sendQueue) backoff(f int) time.Duration {
	d := q.base
	for i := 1; i < f; i++ {
		d *= 2
		if d >= q.cap {
			return q.cap
		}
	}
	if d > q.cap {
		d = q.cap
	}
	return d
}

// send enqueues a batch for a node the detector sees as status, and
// attempts delivery unless a backoff window is open (then the batch waits
// for pump) or the queue is parked (then it waits for the node to be seen
// alive).
func (q *sendQueue) send(batch []routed, now time.Time, status Status) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.pending = append(q.pending, batch...)
	switch {
	case q.parked:
		q.hintLocked(len(batch))
	case status == StatusDead:
		q.parkLocked()
	case !now.Before(q.nextAttempt):
		q.attemptLocked(now)
	}
}

// pump is Cluster.Tick's visit: it parks the queue of a dead node,
// un-parks the queue of a node seen alive again by delivering its hints,
// and otherwise retries a backlog whose backoff window has elapsed.
func (q *sendQueue) pump(now time.Time, status Status) {
	q.mu.Lock()
	defer q.mu.Unlock()
	switch {
	case status == StatusDead:
		q.parkLocked()
	case q.parked && status != StatusAlive:
		// Hints wait for the detector, not the timer.
	case q.parked && len(q.pending) == 0:
		q.parked = false // declared dead with nothing owed: nothing to replay
	case q.parked:
		q.replayLocked()
	case len(q.pending) > 0 && !now.Before(q.nextAttempt):
		if q.failures > 0 {
			q.stats.retries++
			tmClusterRetries.Inc()
		}
		q.attemptLocked(now)
	}
}

// attemptLocked is one send attempt at the whole backlog. A failure opens
// the next backoff window and, once the streak is older than hintAfter,
// parks the queue.
func (q *sendQueue) attemptLocked(now time.Time) {
	q.stats.attempts++
	if q.deliverLocked() {
		return
	}
	if q.failures == 0 {
		q.firstFail = now
	}
	q.failures++
	q.stats.failures++
	tmClusterSendFails.Inc()
	q.nextAttempt = now.Add(q.backoff(q.failures))
	if now.Sub(q.firstFail) >= q.hintAfter {
		q.parkLocked()
	}
}

// replayLocked offers a parked backlog to a node seen alive again. On
// failure (the node died again between detection and replay) the queue
// stays parked for the next pump.
func (q *sendQueue) replayLocked() {
	n := int64(len(q.pending))
	if !q.deliverLocked() {
		q.stats.replayFailures++
		return
	}
	q.parked = false
	q.stats.replayed += n
	tmClusterReplayed.Add(n)
	q.hints.add(-n)
}

// deliverLocked hands the whole backlog to the node; success empties the
// queue and ends the failure streak.
func (q *sendQueue) deliverLocked() bool {
	if err := q.node.deliver(q.pending); err != nil {
		return false
	}
	q.stats.delivered += int64(len(q.pending))
	q.pending = nil
	q.failures = 0
	q.nextAttempt = time.Time{}
	return true
}

// parkLocked turns the backlog into hints and stops the backoff timer.
func (q *sendQueue) parkLocked() {
	if q.parked {
		return
	}
	q.parked = true
	q.failures = 0
	q.nextAttempt = time.Time{}
	q.hintLocked(len(q.pending))
}

// hintLocked accounts n events that became hints.
func (q *sendQueue) hintLocked(n int) {
	q.stats.hinted += int64(n)
	tmClusterHinted.Add(int64(n))
	q.hints.add(int64(n))
}

// pendingLen reports the undelivered event count, hints included.
func (q *sendQueue) pendingLen() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.pending)
}

func (q *sendQueue) statsSnap() sendStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.stats
}
