package cluster

import (
	"sync"
	"sync/atomic"
)

// sendQueue is the per-node write path and the one place a node's
// undelivered events wait. It delivers its whole backlog in order. A
// delivery fails only when the node is down, so the first failed attempt
// parks the queue: the backlog becomes hints, later sends join it without
// an attempt (a down node costs no delivery attempts), and the failure
// detector is the one retry signal — pump replays the backlog whenever the
// detector reports the node alive, and a replay that fails leaves it
// parked for the next one. A send to a node the detector already declared
// dead parks without an attempt.
//
// A restarted durable node first replays its own WAL (everything it
// accepted before the crash), then takes the parked backlog (everything
// it missed while down); the two sets are disjoint because a delivery
// either committed before the crash or failed into this queue.
type sendQueue struct {
	mu    sync.Mutex
	node  *Node
	hints *hintLoad // parked backlog of every queue in the cluster

	pending []routed
	parked  bool // pending is hints, waiting for StatusAlive

	stats sendStats
}

type sendStats struct {
	delivered      int64 // events that reached the node, replays included
	attempts       int64 // send's attempts at an un-parked queue
	failures       int64 // such attempts that failed and parked the queue
	retries        int64 // replay attempts at a parked backlog
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

func newSendQueue(n *Node, hints *hintLoad) *sendQueue {
	return &sendQueue{node: n, hints: hints}
}

// send enqueues a batch for a node the detector sees as status. It
// attempts delivery unless the queue is parked or the node is dead; a
// failed attempt parks the backlog. The queue takes ownership of batch:
// when nothing is pending, batch becomes the backlog without a copy.
func (q *sendQueue) send(batch []routed, status Status) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.pending) == 0 {
		q.pending = batch
	} else {
		q.pending = append(q.pending, batch...)
	}
	switch {
	case q.parked:
		q.hintLocked(len(batch))
	case status == StatusDead:
		q.parkLocked()
	default:
		q.stats.attempts++
		if !q.deliverLocked() {
			q.stats.failures++
			tmClusterSendFails.Inc()
			q.parkLocked()
		}
	}
}

// pump is Cluster.Tick's visit: it parks the queue of a dead node and
// replays a parked backlog whenever the node is seen alive.
func (q *sendQueue) pump(status Status) {
	q.mu.Lock()
	defer q.mu.Unlock()
	switch {
	case status == StatusDead:
		q.parkLocked()
	case q.parked && status == StatusAlive:
		q.replayLocked()
	}
}

// replayLocked offers a parked backlog to a node seen alive. On failure
// (the node is still down, or died again) the queue stays parked for the
// next pump.
func (q *sendQueue) replayLocked() {
	n := int64(len(q.pending))
	if n == 0 {
		q.parked = false // declared dead with nothing owed: nothing to replay
		return
	}
	q.stats.retries++
	tmClusterRetries.Inc()
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
// queue.
func (q *sendQueue) deliverLocked() bool {
	if err := q.node.deliver(q.pending); err != nil {
		return false
	}
	q.stats.delivered += int64(len(q.pending))
	q.pending = nil
	return true
}

// parkLocked turns the backlog into hints.
func (q *sendQueue) parkLocked() {
	if q.parked {
		return
	}
	q.parked = true
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
