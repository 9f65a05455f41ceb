package cluster

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"unilog/internal/events"
	"unilog/internal/geo"
	"unilog/internal/realtime"
	"unilog/internal/zk"
)

var t0 = time.Date(2012, 8, 21, 14, 0, 0, 0, time.UTC)

func ev(name string, at time.Time, user int64, country string) *events.ClientEvent {
	return &events.ClientEvent{
		Initiator: events.InitiatorClientUser,
		Name:      events.MustParseName(name),
		UserID:    user,
		SessionID: "sess",
		IP:        geo.IPFor(country, user),
		Timestamp: at.UnixMilli(),
	}
}

// routedAt is a logged-in US user firing name at at, routed to partition p.
func routedAt(t *testing.T, p int, name string, at time.Time) routed {
	t.Helper()
	e, err := events.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return routed{minute: at.Unix() / 60, name: e.ID, p: uint16(p), country: uint8(slices.Index(geo.Countries, "us")), loggedIn: true}
}

// testNames spreads over enough distinct full names that every test
// exercises multiple partitions.
var testNames = []string{
	"web:home:mentions:stream:avatar:profile_click",
	"web:home:timeline:stream:tweet:impression",
	"web:profile:header:card:follow:click",
	"iphone:home:timeline:stream:tweet:impression",
	"iphone:search:results:cell:tweet:open",
	"android:home:timeline:stream:tweet:favorite",
	"android:dm:thread:composer:send:click",
	"web:search:results:stream:tweet:impression",
}

func testCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestRingPlacement(t *testing.T) {
	r := newRing(5, 8, 32, 3)
	counts := make([]int, 5)
	for p := 0; p < 32; p++ {
		set := r.replicas[p]
		if len(set) != 3 {
			t.Fatalf("partition %d has %d replicas, want 3", p, len(set))
		}
		seen := map[int]bool{}
		for _, id := range set {
			if seen[id] {
				t.Fatalf("partition %d repeats node %d", p, id)
			}
			seen[id] = true
			counts[id]++
		}
	}
	for id, n := range counts {
		if n == 0 {
			t.Errorf("node %d hosts no partitions", id)
		}
		if got := len(r.hostedBy(id)); got != n {
			t.Errorf("hostedBy(%d) = %d partitions, replica sets say %d", id, got, n)
		}
	}
}

// The detector must walk a silent node alive → suspect → dead on the
// configured silence thresholds and snap it back to alive on the first
// heartbeat, counting each transition once.
func TestDetectorTransitions(t *testing.T) {
	start := t0
	d := newDetector(2, 30*time.Second, 2*time.Minute, start)

	step := func(at time.Duration, beatNode1 bool) {
		now := start.Add(at)
		d.heartbeat(0, now)
		if beatNode1 {
			d.heartbeat(1, now)
		}
		d.refresh(now)
	}

	step(10*time.Second, true)
	if got := d.statusOf(1); got != StatusAlive {
		t.Fatalf("fresh node: status %v, want alive", got)
	}
	// Node 1 goes silent; below SuspectAfter it stays alive.
	step(35*time.Second, false)
	if got := d.statusOf(1); got != StatusAlive {
		t.Fatalf("25s silent: status %v, want alive", got)
	}
	step(70*time.Second, false)
	if got := d.statusOf(1); got != StatusSuspect {
		t.Fatalf("60s silent: status %v, want suspect", got)
	}
	step(2*time.Minute+20*time.Second, false)
	if got := d.statusOf(1); got != StatusDead {
		t.Fatalf("130s silent: status %v, want dead", got)
	}
	// First heartbeat revives it.
	step(3*time.Minute, true)
	if got := d.statusOf(1); got != StatusAlive {
		t.Fatalf("after heartbeat: status %v, want alive", got)
	}
	su, de, re := d.transitions()
	if su != 1 || de != 1 || re != 1 {
		t.Errorf("transitions = %d suspects, %d deaths, %d revivals; want 1 each", su, de, re)
	}
	// Node 0 heartbeat every step: no transitions attributable to it.
	if got := d.statusOf(0); got != StatusAlive {
		t.Errorf("steady node: status %v, want alive", got)
	}
}

// TestQueueTimeline drives one send queue through a sequence of sends,
// pumps, detector statuses and node crashes, and pins what the queue
// holds and has counted after every step. The cluster-wide hint load must
// equal the backlog whenever the queue is parked and zero otherwise.
func TestQueueTimeline(t *testing.T) {
	const (
		send = iota
		pump
		crash
		restart
	)
	type want struct {
		pending                             int
		parked                              bool
		attempts, retries, hinted, replayed int64
	}
	type step struct {
		do     int
		status Status
		want   want
	}
	for _, tc := range []struct {
		name  string
		steps []step
		// totals once the sequence is over
		delivered, failures, replayFailures, highWater int64
	}{
		{
			// The first send to a crashed node the detector still sees
			// alive is the one attempt: it fails and parks the queue.
			// Later sends join the hints without an attempt, and nothing
			// but the node being seen alive retries them.
			name: "failed-send-parks",
			steps: []step{
				{do: crash},
				{send, StatusAlive, want{pending: 1, parked: true, attempts: 1, hinted: 1}},
				{send, StatusAlive, want{pending: 2, parked: true, attempts: 1, hinted: 2}},
				{pump, StatusSuspect, want{pending: 2, parked: true, attempts: 1, hinted: 2}},
				{pump, StatusDead, want{pending: 2, parked: true, attempts: 1, hinted: 2}},
				{send, StatusDead, want{pending: 3, parked: true, attempts: 1, hinted: 3}},
				{do: restart},
				{pump, StatusAlive, want{attempts: 1, retries: 1, hinted: 3, replayed: 3}},
				{send, StatusAlive, want{attempts: 2, retries: 1, hinted: 3, replayed: 3}},
			},
			delivered: 4, failures: 1, highWater: 3,
		},
		{
			// A replay that finds the node still down leaves the queue
			// parked; the next pump that sees it alive delivers.
			name: "dead-then-alive",
			steps: []step{
				{do: crash},
				{send, StatusSuspect, want{pending: 1, parked: true, attempts: 1, hinted: 1}},
				{pump, StatusDead, want{pending: 1, parked: true, attempts: 1, hinted: 1}},
				{send, StatusDead, want{pending: 2, parked: true, attempts: 1, hinted: 2}},
				{pump, StatusAlive, want{pending: 2, parked: true, attempts: 1, retries: 1, hinted: 2}}, // still down
				{do: restart},
				{send, StatusAlive, want{pending: 3, parked: true, attempts: 1, retries: 1, hinted: 3}},
				{pump, StatusAlive, want{attempts: 1, retries: 2, hinted: 3, replayed: 3}},
			},
			delivered: 3, failures: 1, replayFailures: 1, highWater: 3,
		},
		{
			// A send to a node already declared dead parks the queue
			// without an attempt.
			name: "send-to-dead",
			steps: []step{
				{send, StatusDead, want{pending: 1, parked: true, hinted: 1}},
				{pump, StatusSuspect, want{pending: 1, parked: true, hinted: 1}},
				{pump, StatusAlive, want{retries: 1, hinted: 1, replayed: 1}},
			},
			delivered: 1, highWater: 1,
		},
		{
			// A node declared dead with nothing owed, then alive again:
			// the queue must come out of parking with no replay, and the
			// next send must be an ordinary attempt, not a hint.
			name: "dead-empty-then-alive",
			steps: []step{
				{pump, StatusDead, want{parked: true}},
				{pump, StatusDead, want{parked: true}},
				{pump, StatusAlive, want{}},
				{send, StatusAlive, want{attempts: 1}},
			},
			delivered: 1,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, err := newNode(0, []int{0}, "", realtime.Config{Shards: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer n.close()
			var hints hintLoad
			q := newSendQueue(n, &hints)
			for i, st := range tc.steps {
				switch st.do {
				case send:
					q.send([]routed{routedAt(t, 0, testNames[i%len(testNames)], t0)}, st.status)
				case pump:
					q.pump(st.status)
				case crash:
					n.crash()
					continue
				case restart:
					if err := n.restart(); err != nil {
						t.Fatal(err)
					}
					continue
				}
				s := q.statsSnap()
				got := want{q.pendingLen(), q.parked, s.attempts, s.retries, s.hinted, s.replayed}
				if got != st.want {
					t.Fatalf("step %d: got %+v, want %+v", i, got, st.want)
				}
				load := int64(0)
				if got.parked {
					load = int64(got.pending)
				}
				if hints.pending.Load() != load {
					t.Fatalf("step %d: hint load %d, want %d", i, hints.pending.Load(), load)
				}
			}
			s := q.statsSnap()
			if s.delivered != tc.delivered || s.failures != tc.failures || s.replayFailures != tc.replayFailures ||
				hints.highWater.Load() != tc.highWater {
				t.Errorf("totals: %+v with hint high water %d, want delivered %d, failures %d, replay failures %d, high water %d",
					s, hints.highWater.Load(), tc.delivered, tc.failures, tc.replayFailures, tc.highWater)
			}
		})
	}
}

func TestClusterBasicIngestAndStats(t *testing.T) {
	clk := zk.NewManualClock(t0)
	c := testCluster(t, Config{Nodes: 3, ReplicationFactor: 2, Clock: clk})
	const perName = 50
	for _, name := range testNames {
		for i := 0; i < perName; i++ {
			c.Ingest(ev(name, t0.Add(time.Duration(i)*time.Second), int64(i), "us"))
		}
	}
	c.Tick()
	c.Sync()
	if !c.Drained() {
		t.Fatal("healthy cluster not drained after Tick")
	}
	s := c.Stats()
	wantIngest := int64(len(testNames) * perName)
	if s.Ingested != wantIngest {
		t.Errorf("Ingested = %d, want %d", s.Ingested, wantIngest)
	}
	if want := wantIngest * int64(c.Replication()); s.Delivered != want {
		t.Errorf("Delivered = %d, want %d (R× ingested)", s.Delivered, want)
	}
	if s.Counter.Observed != wantIngest*int64(c.Replication()) {
		t.Errorf("Counter.Observed = %d, want %d", s.Counter.Observed, wantIngest*int64(c.Replication()))
	}
	if s.Hinted != 0 || s.SendFailures != 0 {
		t.Errorf("healthy cluster hinted %d / failed %d deliveries", s.Hinted, s.SendFailures)
	}
}

// A durable R=2 cluster under a random crash/restart schedule must
// converge, after hint replay, to exactly the counts a single reference
// counter holds — the property the whole replication design exists for.
func TestClusterCrashRestartConvergence(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			clk := zk.NewManualClock(t0)
			c := testCluster(t, Config{
				Nodes:             3,
				ReplicationFactor: 2,
				Clock:             clk,
				Dir:               t.TempDir(),
				HeartbeatEvery:    time.Minute,
				SuspectAfter:      150 * time.Second,
				DeadAfter:         300 * time.Second,
				Node:              realtime.Config{Retention: 26 * time.Hour, FsyncEvery: 1},
			})
			ref := realtime.New(realtime.Config{Shards: 2, Retention: 26 * time.Hour})
			defer ref.Close()

			// 60 simulated minutes; each minute a burst of events, a Tick,
			// and maybe a membership fault.
			crashed := make(map[int]bool)
			for min := 0; min < 60; min++ {
				at := t0.Add(time.Duration(min) * time.Minute)
				for i := 0; i < 20; i++ {
					name := testNames[rng.Intn(len(testNames))]
					e := ev(name, at, int64(rng.Intn(1000)), "us")
					c.Ingest(e)
					ref.Ingest(e)
				}
				switch r := rng.Float64(); {
				case r < 0.10:
					id := rng.Intn(c.NumNodes())
					if !crashed[id] && len(crashed) == 0 { // at most one down at a time: R=2 tolerates one
						c.Crash(id)
						crashed[id] = true
					}
				case r < 0.30:
					for id := range crashed {
						if err := c.Restart(id); err != nil {
							t.Fatalf("restart %d: %v", id, err)
						}
						delete(crashed, id)
					}
				}
				clk.Advance(time.Minute)
				c.Tick()
			}
			for id := range crashed {
				if err := c.Restart(id); err != nil {
					t.Fatalf("final restart %d: %v", id, err)
				}
			}
			// Let detection and hint replay settle.
			for i := 0; i < 64 && !c.Drained(); i++ {
				clk.Advance(time.Minute)
				c.Tick()
			}
			if !c.Drained() {
				t.Fatalf("cluster failed to drain; stats %+v", c.Stats())
			}
			c.Sync()
			ref.Sync()

			from, to := t0.Add(-time.Hour), t0.Add(2*time.Hour)
			for _, name := range testNames {
				// Every node must agree with the reference on every partition
				// it hosts — replicas converged, not just one.
				p := c.PartitionOf(name)
				want := ref.PathSum(name, from, to)
				for _, id := range c.ReplicasOf(p) {
					got, err := pathSum(c.Node(id), p, name, from, to)
					if err != nil {
						t.Fatalf("node %d PathSum(%q): %v", id, name, err)
					}
					if got != want {
						t.Errorf("node %d %q = %d, want %d (stats %+v)", id, name, got, want, c.Stats())
					}
				}
			}
		})
	}
}

// pathSum is one hierarchy path's count on a node's partition over
// [from, to), read through Node.SumPaths as the scatter reads it; a path
// no counter counted reads as the ID none holds.
func pathSum(n *Node, p int, path string, from, to time.Time) (int64, error) {
	id, ok := events.PathID(path)
	if !ok {
		id = events.NoParent
	}
	var total [1]int64
	err := n.SumPaths(p, []uint32{id}, from, to, total[:])
	return total[0], err
}
