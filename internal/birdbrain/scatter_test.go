package birdbrain

import (
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"unilog/internal/cluster"
	"unilog/internal/events"
	"unilog/internal/geo"
	"unilog/internal/realtime"
	"unilog/internal/scribe"
	"unilog/internal/workload"
	"unilog/internal/zk"
)

var scatterT0 = time.Date(2012, 8, 21, 14, 0, 0, 0, time.UTC)

func scatterEv(name string, at time.Time, user int64) *events.ClientEvent {
	return &events.ClientEvent{
		Initiator: events.InitiatorClientUser,
		Name:      events.MustParseName(name),
		UserID:    user,
		SessionID: "sess",
		IP:        geo.IPFor("us", user),
		Timestamp: at.UnixMilli(),
	}
}

var scatterNames = []string{
	"web:home:mentions:stream:avatar:profile_click",
	"web:home:timeline:stream:tweet:impression",
	"web:profile:header:card:follow:click",
	"iphone:home:timeline:stream:tweet:impression",
	"iphone:search:results:cell:tweet:open",
	"android:home:timeline:stream:tweet:favorite",
}

// newScatterPair builds a 3-node R=2 cluster and one reference counter,
// both fed the same events: name i of scatterNames 3i+1 times, seven
// minutes apart from an hour before scatterT0, so the newest minute is
// 14:45 and the partitions each hold a few names.
func newScatterPair(t testing.TB) (*cluster.Cluster, *realtime.Counter) {
	c, err := cluster.New(cluster.Config{Nodes: 3, ReplicationFactor: 2, Clock: zk.NewManualClock(scatterT0)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	ref := realtime.New(realtime.Config{Shards: 2})
	t.Cleanup(ref.Close)
	for i, name := range scatterNames {
		for j := 0; j <= i*3; j++ {
			e := scatterEv(name, scatterT0.Add(-time.Hour+time.Duration(7*j)*time.Minute), int64(j))
			c.Ingest(e)
			ref.Ingest(e)
		}
	}
	c.Tick()
	ref.Sync()
	return c, ref
}

// scatterWindows are the windows every verb is checked over, around the
// newest minute (14:45): whole hours, an end mid-hour before it, mid-minute,
// past it within its hour, at its hour's end, far in the future, and none.
var scatterWindows = []struct {
	name     string
	from, to time.Time
}{
	{"hour-aligned", scatterT0.Add(-time.Hour), scatterT0},
	{"mid-hour end", scatterT0.Add(-time.Hour), scatterT0.Add(20 * time.Minute)},
	{"mid-minute end", scatterT0.Add(-30 * time.Minute), scatterT0.Add(20*time.Minute + 30*time.Second)},
	{"past the newest minute", scatterT0.Add(-30 * time.Minute), scatterT0.Add(50 * time.Minute)},
	{"the newest hour's end", scatterT0.Add(-time.Hour), scatterT0.Add(time.Hour)},
	{"far future", scatterT0.Add(-2 * time.Hour), scatterT0.Add(48 * time.Hour)},
	{"empty", scatterT0, scatterT0},
}

// Paths and parents the verbs are asked about: every level, a parent whose
// children live on a few of the 16 partitions, and a path no name lies
// under (still fanned out, so its meta is every other query's).
var (
	scatterPaths   = append([]string{"web", "iphone", "android", "web:home", "web:nowhere", ""}, scatterNames...)
	scatterParents = []string{"", "web", "iphone", "web:home", "android:home:timeline", "web:nowhere"}
)

// checkScatter holds every verb of s to the reference counter over every
// window, and each answer's meta to ok.
func checkScatter(t *testing.T, s *Scatter, ref *realtime.Counter, ok func(QueryMeta) bool) {
	t.Helper()
	for _, w := range scatterWindows {
		for _, path := range scatterPaths {
			got, meta := s.PathSum(path, w.from, w.to)
			if want := ref.PathSum(path, w.from, w.to); got != want || !ok(meta) {
				t.Errorf("%s: PathSum(%q) = %d (meta %+v), want %d", w.name, path, got, meta, want)
			}
			gotSeries, meta := s.Series(path, w.from, w.to)
			if want := ref.Series(path, w.from, w.to); !reflect.DeepEqual(gotSeries, want) || !ok(meta) {
				t.Errorf("%s: Series(%q) = %v (meta %+v), want %v", w.name, path, gotSeries, meta, want)
			}
		}
		for _, parent := range scatterParents {
			for _, k := range []int{0, 2, 3, 100} {
				got, meta := s.TopK(parent, k, w.from, w.to)
				if want := ref.TopK(parent, k, w.from, w.to); !reflect.DeepEqual(got, want) || !ok(meta) {
					t.Errorf("%s: TopK(%q, %d) = %v (meta %+v), want %v", w.name, parent, k, got, meta, want)
				}
			}
		}
	}
}

// A scatter over a healthy cluster must agree exactly with a single
// reference counter on every verb, with clean meta; hedged against a slow
// replica, it must still agree, from a full fan.
func TestScatterMatchesReference(t *testing.T) {
	c, ref := newScatterPair(t)
	s := NewScatter(c)
	clean := QueryMeta{Partitions: c.Partitions(), Answered: c.Partitions()}

	// web:home (1 + 4 events) ties web:search (5), so the tie order of
	// every cut through "web"'s children is pinned to the reference's.
	for j := 0; j < 5; j++ {
		e := scatterEv("web:search:results:stream:tweet:impression", scatterT0, int64(j))
		c.Ingest(e)
		ref.Ingest(e)
	}
	c.Tick()
	ref.Sync()
	if all := ref.TopK("web", 3, scatterT0.Add(-time.Hour), scatterT0.Add(time.Hour)); len(all) != 3 || all[1].Count != all[2].Count {
		t.Fatalf("reference TopK(web) = %v, want a tie in second place", all)
	}

	t.Run("sequential", func(t *testing.T) {
		checkScatter(t, s, ref, func(m QueryMeta) bool { return m == clean })
	})
	// A replica that leads a partition answers late: each of its partitions
	// is raced by the sibling replica, and every answer is still exact. The
	// race detector watches the hedged attempts' vectors.
	t.Run("hedged", func(t *testing.T) {
		hedged := &Scatter{c: c, ReplicaTimeout: time.Millisecond}
		slow := c.Node(c.ReplicasOf(0)[0])
		slow.SetQueryDelay(5 * time.Millisecond)
		defer slow.SetQueryDelay(0)
		checkScatter(t, hedged, ref, func(m QueryMeta) bool {
			return m.Answered == m.Partitions && m.Partitions == clean.Partitions && !m.Partial
		})
	})
}

// One dashboard refresh through the scatter — PathSum over an hour and a
// day, TopK of the root and of each client, Series over the hour — on a
// small 3-node R=2 cluster allocates at most a third of what it did when
// every partition answered TopK with a sorted, string-keyed list merged
// through a map and Series with a slice of its own (98 objects).
func TestScatterRefreshAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("a -race build allocates more than the bound, measured without it, allows")
	}
	c, _ := newScatterPair(t)
	s := NewScatter(c)
	from, to := scatterT0.Add(-time.Hour), scatterT0.Add(23*time.Hour)
	refresh := func() {
		s.PathSum("web:home", scatterT0, scatterT0.Add(time.Hour))
		s.PathSum("web:home", from, to)
		for _, p := range []string{"", "web", "iphone", "android"} {
			s.TopK(p, 5, from, to)
		}
		s.Series("web:home", scatterT0, scatterT0.Add(time.Hour))
	}
	refresh()
	const parent = 98
	if avg := testing.AllocsPerRun(50, refresh); avg > parent/3 {
		t.Fatalf("a scatter refresh allocates %.1f objects, want at most %d (a third of %d)", avg, parent/3, parent)
	}
}

// With one node of an R=2 cluster down, every partition still has a
// live replica: queries stay exact but must be marked degraded. With
// two of three down, partitions whose whole replica set is dead drop
// out: the result must be marked partial.
func TestScatterDegradedAndPartial(t *testing.T) {
	clk := zk.NewManualClock(scatterT0)
	c, err := cluster.New(cluster.Config{Nodes: 3, ReplicationFactor: 2, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ref := realtime.New(realtime.Config{Shards: 2})
	defer ref.Close()

	for _, name := range scatterNames {
		for j := 0; j < 40; j++ {
			e := scatterEv(name, scatterT0, int64(j))
			c.Ingest(e)
			ref.Ingest(e)
		}
	}
	c.Tick()
	ref.Sync()
	s := NewScatter(c)
	from, to := scatterT0, scatterT0.Add(time.Hour)

	c.Crash(1)
	got, meta := s.PathSum("web", from, to)
	if want := ref.PathSum("web", from, to); got != want {
		t.Errorf("one node down: PathSum(web) = %d, want %d", got, want)
	}
	if !meta.Degraded || meta.Partial {
		t.Errorf("one node down: meta = %+v, want degraded, not partial", meta)
	}
	if meta.Failovers == 0 {
		t.Errorf("one node down: no failovers recorded in %+v", meta)
	}

	c.Crash(2)
	_, meta = s.PathSum("web", from, to)
	if !meta.Partial || !meta.Degraded {
		t.Errorf("two nodes down: meta = %+v, want partial+degraded", meta)
	}
	if meta.Answered == 0 {
		t.Errorf("two nodes down: nothing answered, node 0's partitions should still serve")
	}

	// Both back: clean again (memory nodes restart empty, but the fan
	// itself must report a full healthy merge).
	if err := c.Restart(1); err != nil {
		t.Fatal(err)
	}
	if err := c.Restart(2); err != nil {
		t.Fatal(err)
	}
	_, meta = s.PathSum("web", from, to)
	if meta.Degraded || meta.Partial {
		t.Errorf("after restart: meta = %+v, want clean", meta)
	}
}

// A slow-but-alive node must cost one ReplicaTimeout, not the whole
// query: the hedge races the sibling replica, the first answer wins,
// and the result is still exact. Without hedging the stall would be
// paid in full by every partition the node leads.
func TestScatterHedgesSlowReplica(t *testing.T) {
	clk := zk.NewManualClock(scatterT0)
	c, err := cluster.New(cluster.Config{Nodes: 3, ReplicationFactor: 2, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ref := realtime.New(realtime.Config{Shards: 2})
	defer ref.Close()

	for _, name := range scatterNames {
		for j := 0; j < 25; j++ {
			e := scatterEv(name, scatterT0, int64(j))
			c.Ingest(e)
			ref.Ingest(e)
		}
	}
	c.Tick()
	ref.Sync()
	from, to := scatterT0, scatterT0.Add(time.Hour)

	// Wedge a node that leads at least one partition, so the primary-first
	// fan is guaranteed to hit the stall.
	const stall = 300 * time.Millisecond
	slow := c.ReplicasOf(0)[0]
	c.Node(slow).SetQueryDelay(stall)
	defer c.Node(slow).SetQueryDelay(0)

	s := NewScatter(c)
	s.ReplicaTimeout = 5 * time.Millisecond
	hedges0 := tmScatterHedges.Value()

	start := time.Now()
	got, meta := s.PathSum("web", from, to)
	elapsed := time.Since(start)

	if want := ref.PathSum("web", from, to); got != want {
		t.Errorf("hedged PathSum(web) = %d, want %d", got, want)
	}
	if meta.Answered != meta.Partitions || meta.Partial {
		t.Errorf("hedged meta = %+v, want full non-partial fan", meta)
	}
	// The stalled primary loses the race on its partitions: the sibling's
	// answer arrives first, which reads as a failover/degraded query.
	if meta.Failovers == 0 || !meta.Degraded {
		t.Errorf("hedged meta = %+v, want failovers from hedge wins", meta)
	}
	if d := tmScatterHedges.Value() - hedges0; d == 0 {
		t.Error("no hedges launched against the stalled node")
	}
	if elapsed >= stall {
		t.Errorf("hedged query took %v, want well under the %v stall", elapsed, stall)
	}

	// With the stall lifted the same scatter answers clean again.
	c.Node(slow).SetQueryDelay(0)
	got, meta = s.PathSum("web", from, to)
	if want := ref.PathSum("web", from, to); got != want {
		t.Errorf("post-stall PathSum(web) = %d, want %d", got, want)
	}
	if meta.Partial || meta.Answered != meta.Partitions {
		t.Errorf("post-stall meta = %+v, want full fan", meta)
	}
}

// A scatter read looping beside a writer reads what the cluster was fed:
// each PathSum, behind its Cluster.Sync, counts at least the batches tapped
// before it began and at most those begun by the time it returned, and the
// exact total at the end.
func TestScatterSyncReadsWhatWasTapped(t *testing.T) {
	c, err := cluster.New(cluster.Config{Nodes: 3, ReplicationFactor: 2, Clock: zk.NewManualClock(scatterT0)})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	batch := make([]scribe.Entry, 60)
	for i := range batch {
		e := scatterEv(scatterNames[i%len(scatterNames)], scatterT0.Add(time.Duration(i)*time.Second), int64(i))
		batch[i] = scribe.Entry{Category: events.Category, Message: e.Marshal()}
	}
	const batches, per = 200, 30 // half of scatterNames are web's
	var started, fed atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < batches; i++ {
			started.Add(per)
			c.TapBatch(batch)
			fed.Add(per)
		}
	}()
	s := NewScatter(c)
	from, to := scatterT0, scatterT0.Add(time.Hour)
	for reads := 0; fed.Load() < batches*per; reads++ {
		lo := fed.Load()
		got, meta := s.PathSum("web", from, to)
		if hi := started.Load(); got < lo || got > hi || meta.Degraded {
			t.Fatalf("read %d = %d (meta %+v), want within [%d, %d] from a clean fan", reads, got, meta, lo, hi)
		}
	}
	wg.Wait()
	if got, _ := s.PathSum("web", from, to); got != batches*per {
		t.Fatalf("final PathSum(web) = %d, want %d", got, batches*per)
	}
}

// BenchmarkScatterRefresh is the benchmark dashboard's refresh through the
// scatter-gather layer: an in-memory 3-node, R = 2, 16-partition cluster
// holding the workload generator's default day, read with a path's PathSum
// over an hour and over the day, TopK of the root and of each of the five
// clients over the day, and the path's Series over the hour — nine
// queries, each behind its own Cluster.Sync. It reports the refresh's ns
// and allocations.
func BenchmarkScatterRefresh(b *testing.B) {
	c, err := cluster.New(cluster.Config{
		Nodes: 3, ReplicationFactor: 2, Partitions: 16, Clock: zk.NewManualClock(day),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	evs, _ := workload.New(workload.DefaultConfig(day)).Generate()
	batch := make([]scribe.Entry, 0, 500)
	for i := range evs {
		batch = append(batch, scribe.Entry{Category: events.Category, Message: evs[i].Marshal()})
		if len(batch) == cap(batch) || i == len(evs)-1 {
			c.TapBatch(batch)
			batch = batch[:0]
		}
	}
	c.Tick()
	c.Sync()
	s := NewScatter(c)
	from, to := day, day.Add(24*time.Hour)
	hourFrom, hourTo := day.Add(14*time.Hour), day.Add(15*time.Hour)
	parents := []string{""}
	top, _ := s.TopK("", 5, from, to)
	for _, pc := range top {
		parents = append(parents, pc.Path)
	}
	if len(parents) != 6 {
		b.Fatalf("the generated day has clients %v, want five", parents[1:])
	}
	const path = "web:home"
	if n, meta := s.PathSum(path, from, to); n == 0 || meta.Degraded {
		b.Fatalf("PathSum(%q) over the day = %d (meta %+v), want a clean nonzero answer", path, n, meta)
	}
	refresh := func() {
		s.PathSum(path, hourFrom, hourTo)
		s.PathSum(path, from, to)
		for _, p := range parents {
			s.TopK(p, 5, from, to)
		}
		s.Series(path, hourFrom, hourTo)
	}
	refresh()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		refresh()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/refresh")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N), "allocs/refresh")
}

// FuzzScatterMatchesCounter holds the scatter's PathSum, TopK and Series on
// a 3-node, R = 2 cluster to one reference counter fed the same events, over
// writes and windows the input decodes. Each partition has its own newest
// minute, so each clamps a window, and takes its trailing hour whole, at
// its own; the writes span 150 minutes of a three-hour retention, so no
// counter drops one and the sum of the partitions is the reference's.
func FuzzScatterMatchesCounter(f *testing.F) {
	f.Add([]byte{0, 0, 10, 2, 4, 70, 4, 1, 115, 1, 0, 60, 110, 0, 3, 50, 0, 120, 30, 1, 5, 60, 55, 0})
	f.Add([]byte{0, 5, 100, 0, 3, 45, 2, 2, 99, 7, 30, 200, 7, 2, 9, 0, 1, 250, 0, 0})
	names := append([]string{"web:search:results:stream:tweet:impression"}, scatterNames...)
	m0 := scatterT0.Add(-time.Hour)
	f.Fuzz(func(t *testing.T, data []byte) {
		take := func() int { // the next byte; 0 past the end
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		cfg := realtime.Config{Retention: 3 * time.Hour}
		c, err := cluster.New(cluster.Config{Nodes: 3, ReplicationFactor: 2, Partitions: 8, Node: cfg, Clock: zk.NewManualClock(scatterT0)})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		cfg.Shards = 2
		ref := realtime.New(cfg)
		defer ref.Close()
		s := NewScatter(c)
		for len(data) > 0 {
			op := take()
			if op%2 == 0 {
				name, minute := names[take()%len(names)], take()%150
				e := scatterEv(name, m0.Add(time.Duration(minute)*time.Minute), int64(op))
				c.Ingest(e)
				ref.Ingest(e)
				continue
			}
			a := take() - 60
			from := m0.Add(time.Duration(a) * time.Minute)
			to := from.Add(time.Duration(take()+op/2%2*120)*time.Minute + time.Duration(take()%60)*time.Second)
			path, parent, k := scatterPaths[take()%len(scatterPaths)], scatterParents[op/4%len(scatterParents)], op/32
			c.Tick()
			ref.Sync()
			if got, _ := s.PathSum(path, from, to); got != ref.PathSum(path, from, to) {
				t.Fatalf("PathSum(%q, %v, %v) = %d, want %d", path, from, to, got, ref.PathSum(path, from, to))
			}
			if got, _ := s.TopK(parent, k, from, to); !reflect.DeepEqual(got, ref.TopK(parent, k, from, to)) {
				t.Fatalf("TopK(%q, %d, %v, %v) = %v, want %v", parent, k, from, to, got, ref.TopK(parent, k, from, to))
			}
			if got, _ := s.Series(path, from, to); !reflect.DeepEqual(got, ref.Series(path, from, to)) {
				t.Fatalf("Series(%q, %v, %v) = %v, want %v", path, from, to, got, ref.Series(path, from, to))
			}
		}
	})
}
