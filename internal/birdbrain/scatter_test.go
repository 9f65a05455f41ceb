package birdbrain

import (
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

// A scatter over a healthy cluster must agree exactly with a single
// reference counter on every verb, with clean meta.
func TestScatterMatchesReference(t *testing.T) {
	clk := zk.NewManualClock(scatterT0)
	c, err := cluster.New(cluster.Config{Nodes: 3, ReplicationFactor: 2, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ref := realtime.New(realtime.Config{Shards: 2})
	defer ref.Close()

	for i, name := range scatterNames {
		for j := 0; j <= i*3; j++ {
			e := scatterEv(name, scatterT0.Add(time.Duration(j)*time.Minute), int64(j))
			c.Ingest(e)
			ref.Ingest(e)
		}
	}
	c.Tick()
	ref.Sync()
	s := NewScatter(c)
	from, to := scatterT0, scatterT0.Add(time.Hour)

	for _, path := range append([]string{"web", "iphone", "android", "web:home"}, scatterNames...) {
		got, meta := s.PathSum(path, from, to)
		if want := ref.PathSum(path, from, to); got != want {
			t.Errorf("PathSum(%q) = %d, want %d", path, got, want)
		}
		if meta.Degraded || meta.Partial || meta.Answered != meta.Partitions {
			t.Errorf("PathSum(%q) meta = %+v, want clean full fan", path, meta)
		}
	}

	gotSeries, _ := s.Series("web", from, to)
	wantSeries := ref.Series("web", from, to)
	if len(gotSeries) != len(wantSeries) {
		t.Fatalf("Series length %d, want %d", len(gotSeries), len(wantSeries))
	}
	for i := range wantSeries {
		if gotSeries[i] != wantSeries[i] {
			t.Errorf("Series[%d] = %d, want %d", i, gotSeries[i], wantSeries[i])
		}
	}

	// web:home (1 + 4 events) ties web:search (5), so the tie order of
	// every cut through "web"'s children is pinned to the reference's.
	for j := 0; j < 5; j++ {
		e := scatterEv("web:search:results:stream:tweet:impression", scatterT0, int64(j))
		c.Ingest(e)
		ref.Ingest(e)
	}
	c.Tick()
	ref.Sync()
	if all := ref.TopK("web", 3, from, to); len(all) != 3 || all[1].Count != all[2].Count {
		t.Fatalf("reference TopK(web) = %v, want a tie in second place", all)
	}
	for _, q := range []struct {
		parent string
		k      int
	}{{"", 3}, {"web", 3}, {"web", 2}} {
		gotTop, _ := s.TopK(q.parent, q.k, from, to)
		wantTop := ref.TopK(q.parent, q.k, from, to)
		if len(gotTop) != len(wantTop) {
			t.Fatalf("TopK(%q, %d) = %v, want %v", q.parent, q.k, gotTop, wantTop)
		}
		for i := range wantTop {
			if gotTop[i] != wantTop[i] {
				t.Errorf("TopK(%q, %d)[%d] = %v, want %v", q.parent, q.k, i, gotTop[i], wantTop[i])
			}
		}
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
