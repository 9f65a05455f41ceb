package cluster

import (
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"unilog/internal/events"
	"unilog/internal/geo"
	"unilog/internal/realtime"
	"unilog/internal/scribe"
	"unilog/internal/thrift"
	"unilog/internal/workload"
	"unilog/internal/zk"
)

// tapEntries is n client_events entries cycling over testNames, stamped
// one second apart from t0.
func tapEntries(n int) []scribe.Entry {
	out := make([]scribe.Entry, n)
	for i := range out {
		e := ev(testNames[i%len(testNames)], t0.Add(time.Duration(i)*time.Second), int64(i%3), "jp")
		e.Details = map[string]string{"rank": "3", "profile_id": "12345"}
		out[i] = scribe.Entry{Category: events.Category, Message: e.Marshal()}
	}
	return out
}

// deliver documents "the whole batch or none of it". A batch naming one
// partition the node does not host is a routing bug; it must be refused
// before any of it is applied, because the send queue keeps the whole
// backlog and offers it again.
func TestDeliverForeignPartitionAppliesNothing(t *testing.T) {
	n, err := newNode(0, []int{0, 1}, "", realtime.Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer n.close()
	at := func(p int) routed { return routedAt(t, p, testNames[0], t0) }
	batch := []routed{at(0), at(1), at(5), at(0)}
	for attempt := 0; attempt < 2; attempt++ {
		if err := n.deliver(batch); !errors.Is(err, ErrNotReplica) {
			t.Fatalf("deliver with a foreign partition = %v, want ErrNotReplica", err)
		}
	}
	n.sync()
	for p, c := range n.counters {
		if got := c.Stats().Observed; got != 0 {
			t.Errorf("partition %d counter observed %d events of a refused batch", p, got)
		}
	}
	if err := n.deliver(append(batch[:2:2], batch[3])); err != nil {
		t.Fatalf("deliver of the hosted events: %v", err)
	}
	n.sync()
	if got := n.counterStats().Observed; got != 3 {
		t.Errorf("Observed = %d after delivering the 3 hosted events, want 3", got)
	}
}

// One tapped batch must cost each partition counter it reaches at most
// one WAL record per shard, not one per event: the property the cluster's
// write cost and WAL size rest on.
func TestTapBatchAppendsOneWALRecordPerPartition(t *testing.T) {
	c := testCluster(t, Config{
		Nodes: 3, ReplicationFactor: 2, Clock: zk.NewManualClock(t0),
		Dir: t.TempDir(), Node: realtime.Config{SnapshotEvery: time.Hour},
	})
	const n = 500
	c.TapBatch(tapEntries(n))
	c.Sync()
	st := c.Stats()
	if st.Ingested != n || st.Delivered != n*2 || st.Counter.Observed != n*2 {
		t.Fatalf("stats = %+v, want %d ingested, each delivered to and observed on 2 replicas", st, n)
	}
	bound := int64(0)
	for id := 0; id < len(c.nodes); id++ {
		bound += int64(len(c.ring.hostedBy(id)) * c.cfg.Node.Shards)
	}
	if got := st.Counter.WALBatches; got == 0 || got > bound {
		t.Errorf("%d events × 2 replicas appended %d WAL records, want 1..%d (hosted partitions × shards)", n, got, bound)
	}
}

// Many aggregators tap one cluster. Taps racing to number the same
// first-seen names in the name table must route every event to both
// replicas exactly once.
func TestConcurrentTapsRouteEveryEventOnce(t *testing.T) {
	c := testCluster(t, Config{Nodes: 3, ReplicationFactor: 2, Clock: zk.NewManualClock(t0)})
	batch := tapEntries(2000)
	const taps = 4
	var wg sync.WaitGroup
	for g := 0; g < taps; g++ {
		wg.Add(1)
		go func(part []scribe.Entry) {
			defer wg.Done()
			c.TapBatch(part)
		}(batch[g*len(batch)/taps : (g+1)*len(batch)/taps])
	}
	wg.Wait()
	c.Sync()
	n := int64(len(batch))
	if st := c.Stats(); st.Ingested != n || st.Delivered != 2*n || st.Counter.Observed != 2*n || st.DecodeErrors != 0 {
		t.Fatalf("stats = %+v, want %d ingested, each delivered to and observed on 2 replicas", st, n)
	}
	from, to := t0.Add(-time.Hour), t0.Add(time.Hour)
	for _, name := range testNames {
		p := partitionOf(c, name)
		for _, id := range c.ReplicasOf(p) {
			if got, err := pathSum(c.Node(id), p, name, from, to); err != nil || got != n/int64(len(testNames)) {
				t.Errorf("node %d PathSum(%q) = %d (%v), want %d", id, name, got, err, n/int64(len(testNames)))
			}
		}
	}
}

// The router partitions by the name table's hash, partitionOf by hashing the
// rendered string. Over the generated day's namespace the two agree: each
// name's events land in partitionOf(name)'s replicas and nowhere else.
func TestRouterPartitionIsPartitionOf(t *testing.T) {
	evs, _ := workload.New(workload.DefaultConfig(t0)).Generate()
	c := testCluster(t, Config{Nodes: 3, ReplicationFactor: 2, Clock: zk.NewManualClock(t0)})
	seen := map[string]bool{}
	var batch []scribe.Entry
	for i := range evs {
		if name := evs[i].Name.String(); !seen[name] {
			seen[name] = true
			batch = append(batch, scribe.Entry{Category: events.Category, Message: evs[i].Marshal()})
		}
	}
	c.TapBatch(batch)
	c.Sync()
	from, to := t0.Add(-24*time.Hour), t0.Add(24*time.Hour)
	for name := range seen {
		want := partitionOf(c, name)
		for p := 0; p < c.Partitions(); p++ {
			for _, id := range c.ReplicasOf(p) {
				got, err := pathSum(c.Node(id), p, name, from, to)
				if err != nil {
					t.Fatal(err)
				}
				if (got == 1) != (p == want) || got > 1 {
					t.Errorf("%q: node %d partition %d counted %d; partitionOf says %d", name, id, p, got, want)
				}
			}
		}
	}
}

// rawEvent encodes a client event by hand, so a test can say what the
// typed encoder cannot: any string as the name, a field of a later schema.
func rawEvent(name string, timestamp int64, unknownField bool) []byte {
	enc := thrift.NewCompactEncoder()
	enc.WriteStructBegin()
	enc.WriteFieldBegin(thrift.BYTE, 1)
	enc.WriteI8(int8(events.InitiatorClientUser))
	enc.WriteFieldBegin(thrift.STRING, 2)
	enc.WriteString(name)
	enc.WriteFieldBegin(thrift.I64, 3)
	enc.WriteI64(7)
	enc.WriteFieldBegin(thrift.STRING, 4)
	enc.WriteString("sess")
	enc.WriteFieldBegin(thrift.STRING, 5)
	enc.WriteString("10.1.2.3")
	enc.WriteFieldBegin(thrift.I64, 6)
	enc.WriteI64(timestamp)
	if unknownField {
		enc.WriteFieldBegin(thrift.LIST, 9)
		enc.WriteListBegin(thrift.I32, 2)
		enc.WriteI32(1)
		enc.WriteI32(2)
	}
	enc.WriteFieldStop()
	enc.WriteStructEnd()
	return append([]byte(nil), enc.Bytes()...)
}

// Both taps — a single counter's and the cluster router's — must sort a
// message that is not a countable event into the same counter they always
// have: refused by the decoder or by name validation is a decode error and
// nothing else, a good name with a timestamp before Unix minute 1 is
// routed and then invalid at each counter, a field from a later schema is
// skipped, another category is not the tap's business.
func TestTapsClassifyMessages(t *testing.T) {
	const good = "web:home:timeline:stream:tweet:impression"
	at := t0.UnixMilli()
	whole := rawEvent(good, at, false)
	type tally struct{ tapped, decodeErrs, invalid, observed int64 }
	for _, tc := range []struct {
		name  string
		entry scribe.Entry
		want  tally
	}{
		{"well-formed", scribe.Entry{Category: events.Category, Message: whole}, tally{tapped: 1, observed: 1}},
		{"truncated message", scribe.Entry{Category: events.Category, Message: whole[:len(whole)-5]}, tally{tapped: 1, decodeErrs: 1}},
		{"five-component name", scribe.Entry{Category: events.Category, Message: rawEvent("web:home:timeline:stream:impression", at, false)}, tally{tapped: 1, decodeErrs: 1}},
		{"bad character in a component", scribe.Entry{Category: events.Category, Message: rawEvent("web:Home:timeline:stream:tweet:impression", at, false)}, tally{tapped: 1, decodeErrs: 1}},
		{"timestamp 0", scribe.Entry{Category: events.Category, Message: rawEvent(good, 0, false)}, tally{tapped: 1, invalid: 1}},
		{"unknown extra field", scribe.Entry{Category: events.Category, Message: rawEvent(good, at, true)}, tally{tapped: 1, observed: 1}},
		{"foreign category", scribe.Entry{Category: "search_events", Message: whole}, tally{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Twice: the second pass finds the names already interned.
			batch := []scribe.Entry{tc.entry, tc.entry}
			want := tally{2 * tc.want.tapped, 2 * tc.want.decodeErrs, 2 * tc.want.invalid, 2 * tc.want.observed}

			rt := realtime.New(realtime.Config{Shards: 2})
			defer rt.Close()
			rt.TapBatch(batch)
			rt.Sync()
			st := rt.Stats()
			if got := (tally{st.TapEntries, st.DecodeErrors, st.Invalid, st.Observed}); got != want {
				t.Errorf("realtime tap: %+v, want %+v", got, want)
			}

			// The cluster counts a decode error at the router and routes
			// everything else to R = 2 replicas, whose counters judge it.
			c := testCluster(t, Config{Nodes: 3, ReplicationFactor: 2, Clock: zk.NewManualClock(t0)})
			c.TapBatch(batch)
			c.Sync()
			cs := c.Stats()
			routed := want.invalid + want.observed
			if cs.DecodeErrors != want.decodeErrs || cs.Ingested != routed || cs.Delivered != 2*routed ||
				cs.Counter.Invalid != 2*want.invalid || cs.Counter.Observed != 2*want.observed || cs.Counter.DecodeErrors != 0 {
				t.Errorf("cluster tap: %+v, want %d decode errors, %d ingested, each invalid or observed on 2 replicas (%+v)",
					cs, want.decodeErrs, routed, want)
			}
		})
	}
}

// Ingest and TapBatch are two doors into one router: the same event,
// decoded or still a Scribe message, must leave identical Stats behind —
// a name events.ParseName rejects is a decode error routed nowhere, not
// an event every replica counts invalid, and an address geo cannot resolve
// is counted like any other.
func TestIngestMatchesTapBatch(t *testing.T) {
	good := ev(testNames[0], t0, 7, "us")
	stray := ev(testNames[0], t0, 7, geo.Unknown)
	badName := ev(testNames[0], t0, 7, "us")
	badName.Name = events.EventName{Client: "web", Page: "Home", Action: "click"}
	epoch := ev(testNames[0], time.Unix(0, 0), 7, "us")
	for _, tc := range []struct {
		name string
		e    *events.ClientEvent
	}{
		{"well-formed", good},
		{"unresolvable address", stray},
		{"bad character in a component", badName},
		{"timestamp 0", epoch},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ingest := testCluster(t, Config{Nodes: 3, ReplicationFactor: 2, Clock: zk.NewManualClock(t0)})
			tap := testCluster(t, Config{Nodes: 3, ReplicationFactor: 2, Clock: zk.NewManualClock(t0)})
			// Twice: the second pass finds the name already interned.
			for i := 0; i < 2; i++ {
				ingest.Ingest(tc.e)
				tap.TapBatch([]scribe.Entry{{Category: events.Category, Message: tc.e.Marshal()}})
			}
			ingest.Sync()
			tap.Sync()
			if is, ts := ingest.Stats(), tap.Stats(); is != ts {
				t.Errorf("Ingest stats %+v\nTapBatch stats %+v", is, ts)
			}
		})
	}
}

// A routed event is what every send queue holds per replica, hints
// included: it must stay 16 bytes with nothing in it for the GC to follow.
func TestRoutedIsSixteenPointerFreeBytes(t *testing.T) {
	if got := unsafe.Sizeof(routed{}); got != 16 {
		t.Errorf("routed is %d bytes, want 16", got)
	}
	var holdsPointers func(reflect.Type) bool
	holdsPointers = func(typ reflect.Type) bool {
		switch typ.Kind() {
		case reflect.Array:
			return holdsPointers(typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				if holdsPointers(typ.Field(i).Type) {
					return true
				}
			}
			return false
		case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Slice, reflect.String,
			reflect.Interface, reflect.Chan, reflect.Func:
			return true
		}
		return false
	}
	if holdsPointers(reflect.TypeOf(routed{})) {
		t.Errorf("routed holds a pointer: %+v", reflect.TypeOf(routed{}))
	}
}

// A routed event names its partition in 16 bits, so New refuses a ring with
// more partitions than that can name.
func TestNewRefusesPartitionsPastSixteenBits(t *testing.T) {
	c, err := New(Config{Partitions: 1<<16 + 1, Clock: zk.NewManualClock(t0)})
	if err == nil {
		c.Close()
		t.Fatal("New accepted 1<<16 + 1 partitions")
	}
}

// TestTapBatchAllocatesLittlePerEvent bounds what the whole write path — the
// router, the send queues and the replicas' deliveries into memory-only
// counters — allocates per tapped event once names and countries are
// numbered. Measured on this test's cluster: 309-318 B/event when each
// routed event was a 56-byte record holding a realtime.Observation, copied
// again into the send queue and delivered through a map of Batchers, and
// ~70 B/event with the 16-byte record the queue adopts; the bound, 103, is
// a third of the former.
func TestTapBatchAllocatesLittlePerEvent(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops recycled batches at random")
	}
	c := testCluster(t, Config{Nodes: 3, ReplicationFactor: 2, Clock: zk.NewManualClock(t0)})
	batch := tapEntries(500)
	c.TapBatch(batch)
	c.Sync()
	const taps = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < taps; i++ {
		c.TapBatch(batch)
		c.Sync()
	}
	runtime.ReadMemStats(&after)
	perEvent := float64(after.TotalAlloc-before.TotalAlloc) / float64(taps*len(batch))
	if perEvent > 103 {
		t.Fatalf("tapping allocates %.1f B/event, want at most 103", perEvent)
	}
	if st := c.Stats(); st.Delivered != 2*(taps+1)*int64(len(batch)) {
		t.Fatalf("stats = %+v, want every event delivered to 2 replicas", st)
	}
}

func BenchmarkClusterTapBatch(b *testing.B) {
	c, err := New(Config{
		Nodes: 3, ReplicationFactor: 2, Clock: zk.NewManualClock(t0),
		Dir: b.TempDir(), Node: realtime.Config{SnapshotEvery: time.Hour},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	batch := tapEntries(500)
	c.TapBatch(batch)
	c.Sync()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.TapBatch(batch)
	}
	c.Sync()
	b.ReportMetric(float64(len(batch)), "events/op")
}
