package scribe

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"unilog/internal/hdfs"
	"unilog/internal/recordio"
	"unilog/internal/warehouse"
	"unilog/internal/zk"
)

var t0 = time.Date(2012, 8, 21, 14, 0, 0, 0, time.UTC)

func newDC(t *testing.T, nAggs, nDaemons int) (*Datacenter, *zk.ManualClock) {
	t.Helper()
	clock := zk.NewManualClock(t0)
	dc, err := NewDatacenter("dc1", hdfs.New(0), clock, nAggs, nDaemons, 42)
	if err != nil {
		t.Fatal(err)
	}
	return dc, clock
}

// stagingMessages decodes every staged message of a category-hour.
func stagingMessages(t *testing.T, fs *hdfs.FS, category string, hour time.Time) []string {
	t.Helper()
	dir := warehouse.StagingHourDir(category, hour)
	infos, err := fs.Walk(dir)
	if errors.Is(err, hdfs.ErrNotFound) {
		return nil
	}
	if err != nil {
		t.Fatal(err)
	}
	var msgs []string
	for _, fi := range infos {
		if fi.Path == dir+"/"+warehouse.SealedMarker {
			continue
		}
		data, err := fs.ReadFile(fi.Path)
		if err != nil {
			t.Fatal(err)
		}
		if err := recordio.ScanGzipFile(data, func(rec []byte) error {
			msgs = append(msgs, string(rec))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	return msgs
}

func TestDeliveryEndToEnd(t *testing.T) {
	dc, _ := newDC(t, 2, 3)
	const perDaemon = 50
	for i, d := range dc.Daemons {
		for j := 0; j < perDaemon; j++ {
			d.Log("client_events", []byte(fmt.Sprintf("msg-%d-%d", i, j)))
		}
	}
	if err := dc.FlushAll(); err != nil {
		t.Fatal(err)
	}
	msgs := stagingMessages(t, dc.Staging, "client_events", t0)
	if len(msgs) != 3*perDaemon {
		t.Fatalf("staged %d messages, want %d", len(msgs), 3*perDaemon)
	}
	seen := make(map[string]bool)
	for _, m := range msgs {
		if seen[m] {
			t.Fatalf("duplicate message %q", m)
		}
		seen[m] = true
	}
	for _, d := range dc.Daemons {
		s := d.Stats()
		if s.Delivered != perDaemon || s.Spooled != 0 {
			t.Fatalf("daemon %s stats = %+v", d.Host, s)
		}
	}
}

func TestPerCategoryStreams(t *testing.T) {
	dc, _ := newDC(t, 1, 1)
	d := dc.Daemons[0]
	d.Log("client_events", []byte("a"))
	d.Log("search_logs", []byte("b"))
	d.Log("client_events", []byte("c"))
	if err := dc.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if got := stagingMessages(t, dc.Staging, "client_events", t0); len(got) != 2 {
		t.Fatalf("client_events = %v", got)
	}
	if got := stagingMessages(t, dc.Staging, "search_logs", t0); len(got) != 1 || got[0] != "b" {
		t.Fatalf("search_logs = %v", got)
	}
}

// TestAggregatorFailover reproduces §2: "If an aggregator crashes ... Scribe
// daemons simply check ZooKeeper again to find another live aggregator."
func TestAggregatorFailover(t *testing.T) {
	dc, _ := newDC(t, 2, 1)
	d := dc.Daemons[0]
	d.Log("ce", []byte("before"))
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}

	// Stop whichever aggregator the daemon used; delivery must fail over.
	for _, a := range dc.Aggregators {
		if a.Stats().MessagesReceived > 0 {
			if err := a.Stop(); err != nil {
				t.Fatal(err)
			}
		}
	}
	d.Log("ce", []byte("after"))
	if err := d.Flush(); err != nil {
		t.Fatalf("flush after failover: %v", err)
	}
	if err := dc.FlushAll(); err != nil && !errors.Is(err, ErrAggregatorDown) {
		t.Fatal(err)
	}
	msgs := stagingMessages(t, dc.Staging, "ce", t0)
	if len(msgs) != 2 {
		t.Fatalf("messages after failover = %v", msgs)
	}
	if s := d.Stats(); s.Rediscoveries < 2 || s.SendFailures < 1 {
		t.Fatalf("daemon stats = %+v, expected rediscovery after failure", s)
	}
}

// Neither aggregators nor daemons run a ZooKeeper heartbeat thread, so a
// session lapses whenever its owner idles past zkSessionTimeout. The
// aggregator's next Append must find its session expired — which drops
// its ephemeral znode — and register again; a daemon's next discovery
// must reconnect and find it; and every entry must arrive exactly once
// across the lapse.
func TestIdleSessionsExpireAndRecover(t *testing.T) {
	dc, clock := newDC(t, 1, 2)
	a := dc.Aggregators[0]
	warm, cold := dc.Daemons[0], dc.Daemons[1]
	warm.Log("ce", []byte("before"))
	if err := warm.Flush(); err != nil {
		t.Fatal(err)
	}
	aggConn, coldConn := a.conn, cold.conn

	clock.Advance(zkSessionTimeout + time.Second)

	// warm has the aggregator cached, so its send goes straight to Append,
	// whose heartbeat is the first operation on the lapsed session.
	warm.Log("ce", []byte("warm-after"))
	if err := warm.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := aggConn.Ping(); !errors.Is(err, zk.ErrSessionExpired) {
		t.Fatalf("aggregator's first session: Ping = %v, want ErrSessionExpired", err)
	}
	if a.conn == aggConn {
		t.Fatal("aggregator did not register a new session")
	}

	// cold has never discovered; its session lapsed too. Discovery must
	// reconnect and find the aggregator's new registration.
	cold.Log("ce", []byte("cold-after"))
	if err := cold.Flush(); err != nil {
		t.Fatalf("discovery after the lapse: %v", err)
	}
	if cold.conn == coldConn {
		t.Fatal("daemon did not reconnect")
	}
	if s := cold.Stats(); s.Rediscoveries != 1 || s.SendFailures != 0 || s.Delivered != 1 {
		t.Fatalf("cold daemon stats = %+v, want one discovery and one delivery", s)
	}

	if err := dc.FlushAll(); err != nil {
		t.Fatal(err)
	}
	msgs := stagingMessages(t, dc.Staging, "ce", t0)
	sort.Strings(msgs)
	if want := []string{"before", "cold-after", "warm-after"}; !reflect.DeepEqual(msgs, want) {
		t.Fatalf("staged %v, want each of %v once", msgs, want)
	}
}

func TestAllAggregatorsDownSpools(t *testing.T) {
	dc, _ := newDC(t, 1, 1)
	if err := dc.Aggregators[0].Stop(); err != nil {
		t.Fatal(err)
	}
	d := dc.Daemons[0]
	d.Log("ce", []byte("stuck"))
	err := d.Flush()
	if !errors.Is(err, ErrSpilled) {
		t.Fatalf("err = %v, want ErrSpilled", err)
	}
	if s := d.Stats(); s.Spooled != 1 || s.Delivered != 0 {
		t.Fatalf("stats = %+v", s)
	}

	// A new aggregator comes up; the spool drains.
	a, err := NewAggregator("dc1-agg-new", dc.Staging, dc.ZooKeeper, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The datacenter's clock is manual; reuse it for determinism.
	a.clock = dc.clock
	dc.Net.Register(a)
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := a.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if msgs := stagingMessages(t, dc.Staging, "ce", t0); len(msgs) != 1 || msgs[0] != "stuck" {
		t.Fatalf("messages = %v", msgs)
	}
}

// TestStagingOutageBuffering reproduces §2: "aggregators buffer data on
// local disk in case of HDFS outages."
func TestStagingOutageBuffering(t *testing.T) {
	dc, _ := newDC(t, 1, 1)
	a := dc.Aggregators[0]
	a.RollRecords = 10
	d := dc.Daemons[0]

	dc.Staging.SetAvailable(false)
	for i := 0; i < 35; i++ {
		d.Log("ce", []byte(fmt.Sprintf("m%02d", i)))
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := a.FlushAll(); !errors.Is(err, ErrSpilled) {
		t.Fatalf("FlushAll during outage err = %v, want ErrSpilled", err)
	}
	st := a.Stats()
	if st.FilesWritten != 0 || st.PendingFiles == 0 {
		t.Fatalf("stats during outage = %+v", st)
	}

	dc.Staging.SetAvailable(true)
	if err := a.FlushAll(); err != nil {
		t.Fatal(err)
	}
	msgs := stagingMessages(t, dc.Staging, "ce", t0)
	if len(msgs) != 35 {
		t.Fatalf("recovered %d messages, want 35", len(msgs))
	}
	// Order within the category stream is preserved.
	for i, m := range msgs {
		if m != fmt.Sprintf("m%02d", i) {
			t.Fatalf("msgs[%d] = %q, order not preserved", i, m)
		}
	}
}

func TestHardCrashAccountsLoss(t *testing.T) {
	dc, _ := newDC(t, 1, 1)
	a := dc.Aggregators[0]
	d := dc.Daemons[0]
	for i := 0; i < 20; i++ {
		d.Log("ce", []byte(fmt.Sprintf("m%d", i)))
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	a.Crash()
	staged := stagingMessages(t, dc.Staging, "ce", t0)
	st := a.Stats()
	// Conservation: delivered = staged + dropped (nothing silently lost).
	if int64(len(staged))+st.MessagesDropped != d.Stats().Delivered {
		t.Fatalf("staged %d + dropped %d != delivered %d", len(staged), st.MessagesDropped, d.Stats().Delivered)
	}
	if err := a.Append([]Entry{{Category: "ce", Message: []byte("x")}}); err == nil {
		t.Fatal("append to crashed aggregator succeeded")
	}
}

func TestHourlyFileRolling(t *testing.T) {
	dc, clock := newDC(t, 1, 1)
	d := dc.Daemons[0]
	d.Log("ce", []byte("hour14"))
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Hour)
	d.Log("ce", []byte("hour15"))
	if err := dc.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if msgs := stagingMessages(t, dc.Staging, "ce", t0); len(msgs) != 1 || msgs[0] != "hour14" {
		t.Fatalf("hour 14 = %v", msgs)
	}
	if msgs := stagingMessages(t, dc.Staging, "ce", t0.Add(time.Hour)); len(msgs) != 1 || msgs[0] != "hour15" {
		t.Fatalf("hour 15 = %v", msgs)
	}
}

func TestSealHourWritesMarkers(t *testing.T) {
	dc, _ := newDC(t, 1, 1)
	dc.Daemons[0].Log("ce", []byte("x"))
	if err := dc.SealHour([]string{"ce", "empty_cat"}, t0); err != nil {
		t.Fatal(err)
	}
	for _, cat := range []string{"ce", "empty_cat"} {
		marker := warehouse.StagingHourDir(cat, t0) + "/" + warehouse.SealedMarker
		if !dc.Staging.Exists(marker) {
			t.Fatalf("missing seal marker for %s", cat)
		}
	}
	// Sealing twice is idempotent.
	if err := dc.SealHour([]string{"ce"}, t0); err != nil {
		t.Fatal(err)
	}
}

func TestBatchSizeAutoFlush(t *testing.T) {
	dc, _ := newDC(t, 1, 1)
	d := dc.Daemons[0]
	d.BatchSize = 5
	for i := 0; i < 12; i++ {
		d.Log("ce", []byte{byte(i)})
	}
	if s := d.Stats(); s.Delivered != 10 || s.Spooled != 2 {
		t.Fatalf("stats = %+v, want 10 delivered 2 spooled", s)
	}
}

func TestLoadBalancing(t *testing.T) {
	dc, _ := newDC(t, 4, 16)
	for _, d := range dc.Daemons {
		d.Log("ce", []byte(d.Host))
		if err := d.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	busy := 0
	for _, a := range dc.Aggregators {
		if a.Stats().MessagesReceived > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("only %d of 4 aggregators used by 16 daemons; random discovery not balancing", busy)
	}
}

func TestNetworkFailureInjection(t *testing.T) {
	dc, _ := newDC(t, 2, 1)
	calls := 0
	dc.Net.FailSend = func(aggID string) error {
		calls++
		if calls == 1 {
			return errors.New("injected transport failure")
		}
		return nil
	}
	d := dc.Daemons[0]
	d.Log("ce", []byte("x"))
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if s := d.Stats(); s.SendFailures != 1 || s.Delivered != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestDaemonCloseReportsSpool(t *testing.T) {
	dc, _ := newDC(t, 1, 1)
	if err := dc.Aggregators[0].Stop(); err != nil {
		t.Fatal(err)
	}
	d := dc.Daemons[0]
	d.Log("ce", []byte("orphan"))
	_ = d.Flush()
	if n := d.Close(); n != 1 {
		t.Fatalf("Close reported %d spooled, want 1", n)
	}
}

// TestStagingLevel pins the aggregator's deflate level: a staging file is
// the member compress/gzip writes at stagingLevel, 3, for the same frames —
// not level 5's or 6's, which the same frames make different bytes of.
func TestStagingLevel(t *testing.T) {
	dc, _ := newDC(t, 1, 1)
	var frames bytes.Buffer
	w := recordio.NewWriter(&frames)
	for i := 0; i < 3000; i++ {
		msg := []byte(fmt.Sprintf("web:home:timeline:stream:tweet:impression user=%d session=s%03d", i*7919%1000, i%97))
		dc.Daemons[0].Log("client_events", msg)
		if err := w.Append(msg); err != nil {
			t.Fatal(err)
		}
	}
	if err := dc.FlushAll(); err != nil {
		t.Fatal(err)
	}
	infos, err := dc.Staging.Walk(warehouse.StagingHourDir("client_events", t0))
	if err != nil || len(infos) != 1 {
		t.Fatalf("staging holds %d files (%v), want one", len(infos), err)
	}
	staged, err := dc.Staging.ReadFile(infos[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	member := func(level int) []byte {
		var buf bytes.Buffer
		gz, err := gzip.NewWriterLevel(&buf, level)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := gz.Write(frames.Bytes()); err != nil {
			t.Fatal(err)
		}
		if err := gz.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, other := range []int{5, 6} {
		if bytes.Equal(member(3), member(other)) {
			t.Fatalf("levels 3 and %d write the same member: the frames cannot tell them apart", other)
		}
	}
	if !bytes.Equal(staged, member(3)) {
		t.Fatalf("the staging file (%d bytes) is not compress/gzip's level-3 member (%d bytes)", len(staged), len(member(3)))
	}
}
