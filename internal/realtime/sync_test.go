package realtime

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// webIn is the count of "web" events in tapEntries(n), n a multiple of
// four: two of its four names are web's.
func webIn(n int) int64 { return int64(n / 2) }

// An idle Sync is two atomic loads per shard: once every batch has been
// applied, a further Sync sends no message and allocates nothing.
func TestSyncIdleAllocatesNothing(t *testing.T) {
	c := newCounter(t, Config{Shards: 4})
	c.TapBatch(tapEntries(500))
	c.Sync()
	if avg := testing.AllocsPerRun(100, c.Sync); avg != 0 {
		t.Fatalf("an idle Sync on 4 shards allocates %.1f objects, want 0", avg)
	}
}

// A batch still in the drain's hands — queued, or taken off the queue and
// being applied — must hold Sync until it is applied.
func TestSyncWaitsForQueuedBatch(t *testing.T) {
	const delay = 20 * time.Millisecond
	c := newCounter(t, Config{Shards: 4})
	c.SetApplyDelay(delay)
	batch := tapEntries(500)
	start := time.Now()
	c.TapBatch(batch)
	c.Sync()
	if took := time.Since(start); took < delay {
		t.Fatalf("Sync returned %v after the tap, before the %v apply delay", took, delay)
	}
	if got, want := c.PathSum("web", t0, t0.Add(time.Hour)), webIn(len(batch)); got != want {
		t.Fatalf("PathSum(web) after Sync = %d, want %d", got, want)
	}
}

// realtime.sync.calls counts every Sync and realtime.sync.waits each shard
// a Sync found a batch in flight on.
func TestSyncTelemetry(t *testing.T) {
	c := newCounter(t, Config{Shards: 4})
	c.TapBatch(tapEntries(100))
	c.Sync()
	calls, waits := tmSyncCalls.Value(), tmSyncWaits.Value()
	c.Sync()
	if dc, dw := tmSyncCalls.Value()-calls, tmSyncWaits.Value()-waits; dc != 1 || dw != 0 {
		t.Fatalf("an idle Sync added %d calls and %d waits, want 1 and 0", dc, dw)
	}
	c.SetApplyDelay(5 * time.Millisecond)
	c.TapBatch(tapEntries(100))
	waits = tmSyncWaits.Value()
	c.Sync()
	if dw := tmSyncWaits.Value() - waits; dw < 1 {
		t.Fatalf("a Sync right after a delayed tap added %d waits, want at least 1", dw)
	}
}

// A reader looping Sync → PathSum beside a writer must see, on every read,
// at least what was fed before its Sync and at most what had begun to be
// fed by the time the read returned, and the exact total at the end.
func TestSyncConcurrentWithTaps(t *testing.T) {
	c := newCounter(t, Config{Shards: 4})
	batch := tapEntries(100)
	per := webIn(len(batch))
	var started, fed atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			started.Add(per)
			c.TapBatch(batch)
			fed.Add(per)
		}
	}()
	for reads := 0; fed.Load() < 300*per; reads++ {
		lo := fed.Load()
		c.Sync()
		got := c.PathSum("web", t0, t0.Add(time.Hour))
		if hi := started.Load(); got < lo || got > hi {
			t.Fatalf("read %d after Sync = %d, want within [%d, %d]", reads, got, lo, hi)
		}
	}
	wg.Wait()
	c.Sync()
	if got := c.PathSum("web", t0, t0.Add(time.Hour)); got != 300*per {
		t.Fatalf("final PathSum(web) = %d, want %d", got, 300*per)
	}
}

// An idle Sync on an open counter returns before closeMu — here held by the
// test — and still counts as a call, not a wait. On a closed or crashed
// counter Sync waits for the drains to exit: a batch in the drain's hands
// when the counter stops is applied by the time Sync returns.
func TestSyncIdleCountsCalls(t *testing.T) {
	c := newCounter(t, Config{Shards: 4})
	c.TapBatch(tapEntries(100))
	c.Sync()
	calls, waits := tmSyncCalls.Value(), tmSyncWaits.Value()
	c.closeMu.Lock()
	synced := make(chan struct{})
	go func() { c.Sync(); close(synced) }()
	select {
	case <-synced:
		c.closeMu.Unlock()
	case <-time.After(5 * time.Second):
		c.closeMu.Unlock()
		t.Fatal("an idle Sync waited for closeMu")
	}
	if dc, dw := tmSyncCalls.Value()-calls, tmSyncWaits.Value()-waits; dc != 1 || dw != 0 {
		t.Fatalf("an idle Sync added %d calls and %d waits, want 1 and 0", dc, dw)
	}

	for name, stop := range map[string]func(*Counter){"Close": (*Counter).Close, "Crash": (*Counter).Crash} {
		c := newCounter(t, Config{Shards: 4})
		c.SetApplyDelay(20 * time.Millisecond)
		batch := tapEntries(500)
		c.TapBatch(batch)
		stopped := make(chan struct{})
		go func() { stop(c); close(stopped) }()
		for !c.closed.Load() {
			time.Sleep(time.Millisecond)
		}
		c.Sync()
		if got, want := c.PathSum("web", t0, t0.Add(time.Hour)), webIn(len(batch)); got != want {
			t.Errorf("after %s, PathSum(web) behind Sync = %d, want %d", name, got, want)
		}
		<-stopped
	}
}
