package realtime

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"unilog/internal/events"
)

// TestSustainedIngestWithConcurrentQueries is the acceptance stress run:
// one million events fanned across four shards by four producers while
// query goroutines read concurrently, then every windowed sum checked
// exactly against a reference computed during generation.
func TestSustainedIngestWithConcurrentQueries(t *testing.T) {
	total := 1_000_000
	if testing.Short() {
		total = 200_000
	}
	const (
		producers = 4
		minutes   = 1440 // one day of one-minute buckets
	)
	clients := []string{"web", "iphone", "android", "ipad"}
	names := make([]*events.ClientEvent, 0, 64)
	for _, client := range clients {
		for _, page := range []string{"home", "search", "profile", "discover"} {
			for _, section := range []string{"timeline", "mentions"} {
				for _, action := range []string{"impression", "click"} {
					names = append(names, ev(
						fmt.Sprintf("%s:%s:%s:stream:tweet:%s", client, page, section, action),
						t0, 1, "us"))
				}
			}
		}
	}
	day := t0.UTC().Truncate(24 * time.Hour)

	c := newCounter(t, Config{Shards: 4})
	if len(c.shards) < 4 {
		t.Fatalf("shards = %d, want >= 4", len(c.shards))
	}

	// Producers ingest disjoint index ranges, each recording a local
	// reference of per-client, per-minute counts as it goes.
	type ref struct{ perClientMinute [4][minutes]int64 }
	refs := make([]*ref, producers)
	var wg sync.WaitGroup
	start := time.Now()
	for p := 0; p < producers; p++ {
		wg.Add(1)
		refs[p] = &ref{}
		go func(p int) {
			defer wg.Done()
			b := c.NewBatcher()
			var e events.ClientEvent
			for i := p * total / producers; i < (p+1)*total/producers; i++ {
				tmpl := names[i%len(names)]
				minuteIdx := i % minutes
				e = *tmpl
				e.Timestamp = day.Add(time.Duration(minuteIdx) * time.Minute).UnixMilli()
				e.UserID = int64(i % 7) // mix of logged-in and logged-out
				b.Add(&e)
				refs[p].perClientMinute[(i%len(names))/16][minuteIdx]++
			}
			b.Flush()
		}(p)
	}

	// Concurrent readers: windowed sums over a growing store must be
	// non-decreasing (buckets only accumulate) and never exceed the final
	// planted total.
	done := make(chan struct{})
	var qerr atomic.Value
	var queries atomic.Int64
	for q := 0; q < 2; q++ {
		go func(client string) {
			var last int64
			for {
				select {
				case <-done:
					return
				default:
				}
				got := c.PathSum(client, day, day.Add(24*time.Hour))
				queries.Add(1)
				if got < last {
					qerr.Store(fmt.Errorf("concurrent PathSum(%s) went backwards: %d -> %d", client, last, got))
					return
				}
				last = got
				c.TopK("", 4, day, day.Add(24*time.Hour))
			}
		}(clients[q])
	}

	wg.Wait()
	c.Sync()
	elapsed := time.Since(start)
	close(done)
	if err, ok := qerr.Load().(error); ok {
		t.Fatal(err)
	}

	// Merge references and verify exact windowed sums.
	var want [4][minutes]int64
	for _, r := range refs {
		for ci := range want {
			for m := range want[ci] {
				want[ci][m] += r.perClientMinute[ci][m]
			}
		}
	}
	for ci, client := range clients {
		var clientTotal int64
		for _, n := range want[ci] {
			clientTotal += n
		}
		if got := c.PathSum(client, day, day.Add(24*time.Hour)); got != clientTotal {
			t.Errorf("PathSum(%s, day) = %d, want %d", client, got, clientTotal)
		}
		// Sub-windows: an hour, a minute, and a half-open slice.
		for _, w := range []struct{ a, b int }{{0, 60}, {617, 618}, {100, 1340}} {
			var sub int64
			for m := w.a; m < w.b; m++ {
				sub += want[ci][m]
			}
			got := c.PathSum(client,
				day.Add(time.Duration(w.a)*time.Minute),
				day.Add(time.Duration(w.b)*time.Minute))
			if got != sub {
				t.Errorf("PathSum(%s, m%d..m%d) = %d, want %d", client, w.a, w.b, got, sub)
			}
		}
	}
	st := c.Stats()
	if st.Observed != int64(total) {
		t.Errorf("Observed = %d, want %d", st.Observed, total)
	}
	if st.DroppedOld != 0 || st.Invalid != 0 {
		t.Errorf("unexpected drops: %+v", st)
	}
	t.Logf("ingested %d events across %d shards in %v (%.0f events/s), %d concurrent queries (backpressure waits: %d)",
		total, len(c.shards), elapsed.Round(time.Millisecond),
		float64(total)/elapsed.Seconds(), queries.Load(), st.QueueFull)
}
