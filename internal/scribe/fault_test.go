package scribe

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"unilog/internal/chunk"
	"unilog/internal/hdfs"
	"unilog/internal/recordio"
	"unilog/internal/warehouse"
	"unilog/internal/zk"
)

// countStaged decodes every staged message across all hours of a category.
func countStaged(t *testing.T, fs *hdfs.FS, category string) (int64, map[string]int) {
	t.Helper()
	infos, err := fs.Walk(warehouse.StagingRoot)
	if errors.Is(err, hdfs.ErrNotFound) {
		return 0, nil
	}
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	seen := make(map[string]int)
	for _, fi := range infos {
		if chunk.IsAuxiliary(fi.Path) {
			continue
		}
		data, err := fs.ReadFile(fi.Path)
		if err != nil {
			t.Fatal(err)
		}
		if err := recordio.ScanGzipFile(data, func(rec []byte) error {
			n++
			seen[string(rec)]++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	return n, seen
}

// TestRandomFaultScheduleConservation drives the delivery layer through
// randomized fault schedules (aggregator stops, crashes, staging outages,
// transient network failures) and checks the conservation invariant on
// every run:
//
//	staged + spooled(daemons) + dropped(crashes) + buffered(pending) = accepted
//
// with no message duplicated in staging.
func TestRandomFaultScheduleConservation(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(trial)))
			clock := zk.NewManualClock(time.Date(2012, 8, 21, 0, 0, 0, 0, time.UTC))
			staging := hdfs.New(0)
			dc, err := NewDatacenter("dc", staging, clock, 1+rng.Intn(3), 1+rng.Intn(4), int64(trial)*7+1)
			if err != nil {
				t.Fatal(err)
			}
			// Random transient network failures.
			dc.Net.FailSend = func(aggID string) error {
				if rng.Intn(10) == 0 {
					return errors.New("transient network blip")
				}
				return nil
			}

			var accepted int64
			aliveAggs := len(dc.Aggregators)
			for step := 0; step < 300; step++ {
				switch rng.Intn(20) {
				case 0: // staging outage toggle
					staging.SetAvailable(!staging.Available())
				case 1: // graceful stop of a random live aggregator
					if aliveAggs > 1 {
						a := dc.Aggregators[rng.Intn(len(dc.Aggregators))]
						if err := a.FlushAll(); err == nil || errors.Is(err, ErrSpilled) {
							_ = a.Stop()
							aliveAggs--
						}
					}
				case 2: // hard crash of a random live aggregator
					if aliveAggs > 1 {
						dc.Aggregators[rng.Intn(len(dc.Aggregators))].Crash()
						aliveAggs--
					}
				case 3:
					clock.Advance(time.Duration(rng.Intn(90)) * time.Minute)
				}
				d := dc.Daemons[rng.Intn(len(dc.Daemons))]
				d.Log("ce", []byte(fmt.Sprintf("t%02d-m%04d", trial, step)))
				accepted++
				if rng.Intn(5) == 0 {
					_ = d.Flush() // failures leave entries spooled; that's fine
				}
			}
			staging.SetAvailable(true)
			for _, d := range dc.Daemons {
				_ = d.Flush()
			}
			for _, a := range dc.Aggregators {
				_ = a.FlushAll()
			}

			staged, seen := countStaged(t, staging, "ce")
			for msg, n := range seen {
				if n > 1 {
					t.Fatalf("message %q staged %d times", msg, n)
				}
			}
			var spooled, delivered int64
			for _, d := range dc.Daemons {
				s := d.Stats()
				spooled += s.Spooled
				delivered += s.Delivered
			}
			var dropped, pending int64
			for _, a := range dc.Aggregators {
				s := a.Stats()
				dropped += s.MessagesDropped
				pending += s.PendingMessages
				for _, f := range a.pendingFilesSnapshot() {
					pending += f
				}
			}
			if got := staged + spooled + dropped + pending; got != accepted {
				t.Fatalf("conservation violated: staged %d + spooled %d + dropped %d + pending %d = %d, accepted %d",
					staged, spooled, dropped, pending, got, accepted)
			}
			if delivered != staged+dropped+pending {
				t.Fatalf("delivered %d != staged %d + dropped %d + pending %d", delivered, staged, dropped, pending)
			}
		})
	}
}

// pendingFilesSnapshot exposes queued-file message counts for the
// conservation check.
func (a *Aggregator) pendingFilesSnapshot() []int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]int64, 0, len(a.pending))
	for _, f := range a.pending {
		out = append(out, f.count)
	}
	return out
}
