package realtime

import (
	"sync"
	"testing"
	"time"

	"unilog/internal/events"
	"unilog/internal/geo"
	"unilog/internal/scribe"
)

// tapEntries is n client_events entries cycling over a few names, users
// and countries, stamped one second apart from t0.
func tapEntries(n int) []scribe.Entry {
	names := []string{
		"web:home:mentions:stream:avatar:profile_click",
		"web:home:timeline:stream:tweet:impression",
		"iphone:home:timeline:stream:tweet:impression",
		"android:profile:header:card:follow:click",
	}
	countries := []string{"us", "jp", "uk", "br"}
	out := make([]scribe.Entry, n)
	for i := range out {
		e := ev(names[i%len(names)], t0.Add(time.Duration(i)*time.Second), int64(i%3), countries[i%len(countries)])
		e.Details = map[string]string{"rank": "3", "profile_id": "12345"}
		out[i] = scribe.Entry{Category: events.Category, Message: e.Marshal()}
	}
	return out
}

// TestTapBatchSteadyStateAllocations pins the property the tap's speed
// rests on: once a batch's names and countries are interned, tapping it
// again allocates a Batcher and nothing per event — no ClientEvent, no
// name components, no strings, no details map.
func TestTapBatchSteadyStateAllocations(t *testing.T) {
	c := newCounter(t, Config{Shards: 2})
	batch := tapEntries(500)
	c.TapBatch(batch) // interns, and primes the batch pool
	c.Sync()
	perBatch := testing.AllocsPerRun(20, func() {
		c.TapBatch(batch)
		c.Sync()
	})
	if perEvent := perBatch / float64(len(batch)); perEvent >= 0.1 {
		t.Fatalf("steady-state TapBatch allocates %.3f objects/event (%.0f per %d-event batch), want < 0.1",
			perEvent, perBatch, len(batch))
	}
	if st := c.Stats(); st.Observed != 22*500 || st.DecodeErrors != 0 || st.Invalid != 0 {
		t.Fatalf("stats = %+v, want 22 batches of 500 observed and nothing refused", st)
	}
}

// An observation carrying the name table's entry must land where the same
// event added decoded lands — both doors meet in digest — and one with no
// entry (the name was invalid) or a minute before 1 must count as invalid.
func TestAddObservationMatchesAdd(t *testing.T) {
	byEvent := newCounter(t, Config{Shards: 2})
	byObs := newCounter(t, Config{Shards: 2})
	be, bo := byEvent.NewBatcher(), byObs.NewBatcher()
	for _, entry := range tapEntries(200) {
		var e events.ClientEvent
		if err := e.Unmarshal(entry.Message); err != nil {
			t.Fatal(err)
		}
		be.Add(&e)
		name, err := events.LookupName(e.Name)
		if err != nil {
			t.Fatal(err)
		}
		bo.AddObservation(Observation{
			Name: name, Minute: e.Timestamp / 60_000,
			Country: geo.CountryOf(e.IP), LoggedIn: e.LoggedIn(),
		})
	}
	valid, err := events.Lookup("web:home:timeline:stream:tweet:impression")
	if err != nil {
		t.Fatal(err)
	}
	bo.AddObservation(Observation{Name: nil, Minute: t0.Unix() / 60, Country: "us"})
	bo.AddObservation(Observation{Name: valid, Minute: 0, Country: "us"})
	be.Flush()
	bo.Flush()
	byEvent.Sync()
	byObs.Sync()
	if st := byObs.Stats(); st.Observed != 200 || st.Invalid != 2 {
		t.Fatalf("AddObservation stats = %+v, want 200 observed, 2 invalid", st)
	}
	sameAnswers(t, byObs, byEvent)
}

// Many aggregators tap one counter. Taps racing to intern the same
// first-seen names must end with the counts a single tap gives.
func TestConcurrentTapsMatchOneTap(t *testing.T) {
	batch := tapEntries(2000)
	serial := newCounter(t, Config{Shards: 2})
	serial.TapBatch(batch)
	serial.Sync()
	c := newCounter(t, Config{Shards: 2})
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
	if st := c.Stats(); st.TapEntries != int64(len(batch)) || st.DecodeErrors != 0 || st.Invalid != 0 {
		t.Fatalf("stats = %+v, want %d tapped and nothing refused", st, len(batch))
	}
	sameAnswers(t, c, serial)
}

func BenchmarkTapBatch(b *testing.B) {
	c := New(Config{})
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
