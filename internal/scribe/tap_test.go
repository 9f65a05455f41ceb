package scribe

import (
	"errors"
	"fmt"
	"testing"
)

// TestAggregatorTap covers the realtime tap hook: kept entries are
// observed with their policy-resolved categories, policy-dropped entries
// are not, and a stopped aggregator taps nothing.
func TestAggregatorTap(t *testing.T) {
	dc, _ := newDC(t, 1, 0)
	agg := dc.Aggregators[0]
	agg.ConfigureCategory("noise", CategoryConfig{Blackhole: true})
	agg.ConfigureCategory("legacy", CategoryConfig{WriteAs: "merged"})

	var got []Entry
	agg.Tap = func(batch []Entry) { got = append(got, batch...) }

	err := agg.Append([]Entry{
		{Category: "web_events", Message: []byte("a")},
		{Category: "noise", Message: []byte("dropped")},
		{Category: "legacy", Message: []byte("b")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("tapped %d entries, want 2: %v", len(got), got)
	}
	if got[0].Category != "web_events" || string(got[0].Message) != "a" {
		t.Errorf("tapped[0] = %q/%q", got[0].Category, got[0].Message)
	}
	if got[1].Category != "merged" || string(got[1].Message) != "b" {
		t.Errorf("tapped[1] = %q/%q, want policy-resolved category merged", got[1].Category, got[1].Message)
	}

	// An empty or fully-dropped batch must not invoke the tap.
	calls := 0
	agg.Tap = func([]Entry) { calls++ }
	if err := agg.Append([]Entry{{Category: "noise", Message: []byte("x")}}); err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Errorf("tap invoked %d times for a fully-dropped batch", calls)
	}

	if err := agg.Stop(); err != nil {
		t.Fatal(err)
	}
	err = agg.Append([]Entry{{Category: "web_events", Message: []byte("late")}})
	if !errors.Is(err, ErrAggregatorDown) {
		t.Fatalf("Append after Stop = %v", err)
	}
	if calls != 0 {
		t.Errorf("tap invoked on a stopped aggregator")
	}
}

// TestAggregatorTapDelivery checks the tap observes exactly the messages
// that reach staging when traffic flows through daemons.
func TestAggregatorTapDelivery(t *testing.T) {
	dc, _ := newDC(t, 2, 3)
	tapped := 0
	for _, a := range dc.Aggregators {
		a.Tap = func(batch []Entry) { tapped += len(batch) }
	}
	const perDaemon = 40
	for i, d := range dc.Daemons {
		for k := 0; k < perDaemon; k++ {
			d.Log("web_events", []byte(fmt.Sprintf("msg-%d-%d", i, k)))
		}
	}
	if err := dc.FlushAll(); err != nil {
		t.Fatal(err)
	}
	want := perDaemon * len(dc.Daemons)
	if tapped != want {
		t.Fatalf("tapped %d messages, want %d", tapped, want)
	}
	if msgs := stagingMessages(t, dc.Staging, "web_events", t0); len(msgs) != want {
		t.Fatalf("staged %d messages, want %d", len(msgs), want)
	}
}
