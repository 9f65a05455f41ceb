package scribe

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"unilog/internal/events"
)

// TestAggregatorTap covers the realtime tap hook: each entry is observed
// under the category it was logged with, a client event the encoder
// refuses under InvalidCategory, an empty batch calls no tap, and a
// stopped aggregator taps nothing.
func TestAggregatorTap(t *testing.T) {
	dc, _ := newDC(t, 1, 0)
	agg := dc.Aggregators[0]

	var got []Entry
	agg.Tap = func(batch []Entry) { got = append(got, batch...) }

	valid := clientEvent(0).Marshal()
	err := agg.Append([]Entry{
		{Category: "web_events", Message: []byte("a")},
		{Category: events.Category, Message: valid},
		{Category: events.Category, Message: []byte("not thrift")},
		{Category: "legacy", Message: []byte("b")},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []Entry{
		{Category: "web_events", Message: []byte("a")},
		{Category: events.Category, Message: valid},
		{Category: InvalidCategory, Message: []byte("not thrift")},
		{Category: "legacy", Message: []byte("b")},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tapped %q, want %q", got, want)
	}

	// An empty batch must not invoke the tap.
	calls := 0
	agg.Tap = func([]Entry) { calls++ }
	if err := agg.Append(nil); err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Errorf("tap invoked %d times for an empty batch", calls)
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
