package scenario

import (
	"reflect"
	"testing"

	"unilog/internal/events"
)

// testSpec builds a small validated spec for stream tests.
func testSpec(t *testing.T, mutate func(*Spec)) *Spec {
	t.Helper()
	s, err := Parse([]byte(`{
		"name": "stream-test",
		"total_sessions": 60,
		"clients": [
			{"id": "web", "rate_fraction": 0.5, "arrival": {"process": "poisson"}},
			{"id": "mobile", "rate_fraction": 0.3, "arrival": {"process": "gamma", "cv": 2}},
			{"id": "api", "rate_fraction": 0.2, "arrival": {"process": "uniform"}}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if mutate != nil {
		mutate(s)
		if err := s.validate(); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func collect(t *testing.T, s *Spec) []events.ClientEvent {
	t.Helper()
	st, err := s.EventStream()
	if err != nil {
		t.Fatal(err)
	}
	var evs []events.ClientEvent
	err = st(func(e *events.ClientEvent) error {
		evs = append(evs, *e)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return evs
}

// TestStreamDeterminism: same spec + same seed must produce the byte-
// identical event stream; a different seed must not.
func TestStreamDeterminism(t *testing.T) {
	a := collect(t, testSpec(t, nil))
	b := collect(t, testSpec(t, nil))
	if len(a) == 0 {
		t.Fatal("empty stream")
	}
	if len(a) != len(b) {
		t.Fatalf("same seed lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		// Structural equality: Marshal bytes are not comparable because the
		// Thrift encoder ranges over the Details map in map order.
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Fatalf("event %d differs under the same seed:\n  %+v\n  %+v", i, a[i], b[i])
		}
	}

	c := collect(t, testSpec(t, func(s *Spec) { s.Seed = 4040 }))
	same := len(a) == len(c)
	if same {
		for i := range a {
			if !reflect.DeepEqual(a[i], c[i]) {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced an identical stream")
	}
}

func TestStreamWithinDayAndTagged(t *testing.T) {
	s := testSpec(t, func(sp *Spec) { sp.ClockSkewMs = 2000 })
	evs := collect(t, s)
	dayMs := s.DayStart().UnixMilli()
	endMs := dayMs + 24*60*60_000
	for i := range evs {
		if evs[i].Timestamp < dayMs || evs[i].Timestamp >= endMs {
			t.Fatalf("event %d timestamp %d outside the day", i, evs[i].Timestamp)
		}
		if evs[i].Details["traffic_class"] == "" {
			t.Fatalf("event %d missing traffic_class tag", i)
		}
	}
}

// classSessionCounts counts distinct sessions per traffic class.
func classSessionCounts(evs []events.ClientEvent) map[string]int {
	seen := map[string]bool{}
	counts := map[string]int{}
	for i := range evs {
		if evs[i].Details["crowd"] == "1" {
			continue
		}
		key := evs[i].Details["traffic_class"] + "\x00" + evs[i].SessionID
		if !seen[key] {
			seen[key] = true
			counts[evs[i].Details["traffic_class"]]++
		}
	}
	return counts
}

// TestSessionCountsFollowFractions: the per-class session split must
// match SessionCounts (cumulative rounding of rate_fraction × total) and
// sum to the spec total exactly.
func TestSessionCountsFollowFractions(t *testing.T) {
	s := testSpec(t, nil)
	evs := collect(t, s)
	want := s.SessionCounts()
	total := 0
	for _, n := range want {
		total += n
	}
	if total != s.TotalSessions {
		t.Fatalf("SessionCounts sum %d != total_sessions %d", total, s.TotalSessions)
	}
	got := classSessionCounts(evs)
	for i, c := range s.Clients {
		if got[c.ID] != want[i] {
			t.Fatalf("class %s: %d sessions in stream, SessionCounts says %d", c.ID, got[c.ID], want[i])
		}
	}
}

// TestFlashCrowdPreservesBaseTraffic is the property test: adding a
// flash-crowd window must multiply matching events without touching the
// base stream — the same base events in the same order, so every class's
// rate fraction is preserved exactly — and every synthetic event must be
// tagged, in-window, and under the subtree.
func TestFlashCrowdPreservesBaseTraffic(t *testing.T) {
	plain := collect(t, testSpec(t, nil))
	fc := Fault{Kind: FaultFlashCrowd, Subject: "web:home", StartMinute: 60, EndMinute: 300, Magnitude: 5}
	spiked := collect(t, testSpec(t, func(sp *Spec) {
		sp.Faults = []Fault{fc}
	}))

	var base []events.ClientEvent
	var crowd []events.ClientEvent
	for i := range spiked {
		if spiked[i].Details["crowd"] == "1" {
			crowd = append(crowd, spiked[i])
		} else {
			base = append(base, spiked[i])
		}
	}
	if len(base) != len(plain) {
		t.Fatalf("base stream changed: %d events with crowd, %d without", len(base), len(plain))
	}
	for i := range base {
		b := base[i]
		p := plain[i]
		// The crowd transform must pass base events through untouched —
		// compare identity fields (Details of base events gain no keys).
		if b.Name != p.Name || b.SessionID != p.SessionID || b.Timestamp != p.Timestamp ||
			b.UserID != p.UserID || b.Details["crowd"] != "" {
			t.Fatalf("base event %d mutated by flash crowd", i)
		}
	}

	dayMs := testSpec(t, nil).DayStart().UnixMilli()
	matching := 0
	for i := range plain {
		minute := int((plain[i].Timestamp - dayMs) / 60_000)
		if minute >= fc.StartMinute && minute < fc.EndMinute &&
			hasPrefixPath(plain[i].Name.String(), fc.Subject) {
			matching++
		}
	}
	if want := matching * (fc.Magnitude - 1); len(crowd) != want {
		t.Fatalf("crowd events = %d, want %d (%d matching base events × %d)",
			len(crowd), want, matching, fc.Magnitude-1)
	}
	if matching == 0 {
		t.Fatal("no base events matched the crowd window; property vacuous")
	}
	for i := range crowd {
		e := &crowd[i]
		minute := int((e.Timestamp - dayMs) / 60_000)
		if minute < fc.StartMinute || minute >= fc.EndMinute {
			t.Fatalf("crowd event %d at minute %d outside window", i, minute)
		}
		if !hasPrefixPath(e.Name.String(), fc.Subject) {
			t.Fatalf("crowd event %d name %s outside subtree", i, e.Name)
		}
		if e.UserID != 0 {
			t.Fatalf("crowd event %d not anonymous", i)
		}
	}
}

func TestHasPrefixPath(t *testing.T) {
	cases := []struct {
		name, subtree string
		want          bool
	}{
		{"web:home:timeline:stream:tweet:impression", "web:home", true},
		{"web:home", "web:home", true},
		{"web:homepage:x", "web:home", false},
		{"web", "web:home", false},
		{"iphone:home:x", "web:home", false},
	}
	for _, tc := range cases {
		if got := hasPrefixPath(tc.name, tc.subtree); got != tc.want {
			t.Errorf("hasPrefixPath(%q, %q) = %v, want %v", tc.name, tc.subtree, got, tc.want)
		}
	}
}

func TestSessionStartsOrderedWithinWindow(t *testing.T) {
	s := testSpec(t, nil)
	evs := collect(t, s)
	durMs := int64(s.DurationMinutes) * 60_000
	dayMs := s.DayStart().UnixMilli()
	firstSeen := map[string]int64{}
	for i := range evs {
		if _, ok := firstSeen[evs[i].SessionID]; !ok {
			firstSeen[evs[i].SessionID] = evs[i].Timestamp
			if off := evs[i].Timestamp - dayMs; off < 0 || off >= durMs {
				t.Fatalf("session start offset %dms outside the %dm window", off, s.DurationMinutes)
			}
		}
	}
}
