package analytics

import (
	"testing"
	"time"

	"unilog/internal/dataflow"
	"unilog/internal/events"
	"unilog/internal/geo"
	"unilog/internal/hdfs"
	"unilog/internal/warehouse"
)

// TestRollupsEmptyDay: a day with no warehouse data yields an empty (not
// erroring) rollup table, and RollupTotal over it is zero at every level.
func TestRollupsEmptyDay(t *testing.T) {
	fs := hdfs.New(0)
	j := dataflow.NewJob("rollups-empty", fs)
	r, err := Rollups(j, day.AddDate(0, 0, 7))
	if err != nil {
		t.Fatal(err)
	}
	if len(r) != 0 {
		t.Fatalf("empty day produced %d rows", len(r))
	}
	for lvl := 0; lvl < events.NumRollupLevels; lvl++ {
		if got := RollupTotal(r, events.RollupLevel(lvl), "web:*:*:*:*:profile_click"); got != 0 {
			t.Errorf("level %d total = %d on empty day", lvl, got)
		}
	}
}

func rollupEvent(name string, hour int, user int64, country string) *events.ClientEvent {
	return &events.ClientEvent{
		Initiator: events.InitiatorClientUser,
		Name:      events.MustParseName(name),
		UserID:    user,
		SessionID: "sess",
		IP:        geo.IPFor(country, user+1),
		Timestamp: day.Add(time.Duration(hour) * time.Hour).UnixMilli(),
	}
}

// TestRollupTotalPerLevel plants a hand-built day whose counts differ at
// every masking level and checks RollupTotal at each of the five §3.2
// schemas, plus the country/logged-in cells of the full table.
func TestRollupTotalPerLevel(t *testing.T) {
	fs := hdfs.New(0)
	w := warehouse.NewWriter(fs, events.Category)
	add := func(n int, name string, user int64, country string) {
		for i := 0; i < n; i++ {
			if err := w.Append(rollupEvent(name, i%3, user, country)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// 3 logged-in US clicks from the stream component, 2 logged-out JP
	// clicks from the grid component (same section), 1 from another page.
	add(3, "web:home:mentions:stream:avatar:profile_click", 7, "us")
	add(2, "web:home:mentions:grid:avatar:profile_click", 0, "jp")
	add(1, "web:profile:followers:list:avatar:profile_click", 9, "us")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	j := dataflow.NewJob("rollups", fs)
	r, err := Rollups(j, day)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		level events.RollupLevel
		name  string
		want  int64
	}{
		{0, "web:home:mentions:stream:avatar:profile_click", 3},
		{0, "web:home:mentions:grid:avatar:profile_click", 2},
		{1, "web:home:mentions:stream:*:profile_click", 3},
		{1, "web:home:mentions:grid:*:profile_click", 2},
		{2, "web:home:mentions:*:*:profile_click", 5},
		{3, "web:home:*:*:*:profile_click", 5},
		{3, "web:profile:*:*:*:profile_click", 1},
		{4, "web:*:*:*:*:profile_click", 6},
		{4, "iphone:*:*:*:*:profile_click", 0},
		{2, "web:home:mentions:stream:*:profile_click", 0}, // wrong level for the name
	}
	for _, tc := range cases {
		if got := RollupTotal(r, tc.level, tc.name); got != tc.want {
			t.Errorf("RollupTotal(level %d, %q) = %d, want %d", tc.level, tc.name, got, tc.want)
		}
	}

	// Every level conserves the day's event count.
	perLevel := make([]int64, events.NumRollupLevels)
	for k, n := range r {
		perLevel[k.Level] += n
	}
	for lvl, n := range perLevel {
		if n != 6 {
			t.Errorf("level %d sums to %d, want 6", lvl, n)
		}
	}

	// The full table keeps the country and logged-in breakdown.
	k := RollupKey{Level: 0, Name: "web:home:mentions:stream:avatar:profile_click", Country: "us", LoggedIn: true}
	if r[k] != 3 {
		t.Errorf("r[%+v] = %d, want 3", k, r[k])
	}
	k = RollupKey{Level: 0, Name: "web:home:mentions:grid:avatar:profile_click", Country: "jp", LoggedIn: false}
	if r[k] != 2 {
		t.Errorf("r[%+v] = %d, want 2", k, r[k])
	}
}

// TestCombineThenExpandEqualsPerEventFold feeds one stream — repeated
// names, a malformed name, an address no country claims, both login
// states — to the combiner and to the per-event fold it replaced (five
// rollup rows and five map writes per event), and wants the same table.
func TestCombineThenExpandEqualsPerEventFold(t *testing.T) {
	type row struct {
		name, ip string
		loggedIn bool
	}
	var stream []row
	names := []string{
		"web:home:mentions:stream:avatar:profile_click",
		"web:home:mentions:grid:avatar:profile_click",
		"iphone:profile:header:bio:link:click",
		"Web:Home:::tweet:CLICK", // not lowercase: dropped
		"too:few:components",     // malformed: dropped
	}
	ips := []string{geo.IPFor("us", 1), geo.IPFor("us", 2), geo.IPFor("jp", 3), "203.0.113.9", "nonsense"}
	for i := 0; i < 300; i++ {
		stream = append(stream, row{names[i%len(names)], ips[(i/2)%len(ips)], i%3 != 0})
	}

	want := make(map[RollupKey]int64)
	c := newRollupCombiner()
	for _, r := range stream {
		c.add(r.name, r.ip, r.loggedIn)
		name, err := events.ParseName(r.name)
		if err != nil {
			continue
		}
		for lvl := 0; lvl < events.NumRollupLevels; lvl++ {
			want[RollupKey{
				Level:    events.RollupLevel(lvl),
				Name:     name.Rollup(events.RollupLevel(lvl)).String(),
				Country:  geo.CountryOf(r.ip),
				LoggedIn: r.loggedIn,
			}]++
		}
	}
	got := c.partials()
	if len(got) != len(want) {
		t.Fatalf("%d rows, per-event fold %d", len(got), len(want))
	}
	for k, n := range want {
		if got[k] != n {
			t.Errorf("%+v = %d, per-event fold %d", k, got[k], n)
		}
	}
	if n := got[RollupKey{Level: 4, Name: "web:*:*:*:*:profile_click", Country: geo.Unknown, LoggedIn: true}]; n == 0 {
		t.Error("no unknown-country cell: the case is not exercised")
	}
	level0 := 0
	for k := range want {
		if k.Level == 0 {
			level0++
		}
	}
	if len(c.counts) > level0 {
		t.Errorf("combiner holds %d cells, more than the %d level-0 rows", len(c.counts), level0)
	}
}
