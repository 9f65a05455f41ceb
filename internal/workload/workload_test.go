package workload

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"testing"
	"time"

	"unilog/internal/events"
	"unilog/internal/geo"
	"unilog/internal/hdfs"
	"unilog/internal/session"
	"unilog/internal/warehouse"
)

var day = time.Date(2012, 8, 21, 0, 0, 0, 0, time.UTC)

func smallConfig() Config {
	cfg := DefaultConfig(day)
	cfg.Users = 100
	cfg.LoggedOutSessions = 40
	return cfg
}

func TestDeterminism(t *testing.T) {
	evs1, truth1 := New(smallConfig()).Generate()
	evs2, truth2 := New(smallConfig()).Generate()
	if len(evs1) != len(evs2) || truth1.Events != truth2.Events || truth1.Sessions != truth2.Sessions {
		t.Fatalf("non-deterministic: %d/%d events", len(evs1), len(evs2))
	}
	for i := range evs1 {
		if evs1[i].Name != evs2[i].Name || evs1[i].Timestamp != evs2[i].Timestamp || evs1[i].UserID != evs2[i].UserID {
			t.Fatalf("event %d differs", i)
		}
	}
	// A different seed produces different traffic.
	cfg := smallConfig()
	cfg.Seed = 99
	evs3, _ := New(cfg).Generate()
	same := len(evs3) == len(evs1)
	if same {
		diff := false
		for i := range evs1 {
			if evs1[i].Name != evs3[i].Name {
				diff = true
				break
			}
		}
		same = !diff
	}
	if same {
		t.Fatal("different seeds produced identical traffic")
	}
}

func TestEventsValidAndOrdered(t *testing.T) {
	evs, truth := New(smallConfig()).Generate()
	if int64(len(evs)) != truth.Events {
		t.Fatalf("len = %d, truth = %d", len(evs), truth.Events)
	}
	var prev int64
	for i := range evs {
		if err := evs[i].Name.Validate(); err != nil {
			t.Fatalf("event %d invalid: %v", i, err)
		}
		if evs[i].Timestamp < prev {
			t.Fatalf("events not time-ordered at %d", i)
		}
		prev = evs[i].Timestamp
		// Every event stays inside the generated day.
		at := time.UnixMilli(evs[i].Timestamp).UTC()
		if at.Before(day) || !at.Before(day.Add(24*time.Hour)) {
			t.Fatalf("event %d at %v outside day", i, at)
		}
	}
}

// TestSessionCountMatchesSessionizer: the generator's ground-truth session
// count must agree with the 30-minute-gap sessionizer applied to its own
// output — the linchpin of every session-level experiment.
func TestSessionCountMatchesSessionizer(t *testing.T) {
	evs, truth := New(smallConfig()).Generate()
	hist := make(map[string]int64)
	for i := range evs {
		hist[evs[i].Name.String()]++
	}
	dict, err := session.Build(hist)
	if err != nil {
		t.Fatal(err)
	}
	b := session.NewBuilder(dict)
	for i := range evs {
		b.Add(&evs[i])
	}
	recs, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(recs)) != truth.Sessions {
		t.Fatalf("sessionizer found %d sessions, truth says %d", len(recs), truth.Sessions)
	}
}

func TestPlantedCTRRecoverable(t *testing.T) {
	cfg := DefaultConfig(day)
	cfg.Users = 400
	evs, truth := New(cfg).Generate()
	// Count impressions and clicks per feature from the raw stream.
	for _, feature := range []string{FeatureWhoToFollow, FeatureSearch, FeatureTrends, FeatureDiscover} {
		var imps, clicks int64
		for i := range evs {
			n := evs[i].Name
			fe := featureEvents[feature]
			if n.Section == fe.section && n.Component == fe.component && n.Element == fe.element && n.Page == featurePage[feature] {
				switch n.Action {
				case "impression":
					imps++
				case "click":
					clicks++
				}
			}
		}
		if imps != truth.FeatureImpressions[feature] || clicks != truth.FeatureClicks[feature] {
			t.Fatalf("%s: stream counts %d/%d != truth %d/%d", feature, imps, clicks,
				truth.FeatureImpressions[feature], truth.FeatureClicks[feature])
		}
		if imps < 100 {
			t.Fatalf("%s: only %d impressions, workload too small to test CTR", feature, imps)
		}
		got := float64(clicks) / float64(imps)
		want := cfg.CTR[feature]
		if math.Abs(got-want) > 0.05 {
			t.Fatalf("%s: measured CTR %.3f, planted %.3f", feature, got, want)
		}
	}
}

func TestFunnelMonotoneAndCalibrated(t *testing.T) {
	cfg := DefaultConfig(day)
	cfg.LoggedOutSessions = 2000
	_, truth := New(cfg).Generate()
	for i := 1; i < len(truth.FunnelStage); i++ {
		if truth.FunnelStage[i] > truth.FunnelStage[i-1] {
			t.Fatalf("funnel not monotone: %v", truth.FunnelStage)
		}
		if truth.FunnelStage[i-1] == 0 {
			continue
		}
		got := float64(truth.FunnelStage[i]) / float64(truth.FunnelStage[i-1])
		want := cfg.FunnelContinue[i-1]
		if math.Abs(got-want) > 0.06 {
			t.Fatalf("stage %d continuation = %.3f, planted %.3f", i, got, want)
		}
	}
	if truth.FunnelStage[0] < 500 {
		t.Fatalf("funnel entries = %d, too few", truth.FunnelStage[0])
	}
}

func TestCollocationPlanted(t *testing.T) {
	cfg := DefaultConfig(day)
	_, truth := New(cfg).Generate()
	if truth.ExpandEvents < 100 {
		t.Fatalf("expand events = %d", truth.ExpandEvents)
	}
	rate := float64(truth.ExpandThenProfileClick) / float64(truth.ExpandEvents)
	if math.Abs(rate-cfg.CollocationProb) > 0.08 {
		t.Fatalf("collocation rate = %.3f, planted %.3f", rate, cfg.CollocationProb)
	}
}

func TestCountryIPsResolve(t *testing.T) {
	evs, truth := New(smallConfig()).Generate()
	byCountry := make(map[string]bool)
	for i := range evs {
		c := geo.CountryOf(evs[i].IP)
		if c == geo.Unknown {
			t.Fatalf("event %d IP %s unresolvable", i, evs[i].IP)
		}
		byCountry[c] = true
	}
	if len(byCountry) < 4 {
		t.Fatalf("only %d countries in traffic", len(byCountry))
	}
	var sum int64
	for _, n := range truth.SessionsPerCountry {
		sum += n
	}
	if sum != truth.Sessions {
		t.Fatalf("per-country sessions sum %d != %d", sum, truth.Sessions)
	}
}

// TestGenerateToMatchesGenerate: Generate is a thin wrapper — streaming
// the same config through GenerateTo yields the same events (modulo the
// wrapper's final global sort) and the same ground truth.
func TestGenerateToMatchesGenerate(t *testing.T) {
	var streamed []events.ClientEvent
	truthStream, err := New(smallConfig()).GenerateTo(func(e *events.ClientEvent) error {
		streamed = append(streamed, *e)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	evs, truth := New(smallConfig()).Generate()
	if int64(len(streamed)) != truthStream.Events || len(streamed) != len(evs) {
		t.Fatalf("streamed %d events, Generate produced %d (truth %d)", len(streamed), len(evs), truthStream.Events)
	}
	sortByTimestamp := func(s []events.ClientEvent) {
		sort.SliceStable(s, func(i, j int) bool { return s[i].Timestamp < s[j].Timestamp })
	}
	sortByTimestamp(streamed)
	for i := range evs {
		if evs[i].Name != streamed[i].Name || evs[i].Timestamp != streamed[i].Timestamp ||
			evs[i].UserID != streamed[i].UserID || evs[i].SessionID != streamed[i].SessionID {
			t.Fatalf("event %d differs between Generate and GenerateTo", i)
		}
	}
	if truth.Events != truthStream.Events || truth.Sessions != truthStream.Sessions ||
		truth.UniqueUsers != truthStream.UniqueUsers || truth.LoggedOutSessions != truthStream.LoggedOutSessions {
		t.Fatalf("truth diverged: %+v vs %+v", truth, truthStream)
	}
	for i := range truth.FunnelStage {
		if truth.FunnelStage[i] != truthStream.FunnelStage[i] {
			t.Fatalf("funnel truth diverged at stage %d", i)
		}
	}
}

// TestGenerateToSessionsStreamInStartOrder: the streamed sessions arrive
// in start order with each session's events time-ordered, so the
// warehouse writer sees at most session-boundary hour regressions.
func TestGenerateToSessionsStreamInStartOrder(t *testing.T) {
	var lastOfSession = map[string]int64{}
	var lastStart int64
	_, err := New(smallConfig()).GenerateTo(func(e *events.ClientEvent) error {
		sess := fmt.Sprintf("%d/%s", e.UserID, e.SessionID)
		if prev, ok := lastOfSession[sess]; ok {
			if e.Timestamp < prev {
				t.Fatalf("session %s went backwards: %d after %d", sess, e.Timestamp, prev)
			}
		} else {
			// A session's first event: session starts must be non-decreasing.
			if e.Timestamp < lastStart {
				t.Fatalf("session %s started at %d after a session starting %d", sess, e.Timestamp, lastStart)
			}
			lastStart = e.Timestamp
		}
		lastOfSession[sess] = e.Timestamp
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestGenerateToStreamsIntoWarehouse: the emit-callback path feeds the
// warehouse writer directly, and the sessionizer recovers the exact
// ground truth from what landed — the path bench/'s generator and the
// scenario harness take.
func TestGenerateToStreamsIntoWarehouse(t *testing.T) {
	fs := hdfs.New(0)
	w := warehouse.NewWriter(fs, events.Category)
	truth, err := New(smallConfig()).GenerateTo(func(e *events.ClientEvent) error {
		return w.Append(e)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Written() != truth.Events {
		t.Fatalf("wrote %d events, truth %d", w.Written(), truth.Events)
	}
	_, hist, stats, err := session.BuildDay(fs, day, 0)
	if err != nil {
		t.Fatal(err)
	}
	if hist.Events != truth.Events || stats.Sessions != truth.Sessions {
		t.Fatalf("warehouse day = %d events / %d sessions, truth %d / %d",
			hist.Events, stats.Sessions, truth.Events, truth.Sessions)
	}
}

// TestGenerateToSinkErrorAborts: a failing sink stops generation and
// surfaces the error.
func TestGenerateToSinkErrorAborts(t *testing.T) {
	boom := errors.New("disk full")
	n := 0
	_, err := New(smallConfig()).GenerateTo(func(*events.ClientEvent) error {
		n++
		if n >= 10 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the sink's error", err)
	}
	if n > 10 {
		t.Fatalf("sink called %d times after failing", n)
	}
}

func TestWriteWarehouse(t *testing.T) {
	evs, truth := New(smallConfig()).Generate()
	fs := hdfs.New(0)
	if err := WriteWarehouse(fs, evs); err != nil {
		t.Fatal(err)
	}
	_, hist, stats, err := session.BuildDay(fs, day, 0)
	if err != nil {
		t.Fatal(err)
	}
	if hist.Events != truth.Events {
		t.Fatalf("warehouse events = %d, truth = %d", hist.Events, truth.Events)
	}
	if stats.Sessions != truth.Sessions {
		t.Fatalf("warehouse sessions = %d, truth = %d", stats.Sessions, truth.Sessions)
	}
}

func TestFunnelStagesConsistentAcrossClients(t *testing.T) {
	web := FunnelStages("web")
	iphone := FunnelStages("iphone")
	if len(web) != 5 || len(iphone) != 5 {
		t.Fatal("funnel must have 5 stages")
	}
	for i := range web {
		nw := events.MustParseName(web[i])
		ni := events.MustParseName(iphone[i])
		if nw.Client != "web" || ni.Client != "iphone" {
			t.Fatalf("stage %d clients wrong", i)
		}
		nw.Client, ni.Client = "", ""
		if nw != ni {
			t.Fatalf("stage %d differs across clients: %v vs %v", i, nw, ni)
		}
	}
}

func TestFeatureNamesParse(t *testing.T) {
	for _, f := range []string{FeatureWhoToFollow, FeatureSearch, FeatureTrends, FeatureDiscover} {
		for _, c := range []string{"web", "iphone"} {
			for _, name := range []string{FeatureImpressionName(c, f), FeatureClickName(c, f), FeatureFollowName(c, f)} {
				if _, err := events.ParseName(name); err != nil {
					t.Errorf("%s: %v", name, err)
				}
			}
		}
	}
}
