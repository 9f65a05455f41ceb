package analytics

import (
	"math"
	"testing"
	"time"

	"unilog/internal/dataflow"
	"unilog/internal/events"
	"unilog/internal/hdfs"
	"unilog/internal/session"
	"unilog/internal/workload"
)

var day = time.Date(2012, 8, 21, 0, 0, 0, 0, time.UTC)

// corpus builds one shared warehouse + session store for the test suite.
type corpus struct {
	fs    *hdfs.FS
	dict  *session.Dictionary
	truth *workload.Truth
}

var shared *corpus

func buildCorpus(t *testing.T) *corpus {
	t.Helper()
	if shared != nil {
		return shared
	}
	cfg := workload.DefaultConfig(day)
	cfg.Users = 150
	cfg.LoggedOutSessions = 300
	evs, truth := workload.New(cfg).Generate()
	fs := hdfs.New(0)
	if err := workload.WriteWarehouse(fs, evs); err != nil {
		t.Fatal(err)
	}
	dict, _, _, err := session.BuildDay(fs, day, 0)
	if err != nil {
		t.Fatal(err)
	}
	shared = &corpus{fs: fs, dict: dict, truth: truth}
	return shared
}

func TestMatcherConstructors(t *testing.T) {
	m, err := MatcherFromPattern("*:profile_click")
	if err != nil {
		t.Fatal(err)
	}
	if !m("web:home:timeline:stream:avatar:profile_click") || m("web:home:::page:open") {
		t.Fatal("pattern matcher wrong")
	}
	r, err := MatcherFromRegexp(`^web:.*:click$`)
	if err != nil {
		t.Fatal(err)
	}
	if !r("web:home:trends:module:trend:click") || r("iphone:home:trends:module:trend:click") {
		t.Fatal("regexp matcher wrong")
	}
	if _, err := MatcherFromPattern("BAD PATTERN"); err == nil {
		t.Fatal("bad pattern accepted")
	}
	if _, err := MatcherFromRegexp("(unclosed"); err == nil {
		t.Fatal("bad regexp accepted")
	}
}

// TestCountMatchesGroundTruth: the CountClientEvents UDF over sequences
// recovers the generator's exact planted counts.
func TestCountMatchesGroundTruth(t *testing.T) {
	c := buildCorpus(t)
	m, err := MatcherFromRegexp(`^[a-z_]+:home:who_to_follow:module:user:impression$`)
	if err != nil {
		t.Fatal(err)
	}
	j := dataflow.NewJob("count-seq", c.fs)
	rep, err := CountSequencesDay(j, day, c.dict, m)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Events != c.truth.FeatureImpressions[workload.FeatureWhoToFollow] {
		t.Fatalf("events = %d, truth = %d", rep.Events, c.truth.FeatureImpressions[workload.FeatureWhoToFollow])
	}
	if rep.TotalSessions != c.truth.Sessions {
		t.Fatalf("total sessions = %d, truth = %d", rep.TotalSessions, c.truth.Sessions)
	}
	if rep.Sessions == 0 || rep.Sessions > rep.Events {
		t.Fatalf("sessions with = %d", rep.Sessions)
	}
}

// TestRawAndSequencePathsAgree: both query paths return identical answers;
// only their costs differ (§4.1; the root BenchmarkMapTaskReduction and
// BenchmarkCTROverSequences report those).
func TestRawAndSequencePathsAgree(t *testing.T) {
	c := buildCorpus(t)
	m, err := MatcherFromPattern("*:profile_click")
	if err != nil {
		t.Fatal(err)
	}
	seqJob := dataflow.NewJob("seq", c.fs)
	seqRep, err := CountSequencesDay(seqJob, day, c.dict, m)
	if err != nil {
		t.Fatal(err)
	}
	rawJob := dataflow.NewJob("raw", c.fs)
	rawRep, err := CountRawDay(rawJob, day, m)
	if err != nil {
		t.Fatal(err)
	}
	if seqRep != rawRep {
		t.Fatalf("answers differ: seq %+v raw %+v", seqRep, rawRep)
	}
	ss, rs := seqJob.Stats(), rawJob.Stats()
	if ss.BytesRead >= rs.BytesRead || ss.MapTasks >= rs.MapTasks {
		t.Fatalf("sequence path not cheaper: seq %+v raw %+v", ss, rs)
	}
	if ss.ShuffleBytes >= rs.ShuffleBytes && rs.ShuffleBytes > 0 {
		t.Fatalf("sequence path shuffled more: %d vs %d", ss.ShuffleBytes, rs.ShuffleBytes)
	}
}

func TestCounterExpansion(t *testing.T) {
	c := buildCorpus(t)
	m, _ := MatcherFromPattern("web:home")
	counter := NewCounter(c.dict, m)
	if len(counter.symbols) == 0 {
		t.Fatal("pattern expanded to zero symbols")
	}
	// A matcher that hits nothing counts nothing.
	none := NewCounter(c.dict, func(string) bool { return false })
	if none.Count("anything") != 0 {
		t.Fatal("empty counter matched")
	}
}

// TestFunnelRecoversPlantedDropoff reproduces the §5.3 worked example: the
// per-stage counts are monotone non-increasing and match the generator's
// planted continuation rates.
func TestFunnelRecoversPlantedDropoff(t *testing.T) {
	c := buildCorpus(t)
	stages := make([]Matcher, 5)
	for i := 0; i < 5; i++ {
		suffix := events.MustParseName(workload.FunnelStages("web")[i])
		suffix.Client = ""
		s := suffix
		stages[i] = func(name string) bool {
			n, err := events.ParseName(name)
			if err != nil {
				return false
			}
			n.Client = ""
			return n == s
		}
	}
	f := NewFunnel(c.dict, stages...)
	j := dataflow.NewJob("funnel", c.fs)
	rep, err := FunnelSequencesDay(j, day, f)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Examined != c.truth.Sessions {
		t.Fatalf("examined %d sessions, truth %d", rep.Examined, c.truth.Sessions)
	}
	for i := range rep.Completed {
		if rep.Completed[i] != c.truth.FunnelStage[i] {
			t.Fatalf("stage %d = %d, truth %d", i, rep.Completed[i], c.truth.FunnelStage[i])
		}
		if i > 0 && rep.Completed[i] > rep.Completed[i-1] {
			t.Fatalf("funnel not monotone: %v", rep.Completed)
		}
	}
	ab := rep.Abandonment()
	if len(ab) != 4 {
		t.Fatalf("abandonment = %v", ab)
	}
}

// TestFunnelScannerMatchesRegexp: the linear Depth scanner agrees with the
// paper's regular-expression translation on every session.
func TestFunnelScannerMatchesRegexp(t *testing.T) {
	c := buildCorpus(t)
	stages := []Matcher{
		func(n string) bool { return events.MustParsePattern("*:page:open").MatchesString(n) },
		func(n string) bool { return events.MustParsePattern("*:impression").MatchesString(n) },
		func(n string) bool { return events.MustParsePattern("*:click").MatchesString(n) },
	}
	f := NewFunnel(c.dict, stages...)
	res := make([]*regexpMatcher, f.NumStages()+1)
	for k := 1; k <= f.NumStages(); k++ {
		re, err := f.Regexp(k)
		if err != nil {
			t.Fatal(err)
		}
		res[k] = &regexpMatcher{re}
	}
	n := 0
	err := session.ScanDay(c.fs, day, func(r *session.Record) error {
		depth := f.Depth(r.Sequence)
		for k := 1; k <= f.NumStages(); k++ {
			if got := res[k].re.MatchString(r.Sequence); got != (depth >= k) {
				t.Fatalf("sequence %q: regexp k=%d says %v, scanner depth %d", r.Sequence, k, got, depth)
			}
		}
		n++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no sessions scanned")
	}
}

type regexpMatcher struct {
	re interface{ MatchString(string) bool }
}

// TestFunnelRawAgrees: the raw-logs funnel produces the same report.
func TestFunnelRawAgrees(t *testing.T) {
	c := buildCorpus(t)
	stageNames := workload.FunnelStages("web")
	seqStages := make([]Matcher, len(stageNames))
	rawStages := make([]Matcher, len(stageNames))
	for i, n := range stageNames {
		name := n
		seqStages[i] = func(s string) bool { return s == name }
		rawStages[i] = func(s string) bool { return s == name }
	}
	f := NewFunnel(c.dict, seqStages...)
	seqJob := dataflow.NewJob("f-seq", c.fs)
	seqRep, err := FunnelSequencesDay(seqJob, day, f)
	if err != nil {
		t.Fatal(err)
	}
	rawJob := dataflow.NewJob("f-raw", c.fs)
	rawRep, err := FunnelRawDay(rawJob, day, rawStages)
	if err != nil {
		t.Fatal(err)
	}
	if seqRep.Examined != rawRep.Examined {
		t.Fatalf("examined: seq %d raw %d", seqRep.Examined, rawRep.Examined)
	}
	for i := range seqRep.Completed {
		if seqRep.Completed[i] != rawRep.Completed[i] {
			t.Fatalf("stage %d: seq %d raw %d", i, seqRep.Completed[i], rawRep.Completed[i])
		}
	}
	if seqJob.Stats().BytesRead >= rawJob.Stats().BytesRead {
		t.Fatal("sequence funnel read more bytes than raw")
	}
}

func TestUniqueUsersPerStage(t *testing.T) {
	c := buildCorpus(t)
	// All funnel users are logged out (user id 0), so distinct users per
	// stage is 1 where any session completed, 0 otherwise.
	f := NewFunnelFromNames(c.dict, workload.FunnelStages("web")...)
	j := dataflow.NewJob("uu", c.fs)
	users, err := UniqueUsersPerStage(j, day, f)
	if err != nil {
		t.Fatal(err)
	}
	for i, u := range users {
		if c.truth.FunnelStage[i] > 0 && u == 0 {
			t.Fatalf("stage %d: no users despite %d sessions", i, c.truth.FunnelStage[i])
		}
		if u > 1 {
			t.Fatalf("stage %d: %d distinct users for logged-out funnel", i, u)
		}
	}
}

// TestCTRRecovery is the §5.2 query: measured CTR matches planted ground
// truth exactly (counts) and approximately (rates vs config).
func TestCTRRecovery(t *testing.T) {
	c := buildCorpus(t)
	cfg := workload.DefaultConfig(day)
	for _, feature := range []string{workload.FeatureWhoToFollow, workload.FeatureSearch, workload.FeatureTrends} {
		imp := workload.FeatureImpressionName("web", feature)
		impSuffix := imp[len("web"):]
		clk := workload.FeatureClickName("web", feature)
		clkSuffix := clk[len("web"):]
		impM := func(n string) bool { return len(n) > len(impSuffix) && n[len(n)-len(impSuffix):] == impSuffix }
		clkM := func(n string) bool { return len(n) > len(clkSuffix) && n[len(n)-len(clkSuffix):] == clkSuffix }
		rep, err := RateOverSequences(c.fs, day, c.dict, impM, clkM)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Impressions != c.truth.FeatureImpressions[feature] || rep.Actions != c.truth.FeatureClicks[feature] {
			t.Fatalf("%s: measured %d/%d, truth %d/%d", feature, rep.Actions, rep.Impressions,
				c.truth.FeatureClicks[feature], c.truth.FeatureImpressions[feature])
		}
		if math.Abs(rep.Rate()-cfg.CTR[feature]) > 0.06 {
			t.Fatalf("%s: rate %.3f, planted %.3f", feature, rep.Rate(), cfg.CTR[feature])
		}
	}
}

// TestRollupConservation is the §3.2 rollup job: every level's counts sum
// to the total event count, and the example top-level metric matches.
func TestRollupConservation(t *testing.T) {
	c := buildCorpus(t)
	j := dataflow.NewJob("rollup", c.fs)
	rollups, err := Rollups(j, day)
	if err != nil {
		t.Fatal(err)
	}
	perLevel := make(map[events.RollupLevel]int64)
	for k, n := range rollups {
		perLevel[k.Level] += n
	}
	for lvl := 0; lvl < events.NumRollupLevels; lvl++ {
		if perLevel[events.RollupLevel(lvl)] != c.truth.Events {
			t.Fatalf("level %d sums to %d, want %d", lvl, perLevel[events.RollupLevel(lvl)], c.truth.Events)
		}
	}
	// Level-4 profile clicks across web equal the planted collocation hits
	// for web plus any web profile clicks (all come from the collocation).
	total := RollupTotal(rollups, 4, "web:*:*:*:*:profile_click")
	if total == 0 {
		t.Fatal("no web profile clicks in rollups")
	}
}
