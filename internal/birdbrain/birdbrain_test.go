package birdbrain

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"unilog/internal/hdfs"
	"unilog/internal/session"
	"unilog/internal/workload"
)

var day = time.Date(2012, 8, 21, 0, 0, 0, 0, time.UTC)

func build(t *testing.T) (*hdfs.FS, *workload.Truth) {
	t.Helper()
	cfg := workload.DefaultConfig(day)
	cfg.Users = 120
	cfg.LoggedOutSessions = 60
	evs, truth := workload.New(cfg).Generate()
	fs := hdfs.New(0)
	if err := workload.WriteWarehouse(fs, evs); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := session.BuildDay(fs, day, 0); err != nil {
		t.Fatal(err)
	}
	return fs, truth
}

func TestSummaryMatchesGroundTruth(t *testing.T) {
	fs, truth := build(t)
	s, err := Build(fs, day, 5)
	if err != nil {
		t.Fatal(err)
	}
	if s.Sessions != truth.Sessions {
		t.Fatalf("sessions = %d, truth %d", s.Sessions, truth.Sessions)
	}
	if s.Events != truth.Events {
		t.Fatalf("events = %d, truth %d", s.Events, truth.Events)
	}
	if s.UniqueUsers != truth.UniqueUsers {
		t.Fatalf("users = %d, truth %d", s.UniqueUsers, truth.UniqueUsers)
	}
	if s.LoggedOutSessions != truth.LoggedOutSessions {
		t.Fatalf("logged out = %d, truth %d", s.LoggedOutSessions, truth.LoggedOutSessions)
	}
	if s.LoggedInSessions+s.LoggedOutSessions != s.Sessions {
		t.Fatal("login split does not sum")
	}
	// Client drill-down matches the generator exactly.
	for client, n := range truth.SessionsPerClient {
		if s.ByClient[client] != n {
			t.Fatalf("client %s = %d, truth %d", client, s.ByClient[client], n)
		}
	}
	// Country drill-down matches.
	for country, n := range truth.SessionsPerCountry {
		if s.ByCountry[country] != n {
			t.Fatalf("country %s = %d, truth %d", country, s.ByCountry[country], n)
		}
	}
	// Duration buckets sum to total sessions.
	var sum int64
	for _, n := range s.ByDuration {
		sum += n
	}
	if sum != s.Sessions {
		t.Fatalf("duration buckets sum %d != %d", sum, s.Sessions)
	}
	if len(s.TopEvents) != 5 || s.TopEvents[0].Count < s.TopEvents[4].Count {
		t.Fatalf("top events = %+v", s.TopEvents)
	}
	if s.MeanSessionSeconds <= 0 {
		t.Fatal("mean session duration not computed")
	}
}

func TestBucketLabel(t *testing.T) {
	cases := map[int32]string{
		0: "<1m", 59: "<1m", 60: "1-5m", 299: "1-5m", 300: "5-15m",
		899: "5-15m", 1799: "15-30m", 3599: "30m-1h", 3600: ">1h", 100000: ">1h",
	}
	for sec, want := range cases {
		if got := BucketLabel(sec); got != want {
			t.Errorf("BucketLabel(%d) = %q, want %q", sec, got, want)
		}
	}
}

func TestRender(t *testing.T) {
	fs, _ := build(t)
	s, err := Build(fs, day, 3)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	s.Render(&buf)
	out := buf.String()
	for _, want := range []string{"BirdBrain daily summary", "sessions by client", "sessions by country", "top events", "web"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestBuildWithoutStore(t *testing.T) {
	fs := hdfs.New(0)
	if _, err := Build(fs, day, 3); err == nil {
		t.Fatal("Build succeeded with no session store")
	}
}

func TestTrendAcrossDays(t *testing.T) {
	fs := hdfs.New(0)
	// Three days of growing traffic.
	for i := 0; i < 3; i++ {
		d := day.AddDate(0, 0, i)
		cfg := workload.DefaultConfig(d)
		cfg.Users = 40 * (i + 1)
		cfg.Seed = int64(100 + i)
		cfg.LoggedOutSessions = 20
		evs, _ := workload.New(cfg).Generate()
		if err := workload.WriteWarehouse(fs, evs); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := session.BuildDay(fs, d, 0); err != nil {
			t.Fatal(err)
		}
	}
	tr, err := BuildTrend(fs, day, 5) // two trailing days unbuilt
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Days) != 3 {
		t.Fatalf("trend days = %d", len(tr.Days))
	}
	// Growth shows through.
	if !(tr.Days[0].Sessions < tr.Days[2].Sessions) {
		t.Fatalf("no growth: %d .. %d", tr.Days[0].Sessions, tr.Days[2].Sessions)
	}
	for i, d := range tr.Days {
		if want := day.AddDate(0, 0, i); !d.Day.Equal(want) {
			t.Fatalf("trend day %d is %s, want %s", i, d.Day.Format("2006-01-02"), want.Format("2006-01-02"))
		}
	}
}

func TestBuildTrendEmpty(t *testing.T) {
	if _, err := BuildTrend(hdfs.New(0), day, 3); err == nil {
		t.Fatal("empty trend succeeded")
	}
}
