package analytics

import (
	"math"
	"strings"
	"testing"

	"unilog/internal/dataflow"
	"unilog/internal/geo"
	"unilog/internal/workload"
)

// TestSegmentedCTR is the §4.1 ad-hoc query: CTR for users in one country,
// via join-with-users-table + selection. The planted CTR is country-
// independent, so each sufficiently large segment must recover it; and
// segment impressions must sum to the logged-in total.
func TestSegmentedCTR(t *testing.T) {
	c := buildCorpus(t)
	rows := make([]dataflow.Tuple, 0, len(c.truth.UserCountry))
	for id, country := range c.truth.UserCountry {
		rows = append(rows, dataflow.Tuple{id, country, c.truth.UserClient[id]})
	}
	usersDS := dataflow.NewDataset(dataflow.NewJob("users", c.fs),
		dataflow.Schema{"user_id", "country", "primary_client"}, rows)
	if n, err := usersDS.Count(); err != nil || n != c.truth.UniqueUsers {
		t.Fatalf("users table has %d rows, %v, want %d", n, err, c.truth.UniqueUsers)
	}

	impSuffix := workload.FeatureImpressionName("web", workload.FeatureWhoToFollow)[len("web"):]
	clkSuffix := workload.FeatureClickName("web", workload.FeatureWhoToFollow)[len("web"):]
	imp := func(n string) bool { return strings.HasSuffix(n, impSuffix) }
	clk := func(n string) bool { return strings.HasSuffix(n, clkSuffix) }

	cfg := workload.DefaultConfig(day)
	var segmentImps int64
	for _, country := range geo.Countries {
		j := dataflow.NewJob("segment-"+country, c.fs)
		rep, err := RateForSegment(j, day, c.dict, imp, clk, usersDS, ColumnEquals("country", country))
		if err != nil {
			t.Fatal(err)
		}
		segmentImps += rep.Impressions
		if rep.Impressions > 300 {
			if math.Abs(rep.Rate()-cfg.CTR[workload.FeatureWhoToFollow]) > 0.08 {
				t.Fatalf("%s segment CTR = %.3f, planted %.3f (n=%d)",
					country, rep.Rate(), cfg.CTR[workload.FeatureWhoToFollow], rep.Impressions)
			}
		}
	}
	// Segments partition the logged-in traffic: their impressions sum to
	// the all-users impressions minus logged-out sessions' impressions.
	global, err := RateOverSequences(c.fs, day, c.dict, imp, clk)
	if err != nil {
		t.Fatal(err)
	}
	if segmentImps > global.Impressions {
		t.Fatalf("segments sum %d > global %d", segmentImps, global.Impressions)
	}
	// Logged-out browse sessions see the feature too; the difference is
	// exactly their share. Verify it is non-negative and plausible.
	loggedOutShare := global.Impressions - segmentImps
	if loggedOutShare < 0 {
		t.Fatalf("negative logged-out share %d", loggedOutShare)
	}
}

func TestColumnEquals(t *testing.T) {
	s := dataflow.Schema{"a", "country"}
	p := ColumnEquals("country", "uk")
	if !p(s, dataflow.Tuple{int64(1), "uk"}) || p(s, dataflow.Tuple{int64(1), "us"}) {
		t.Fatal("predicate wrong")
	}
	if p(dataflow.Schema{"a"}, dataflow.Tuple{int64(1)}) {
		t.Fatal("missing column matched")
	}
}
