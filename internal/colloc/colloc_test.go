package colloc

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"unilog/internal/hdfs"
	"unilog/internal/session"
	"unilog/internal/workload"
)

func TestCountsAndPMI(t *testing.T) {
	// "ab" appears always together; "cd" independently.
	s := Collect([]string{"abab", "abab", "cdcc", "dcdd"})
	if n := s.bigrams[[2]rune{'a', 'b'}]; n != 4 {
		t.Fatalf("count(ab) = %d", n)
	}
	if got := s.PMI('a', 'b'); got <= 0 {
		t.Fatalf("PMI(ab) = %f, want positive", got)
	}
	if got := s.PMI('a', 'c'); !math.IsInf(got, -1) {
		t.Fatalf("PMI(ac) = %f, want -Inf (never adjacent)", got)
	}
}

func TestLLRHigherForDependentPair(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var seqs []string
	for i := 0; i < 300; i++ {
		var buf []rune
		for j := 0; j < 30; j++ {
			r := rune('a' + rng.Intn(6))
			buf = append(buf, r)
			// Plant: 'a' is followed by 'b' 80% of the time.
			if r == 'a' && rng.Float64() < 0.8 {
				buf = append(buf, 'b')
			}
		}
		seqs = append(seqs, string(buf))
	}
	s := Collect(seqs)
	planted := s.LLR('a', 'b')
	indep := s.LLR('c', 'd')
	if planted <= indep {
		t.Fatalf("LLR planted %.1f <= independent %.1f", planted, indep)
	}
	if planted < 100 {
		t.Fatalf("LLR planted = %.1f, too weak", planted)
	}
}

func TestTopRanking(t *testing.T) {
	s := Collect([]string{"abababab", "xyxyxyxy", "pq"})
	top := s.TopLLR(2, 2)
	if len(top) != 2 {
		t.Fatalf("top = %v", top)
	}
	for _, p := range top {
		pair := string([]rune{p.A, p.B})
		if pair != "ab" && pair != "ba" && pair != "xy" && pair != "yx" {
			t.Fatalf("unexpected top pair %q", pair)
		}
	}
	// minCount filters the rare pq pair.
	for _, p := range s.TopPMI(10, 2) {
		if p.A == 'p' {
			t.Fatal("rare pair survived minCount")
		}
	}
}

func TestEmptyStats(t *testing.T) {
	s := Collect(nil)
	if got := s.LLR('a', 'b'); got != 0 {
		t.Fatalf("LLR on empty = %f", got)
	}
	if got := s.PMI('a', 'b'); !math.IsInf(got, -1) {
		t.Fatalf("PMI on empty = %f", got)
	}
	if top := s.TopLLR(5, 1); len(top) != 0 {
		t.Fatalf("top on empty = %v", top)
	}
}

// TestCollocationRecovery is §5.4: the planted expand→profile_click pair
// surfaces at the top of both rankings over real session sequences.
func TestCollocationRecovery(t *testing.T) {
	day := time.Date(2012, 8, 21, 0, 0, 0, 0, time.UTC)
	cfg := workload.DefaultConfig(day)
	cfg.Users = 300
	evs, _ := workload.New(cfg).Generate()
	fs := hdfs.New(0)
	if err := workload.WriteWarehouse(fs, evs); err != nil {
		t.Fatal(err)
	}
	dict, _, _, err := session.BuildDay(fs, day, 0)
	if err != nil {
		t.Fatal(err)
	}
	var seqs []string
	if err := session.ScanDay(fs, day, func(r *session.Record) error {
		seqs = append(seqs, r.Sequence)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	s := Collect(seqs)

	// The planted pair on the web client.
	expand, ok1 := dict.Symbol("web:home:timeline:stream:tweet:expand")
	click, ok2 := dict.Symbol("web:home:timeline:stream:avatar:profile_click")
	if !ok1 || !ok2 {
		t.Fatal("planted events missing from dictionary")
	}
	found := false
	for _, p := range s.TopLLR(20, 5) {
		if p.A == expand && p.B == click {
			found = true
			break
		}
	}
	if !found {
		top := s.TopLLR(20, 5)
		names := make([]string, 0, len(top))
		for _, p := range top {
			a, _ := dict.Name(p.A)
			b, _ := dict.Name(p.B)
			names = append(names, a+" -> "+b)
		}
		t.Fatalf("planted collocation not in top-20 LLR: %v", names)
	}
	if s.PMI(expand, click) <= 0 {
		t.Fatalf("PMI of planted pair = %f", s.PMI(expand, click))
	}
}
