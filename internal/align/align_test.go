package align

import (
	"testing"
	"testing/quick"
)

func TestLocalScoreBasics(t *testing.T) {
	s := DefaultScoring
	cases := []struct {
		a, b string
		want int
	}{
		{"abc", "abc", 6},       // perfect match: 3 * +2
		{"abc", "xbz", 2},       // single shared symbol
		{"abc", "xyz", 0},       // nothing shared
		{"", "abc", 0},          // empty side
		{"abcdef", "cde", 6},    // substring: 3 matches
		{"abcdef", "abXdef", 9}, // mismatch bridged: 5 matches (+10) - 1 mismatch
	}
	for _, c := range cases {
		if got := LocalScore(c.a, c.b, s); got != c.want {
			t.Errorf("LocalScore(%q, %q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestLocalScoreSymmetric(t *testing.T) {
	f := func(a, b string) bool {
		return LocalScore(a, b, DefaultScoring) == LocalScore(b, a, DefaultScoring)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSelfSimilarityIsOne(t *testing.T) {
	f := func(a string) bool {
		if len(a) == 0 {
			return Similarity(a, a, DefaultScoring) == 0
		}
		sim := Similarity(a, a, DefaultScoring)
		return sim > 0.999 && sim < 1.001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSimilarityBounds(t *testing.T) {
	f := func(a, b string) bool {
		sim := Similarity(a, b, DefaultScoring)
		return sim >= 0 && sim <= 1.0001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQueryByExample(t *testing.T) {
	// The query session browses then follows; candidate 0 is nearly
	// identical, candidate 1 unrelated, candidate 2 shares a prefix.
	query := "OIICF" // open, impress, impress, click, follow
	candidates := []string{
		"OIICFX",
		"ZZZZZZZ",
		"OIIQQQ",
	}
	got := QueryByExample(query, candidates, DefaultScoring, 10)
	if len(got) != 2 {
		t.Fatalf("results = %+v (unrelated candidate must be filtered)", got)
	}
	if got[0].Index != 0 || got[1].Index != 2 {
		t.Fatalf("ranking = %+v", got)
	}
	if got[0].Similarity <= got[1].Similarity {
		t.Fatalf("similarities not ordered: %+v", got)
	}
	// k truncates.
	if top := QueryByExample(query, candidates, DefaultScoring, 1); len(top) != 1 || top[0].Index != 0 {
		t.Fatalf("top-1 = %+v", top)
	}
}

func TestGapsPreferredOverMismatchRun(t *testing.T) {
	// "abcdef" vs "abcXXXdef": local alignment should bridge with gaps and
	// keep all 6 matches (score 12 - 3 gaps = 9) rather than stopping at 3.
	got := LocalScore("abcdef", "abcXXXdef", DefaultScoring)
	if got != 9 {
		t.Fatalf("score = %d, want 9", got)
	}
}
