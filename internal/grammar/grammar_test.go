package grammar

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestInduceSimpleRepeat(t *testing.T) {
	// "abab" x many sessions: "ab" must become a rule.
	g := Induce([]string{"abab", "abab", "ab"}, 2)
	if len(g.Rules) == 0 {
		t.Fatal("no rules induced")
	}
	if g.RuleString(0) != "ab" {
		t.Fatalf("rule 0 = %q, want ab", g.RuleString(0))
	}
	if g.CompressionRatio() <= 1 {
		t.Fatalf("ratio = %f", g.CompressionRatio())
	}
}

func TestHierarchicalRules(t *testing.T) {
	// "abcd" repeated: expect nested rules, e.g. R0=ab (or cd), and a
	// higher rule expanding to abcd.
	seqs := make([]string, 10)
	for i := range seqs {
		seqs[i] = strings.Repeat("abcd", 3)
	}
	g := Induce(seqs, 2)
	found := false
	for i := range g.Rules {
		if g.RuleString(i) == "abcd" {
			found = true
			break
		}
	}
	if !found {
		var got []string
		for i := range g.Rules {
			got = append(got, g.RuleString(i))
		}
		t.Fatalf("no rule expands to abcd; rules = %v", got)
	}
}

// TestExpansionReconstructsCorpus: expanding every compressed sequence
// reproduces the original sessions exactly — grammar induction is
// lossless.
func TestExpansionReconstructsCorpus(t *testing.T) {
	seqs := []string{"openviewclickopenview", "openviewopenview", "clickclickclick", "x"}
	g := Induce(seqs, 2)
	for i, seq := range g.Sequences {
		var out []rune
		for _, s := range seq {
			out = append(out, g.Expand(s)...)
		}
		if string(out) != seqs[i] {
			t.Fatalf("sequence %d expands to %q, want %q", i, string(out), seqs[i])
		}
	}
}

func TestExpansionProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		// Map into a small alphabet to force repeats.
		buf := make([]rune, len(raw))
		for i, b := range raw {
			buf[i] = rune('a' + b%4)
		}
		in := string(buf)
		g := Induce([]string{in}, 2)
		var out []rune
		for _, s := range g.Sequences[0] {
			out = append(out, g.Expand(s)...)
		}
		return string(out) == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNoPairRepeatsAfterInduction(t *testing.T) {
	seqs := []string{strings.Repeat("abcabcxyz", 5), strings.Repeat("abx", 7)}
	g := Induce(seqs, 2)
	counts := make(map[[2]Symbol]int)
	for _, seq := range g.Sequences {
		for i := 0; i+1 < len(seq); i++ {
			counts[[2]Symbol{seq[i], seq[i+1]}]++
		}
	}
	for p, n := range counts {
		if n >= 2 {
			// Overlapping self-pairs (aaa) legitimately survive; others not.
			if p[0] != p[1] {
				t.Fatalf("pair %v still occurs %d times", p, n)
			}
		}
	}
}

func TestTopRules(t *testing.T) {
	seqs := make([]string, 20)
	for i := range seqs {
		seqs[i] = strings.Repeat("signupformdone", 2) + "zz"
	}
	g := Induce(seqs, 2)
	top := g.TopRules(3, 4)
	if len(top) == 0 {
		t.Fatal("no top rules")
	}
	for i := 1; i < len(top); i++ {
		if top[i].Uses > top[i-1].Uses {
			t.Fatal("top rules not sorted by uses")
		}
	}
	if top[0].Length < 4 {
		t.Fatalf("minLen not honored: %+v", top[0])
	}
}

func TestMinSupportFloor(t *testing.T) {
	// minSupport below 2 is clamped; a single occurrence never makes a rule.
	g := Induce([]string{"abcdefg"}, 0)
	if len(g.Rules) != 0 {
		t.Fatalf("rules = %d on repeat-free input", len(g.Rules))
	}
}

func TestHigherMinSupport(t *testing.T) {
	seqs := []string{"abab", "abab"} // "ab" occurs 4 times total
	if g := Induce(seqs, 5); len(g.Rules) != 0 {
		t.Fatal("rule induced below support threshold")
	}
	if g := Induce(seqs, 4); len(g.Rules) == 0 {
		t.Fatal("rule not induced at support threshold")
	}
}
