// Package grammar induces context-free grammars from session sequences,
// the §6 "ongoing work" item: "applying automatic grammar induction
// techniques to learn hierarchical decompositions of user activity. For
// example, we might learn that many sessions break down into smaller
// units that exhibit a great deal of cohesion (each with rich internal
// structure), in the same way that a simple English sentence decomposes
// into a noun phrase and a verb phrase."
//
// The inducer is Re-Pair (Larsson & Moffat): repeatedly replace the most
// frequent adjacent symbol pair with a fresh nonterminal until no pair
// repeats. The paper gestures at grammar induction generally (citing
// constituent-context models); Re-Pair is the standard offline algorithm
// for exactly this hierarchical-decomposition effect on symbol sequences
// and needs no training corpus beyond the sessions themselves.
package grammar

import "sort"

// Symbol is either a terminal (session-sequence code point) or a
// nonterminal rule reference.
type Symbol struct {
	// Terminal holds the code point when Rule < 0.
	Terminal rune
	// Rule is the nonterminal's rule index, or -1 for terminals.
	Rule int
}

// T makes a terminal symbol.
func T(r rune) Symbol { return Symbol{Terminal: r, Rule: -1} }

// N makes a nonterminal symbol.
func N(rule int) Symbol { return Symbol{Rule: rule} }

// Rule is one induced production: Rule[i] -> Pair[0] Pair[1].
type Rule struct {
	Pair [2]Symbol
	// Uses counts how many times the rule body was substituted during
	// induction (its support in the corpus).
	Uses int
}

// Grammar is the induction result: per-session top-level strings over
// terminals and nonterminals, plus the rule set.
type Grammar struct {
	Rules []Rule
	// Sequences are the compressed top-level session strings.
	Sequences [][]Symbol
	// terminals counts the original corpus size in symbols.
	terminals int
}

// MinSupport is the smallest pair frequency worth a rule.
const MinSupport = 2

// Induce runs Re-Pair over the sessions until no adjacent pair occurs at
// least minSupport times (minSupport < 2 uses MinSupport).
func Induce(seqs []string, minSupport int) *Grammar {
	if minSupport < MinSupport {
		minSupport = MinSupport
	}
	g := &Grammar{}
	for _, s := range seqs {
		syms := make([]Symbol, 0, len(s))
		for _, r := range s {
			syms = append(syms, T(r))
			g.terminals++
		}
		g.Sequences = append(g.Sequences, syms)
	}
	for {
		pair, count := g.mostFrequentPair()
		if count < minSupport {
			break
		}
		ruleID := len(g.Rules)
		g.Rules = append(g.Rules, Rule{Pair: pair})
		g.replaceAll(pair, ruleID)
	}
	return g
}

// mostFrequentPair scans all sequences for the most frequent adjacent
// pair, counting non-overlapping occurrences. Ties break deterministically
// by symbol ordering.
func (g *Grammar) mostFrequentPair() ([2]Symbol, int) {
	counts := make(map[[2]Symbol]int)
	for _, seq := range g.Sequences {
		var prevPair [2]Symbol
		prevCounted := false
		for i := 0; i+1 < len(seq); i++ {
			p := [2]Symbol{seq[i], seq[i+1]}
			// Non-overlapping: "aaa" counts "aa" once.
			if prevCounted && p == prevPair {
				prevCounted = false
				continue
			}
			counts[p]++
			prevPair = p
			prevCounted = true
		}
	}
	var best [2]Symbol
	bestN := 0
	for p, n := range counts {
		if n > bestN || (n == bestN && lessPair(p, best)) {
			best, bestN = p, n
		}
	}
	return best, bestN
}

func lessPair(a, b [2]Symbol) bool {
	if a[0] != b[0] {
		return lessSym(a[0], b[0])
	}
	return lessSym(a[1], b[1])
}

func lessSym(a, b Symbol) bool {
	if (a.Rule < 0) != (b.Rule < 0) {
		return a.Rule < 0 // terminals order before nonterminals
	}
	if a.Rule < 0 {
		return a.Terminal < b.Terminal
	}
	return a.Rule < b.Rule
}

// replaceAll substitutes every non-overlapping occurrence of pair with the
// rule's nonterminal, counting uses.
func (g *Grammar) replaceAll(pair [2]Symbol, ruleID int) {
	for si, seq := range g.Sequences {
		out := seq[:0:0]
		for i := 0; i < len(seq); {
			if i+1 < len(seq) && seq[i] == pair[0] && seq[i+1] == pair[1] {
				out = append(out, N(ruleID))
				g.Rules[ruleID].Uses++
				i += 2
				continue
			}
			out = append(out, seq[i])
			i++
		}
		g.Sequences[si] = out
	}
}

// Expand recursively expands a symbol into its terminal code points.
func (g *Grammar) Expand(s Symbol) []rune {
	if s.Rule < 0 {
		return []rune{s.Terminal}
	}
	r := g.Rules[s.Rule]
	return append(g.Expand(r.Pair[0]), g.Expand(r.Pair[1])...)
}

// RuleString renders a rule's full terminal expansion as a string.
func (g *Grammar) RuleString(rule int) string {
	return string(g.Expand(N(rule)))
}

// CompressedSymbols counts symbols across all top-level sequences plus
// rule bodies — the grammar-encoded corpus size.
func (g *Grammar) CompressedSymbols() int {
	n := 2 * len(g.Rules)
	for _, seq := range g.Sequences {
		n += len(seq)
	}
	return n
}

// CompressionRatio is original/compressed symbol count: how much
// hierarchical structure the grammar explains.
func (g *Grammar) CompressionRatio() float64 {
	c := g.CompressedSymbols()
	if c == 0 {
		return 0
	}
	return float64(g.terminals) / float64(c)
}

// RuleInfo describes one rule for reporting.
type RuleInfo struct {
	Rule int
	Uses int
	// Length is the terminal expansion length.
	Length int
	// Expansion is the terminal string the rule derives.
	Expansion string
}

// TopRules returns the k most-used rules with expansion length >= minLen —
// the "smaller units that exhibit a great deal of cohesion".
func (g *Grammar) TopRules(k, minLen int) []RuleInfo {
	infos := make([]RuleInfo, 0, len(g.Rules))
	for i := range g.Rules {
		exp := g.RuleString(i)
		n := 0
		for range exp {
			n++
		}
		if n < minLen {
			continue
		}
		infos = append(infos, RuleInfo{Rule: i, Uses: g.Rules[i].Uses, Length: n, Expansion: exp})
	}
	sort.Slice(infos, func(a, b int) bool {
		if infos[a].Uses != infos[b].Uses {
			return infos[a].Uses > infos[b].Uses
		}
		if infos[a].Length != infos[b].Length {
			return infos[a].Length > infos[b].Length
		}
		return infos[a].Rule < infos[b].Rule
	})
	if len(infos) > k {
		infos = infos[:k]
	}
	return infos
}
