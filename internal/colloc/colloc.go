// Package colloc extracts "activity collocates" (§5.4): pairs of adjacent
// events that co-occur far more often than independence predicts, the
// analogue of NLP collocations like "hot dog".
//
// Two standard association measures are implemented over adjacent symbol
// bigrams: pointwise mutual information (Church & Hanks) and Dunning's
// log-likelihood ratio G², the two techniques the paper names.
package colloc

import (
	"math"
	"sort"
)

// Stats holds unigram and adjacent-bigram counts over session sequences.
type Stats struct {
	unigrams map[rune]int64
	bigrams  map[[2]rune]int64
	// tokens is the total unigram count; pairs the total bigram count.
	tokens int64
	pairs  int64
}

// Collect tallies the sequences.
func Collect(seqs []string) *Stats {
	s := &Stats{
		unigrams: make(map[rune]int64),
		bigrams:  make(map[[2]rune]int64),
	}
	for _, seq := range seqs {
		var prev rune
		first := true
		for _, r := range seq {
			s.unigrams[r]++
			s.tokens++
			if !first {
				s.bigrams[[2]rune{prev, r}]++
				s.pairs++
			}
			prev = r
			first = false
		}
	}
	return s
}

// PMI returns the pointwise mutual information of the adjacent pair (a, b)
// in bits: log2( P(a,b) / (P(a)·P(b)) ).
func (s *Stats) PMI(a, b rune) float64 {
	cab := s.bigrams[[2]rune{a, b}]
	ca, cb := s.unigrams[a], s.unigrams[b]
	if cab == 0 || ca == 0 || cb == 0 || s.pairs == 0 || s.tokens == 0 {
		return math.Inf(-1)
	}
	pab := float64(cab) / float64(s.pairs)
	pa := float64(ca) / float64(s.tokens)
	pb := float64(cb) / float64(s.tokens)
	return math.Log2(pab / (pa * pb))
}

// llrTerm is k·ln(k/e) with the convention 0·ln(0) = 0.
func llrTerm(k, e float64) float64 {
	if k == 0 || e == 0 {
		return 0
	}
	return k * math.Log(k/e)
}

// LLR returns Dunning's log-likelihood ratio G² for the adjacent pair
// (a, b), computed over the 2x2 contingency table of "first symbol is a" x
// "second symbol is b". Unlike PMI it is robust for rare events — Dunning's
// "statistics of surprise and coincidence" cited in §5.4.
func (s *Stats) LLR(a, b rune) float64 {
	n := float64(s.pairs)
	if n == 0 {
		return 0
	}
	k11 := float64(s.bigrams[[2]rune{a, b}])
	// Row total: bigrams starting with a; column total: ending with b.
	var rowA, colB float64
	for pair, c := range s.bigrams {
		if pair[0] == a {
			rowA += float64(c)
		}
		if pair[1] == b {
			colB += float64(c)
		}
	}
	k12 := rowA - k11
	k21 := colB - k11
	k22 := n - rowA - colB + k11
	e11 := rowA * colB / n
	e12 := rowA * (n - colB) / n
	e21 := (n - rowA) * colB / n
	e22 := (n - rowA) * (n - colB) / n
	return 2 * (llrTerm(k11, e11) + llrTerm(k12, e12) + llrTerm(k21, e21) + llrTerm(k22, e22))
}

// Pair is one scored collocation candidate.
type Pair struct {
	A, B  rune
	Count int64
	Score float64
}

// top returns the k highest-scoring pairs with at least minCount
// occurrences, under the given scorer.
func (s *Stats) top(k int, minCount int64, score func(a, b rune) float64) []Pair {
	out := make([]Pair, 0, len(s.bigrams))
	for pair, c := range s.bigrams {
		if c < minCount {
			continue
		}
		out = append(out, Pair{A: pair[0], B: pair[1], Count: c, Score: score(pair[0], pair[1])})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// TopPMI returns the k highest-PMI pairs with at least minCount
// occurrences (a frequency floor is standard practice: PMI overweights
// hapax pairs).
func (s *Stats) TopPMI(k int, minCount int64) []Pair {
	return s.top(k, minCount, s.PMI)
}

// TopLLR returns the k highest-G² pairs with at least minCount occurrences.
func (s *Stats) TopLLR(k int, minCount int64) []Pair {
	return s.top(k, minCount, s.LLR)
}
