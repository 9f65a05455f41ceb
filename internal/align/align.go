// Package align implements sequence alignment over session sequences,
// the §6 "ongoing work" item: "we can take inspiration from biological
// sequence alignment to answer questions like: 'What users exhibit
// similar behavioral patterns?' This type of 'query-by-example' mechanism
// would help in understanding what makes Twitter users engaged."
//
// Because session sequences are strings over a finite alphabet, the
// classic dynamic programs apply directly: Smith-Waterman local alignment
// scores how strongly two sessions share behavioral subpatterns, and a
// normalized similarity in [0, 1] makes scores comparable across session
// lengths. QueryByExample ranks a corpus of sessions against an exemplar.
package align

import (
	"sort"
)

// Scoring parametrizes the alignment dynamic program.
type Scoring struct {
	Match    int // reward for identical events (> 0)
	Mismatch int // penalty for substituted events (< 0)
	Gap      int // penalty for an insertion/deletion (< 0)
}

// DefaultScoring is a standard +2/-1/-1 scheme.
var DefaultScoring = Scoring{Match: 2, Mismatch: -1, Gap: -1}

// LocalScore computes the Smith-Waterman local alignment score of two
// sequences: the best-scoring pair of substrings under the scoring scheme.
// Zero means no similar subpattern at all.
func LocalScore(a, b string, s Scoring) int {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 || len(rb) == 0 {
		return 0
	}
	// One row of the DP table suffices for the score.
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	best := 0
	for i := 1; i <= len(ra); i++ {
		for j := 1; j <= len(rb); j++ {
			sub := s.Mismatch
			if ra[i-1] == rb[j-1] {
				sub = s.Match
			}
			v := prev[j-1] + sub
			if d := prev[j] + s.Gap; d > v {
				v = d
			}
			if d := cur[j-1] + s.Gap; d > v {
				v = d
			}
			if v < 0 {
				v = 0
			}
			cur[j] = v
			if v > best {
				best = v
			}
		}
		prev, cur = cur, prev
	}
	return best
}

// Similarity normalizes LocalScore into [0, 1]: 1 means one sequence is a
// perfect subsequence match of the other under the scheme's match reward.
func Similarity(a, b string, s Scoring) float64 {
	la, lb := runeLen(a), runeLen(b)
	min := la
	if lb < min {
		min = lb
	}
	if min == 0 {
		return 0
	}
	return float64(LocalScore(a, b, s)) / float64(min*s.Match)
}

func runeLen(s string) int {
	n := 0
	for range s {
		n++
	}
	return n
}

// Scored is one ranked result of QueryByExample.
type Scored struct {
	// Index into the candidates slice.
	Index int
	Score int
	// Similarity is the length-normalized score in [0, 1].
	Similarity float64
}

// QueryByExample ranks candidate sessions by local-alignment similarity to
// the query session and returns the top k (excluding exact index matches
// is the caller's concern).
func QueryByExample(query string, candidates []string, s Scoring, k int) []Scored {
	out := make([]Scored, 0, len(candidates))
	for i, c := range candidates {
		sc := LocalScore(query, c, s)
		if sc <= 0 {
			continue
		}
		out = append(out, Scored{Index: i, Score: sc, Similarity: Similarity(query, c, s)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Similarity != out[j].Similarity {
			return out[i].Similarity > out[j].Similarity
		}
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Index < out[j].Index
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}
