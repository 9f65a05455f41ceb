// Package ngram implements n-gram language models over session sequences,
// the user-modeling technique of §5.4: "Since session sequences are simply
// symbol sequences drawn from a finite alphabet, we can borrow techniques
// derived from natural language processing."
//
// A model of order n estimates P(symbol | previous n-1 symbols) with
// Jelinek-Mercer interpolation down to a uniform distribution over the
// vocabulary, so unseen contexts never zero out. Cross entropy and
// perplexity quantify "how much temporal signal there is in user behavior":
// if user actions depend on their recent history, higher-order models have
// lower perplexity.
package ngram

import (
	"fmt"
	"math"
)

// BOS pads the start of every sequence so the first symbols still have
// conditioning context. It must not collide with dictionary symbols, which
// start at U+0020.
const BOS rune = 0x01

// DefaultLambda is the interpolation weight given to the highest-order
// estimate at each backoff level.
const DefaultLambda = 0.8

// Model is an interpolated n-gram language model over runes.
type Model struct {
	order int
	// counts[k] maps a length-k context to next-symbol counts.
	counts []map[string]map[rune]int64
	// totals[k] maps a length-k context to its total continuations.
	totals []map[string]int64
	vocab  map[rune]struct{}
	// Lambda is the interpolation weight; see DefaultLambda.
	Lambda float64
}

// NewModel returns an untrained model of the given order (1 = unigram,
// 2 = bigram, ...).
func NewModel(order int) *Model {
	if order < 1 {
		order = 1
	}
	m := &Model{
		order:  order,
		counts: make([]map[string]map[rune]int64, order),
		totals: make([]map[string]int64, order),
		vocab:  make(map[rune]struct{}),
		Lambda: DefaultLambda,
	}
	for k := 0; k < order; k++ {
		m.counts[k] = make(map[string]map[rune]int64)
		m.totals[k] = make(map[string]int64)
	}
	return m
}

// Vocabulary returns the number of distinct symbols seen in training.
func (m *Model) Vocabulary() int { return len(m.vocab) }

// Train folds one session sequence into the model's counts.
func (m *Model) Train(seq string) {
	runes := m.pad(seq)
	for i := m.order - 1; i < len(runes); i++ {
		next := runes[i]
		if next != BOS {
			m.vocab[next] = struct{}{}
		}
		for k := 0; k < m.order; k++ {
			ctx := string(runes[i-k : i])
			bucket := m.counts[k][ctx]
			if bucket == nil {
				bucket = make(map[rune]int64)
				m.counts[k][ctx] = bucket
			}
			bucket[next]++
			m.totals[k][ctx]++
		}
	}
}

// TrainAll trains on every sequence.
func (m *Model) TrainAll(seqs []string) {
	for _, s := range seqs {
		m.Train(s)
	}
}

// pad prepends order-1 BOS symbols.
func (m *Model) pad(seq string) []rune {
	out := make([]rune, 0, len(seq)+m.order-1)
	for i := 0; i < m.order-1; i++ {
		out = append(out, BOS)
	}
	for _, r := range seq {
		out = append(out, r)
	}
	return out
}

// Prob returns the interpolated P(next | context); context uses only its
// final order-1 runes.
func (m *Model) Prob(context []rune, next rune) float64 {
	if len(context) > m.order-1 {
		context = context[len(context)-(m.order-1):]
	}
	// Interpolate from longest matching context down to uniform.
	p := 1.0 / float64(len(m.vocab)+1) // uniform floor (+1 for unseen mass)
	for k := 0; k <= len(context); k++ {
		ctx := string(context[len(context)-k:])
		total := m.totals[k][ctx]
		if total == 0 {
			continue
		}
		mle := float64(m.counts[k][ctx][next]) / float64(total)
		p = (1-m.Lambda)*p + m.Lambda*mle
	}
	return p
}

// CrossEntropy returns bits per symbol of the sequences under the model —
// the §5.4 measure of how well the model "explains" the data.
func (m *Model) CrossEntropy(seqs []string) (float64, error) {
	var bits float64
	var n int64
	for _, seq := range seqs {
		runes := m.pad(seq)
		for i := m.order - 1; i < len(runes); i++ {
			p := m.Prob(runes[i-(m.order-1):i], runes[i])
			if p <= 0 {
				return 0, fmt.Errorf("ngram: zero probability at position %d", i)
			}
			bits -= math.Log2(p)
			n++
		}
	}
	if n == 0 {
		return 0, fmt.Errorf("ngram: no symbols to evaluate")
	}
	return bits / float64(n), nil
}

// Perplexity is 2^CrossEntropy: the effective branching factor of user
// behavior under the model.
func (m *Model) Perplexity(seqs []string) (float64, error) {
	h, err := m.CrossEntropy(seqs)
	if err != nil {
		return 0, err
	}
	return math.Exp2(h), nil
}
