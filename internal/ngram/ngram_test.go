package ngram

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"unilog/internal/hdfs"
	"unilog/internal/session"
	"unilog/internal/workload"
)

func TestProbabilitiesSumToOne(t *testing.T) {
	m := NewModel(2)
	m.TrainAll([]string{"abcabc", "abca", "cab"})
	// Over the observed vocabulary plus smoothing mass, the distribution
	// must sum to (just under) 1 for every context.
	for _, ctx := range []string{"a", "b", "c", ""} {
		sum := 0.0
		for _, r := range "abc" {
			sum += m.Prob([]rune(ctx), r)
		}
		if sum > 1.0+1e-9 {
			t.Fatalf("context %q sums to %f > 1", ctx, sum)
		}
		if sum < 0.9 {
			t.Fatalf("context %q sums to %f, too much smoothing mass", ctx, sum)
		}
	}
}

func TestDeterministicSequenceIsLearnable(t *testing.T) {
	// "ababab..." is perfectly predictable with a bigram model.
	seqs := []string{}
	for i := 0; i < 50; i++ {
		seqs = append(seqs, "abababababababab")
	}
	uni, bi := NewModel(1), NewModel(2)
	uni.TrainAll(seqs)
	bi.TrainAll(seqs)
	pUni, err := uni.Perplexity(seqs)
	if err != nil {
		t.Fatal(err)
	}
	pBi, err := bi.Perplexity(seqs)
	if err != nil {
		t.Fatal(err)
	}
	// Unigram sees a 50/50 coin (perplexity ~2); bigram sees near-determinism.
	if pBi >= pUni {
		t.Fatalf("bigram perplexity %.3f >= unigram %.3f", pBi, pUni)
	}
	if pBi > 1.5 {
		t.Fatalf("bigram perplexity %.3f on deterministic data", pBi)
	}
	if pUni < 1.8 || pUni > 2.3 {
		t.Fatalf("unigram perplexity %.3f, want ~2", pUni)
	}
}

func TestRandomSequenceHasNoTemporalSignal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	alphabet := []rune{'a', 'b', 'c', 'd'}
	var seqs []string
	for i := 0; i < 200; i++ {
		buf := make([]rune, 50)
		for j := range buf {
			buf[j] = alphabet[rng.Intn(len(alphabet))]
		}
		seqs = append(seqs, string(buf))
	}
	uni, bi := NewModel(1), NewModel(2)
	uni.TrainAll(seqs)
	bi.TrainAll(seqs)
	pUni, _ := uni.Perplexity(seqs)
	pBi, _ := bi.Perplexity(seqs)
	// IID data: higher order buys (almost) nothing.
	if pUni-pBi > 0.15 {
		t.Fatalf("bigram gained %.3f perplexity on iid data (uni %.3f, bi %.3f)", pUni-pBi, pUni, pBi)
	}
}

// TestPerplexityDecreasesOnSessions is the §5.4 claim: real session
// sequences have temporal structure, so perplexity decreases with model
// order — "how the user behaves right now is strongly influenced by
// immediately preceding actions" (§5.4).
func TestPerplexityDecreasesOnSessions(t *testing.T) {
	day := time.Date(2012, 8, 21, 0, 0, 0, 0, time.UTC)
	cfg := workload.DefaultConfig(day)
	cfg.Users = 200
	evs, _ := workload.New(cfg).Generate()
	fs := hdfs.New(0)
	if err := workload.WriteWarehouse(fs, evs); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := session.BuildDay(fs, day, 0); err != nil {
		t.Fatal(err)
	}
	var seqs []string
	if err := session.ScanDay(fs, day, func(r *session.Record) error {
		seqs = append(seqs, r.Sequence)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Split train/test so the comparison is honest.
	split := len(seqs) * 4 / 5
	train, test := seqs[:split], seqs[split:]
	var perp []float64
	for order := 1; order <= 3; order++ {
		m := NewModel(order)
		m.TrainAll(train)
		p, err := m.Perplexity(test)
		if err != nil {
			t.Fatal(err)
		}
		perp = append(perp, p)
	}
	if !(perp[1] < perp[0]) {
		t.Fatalf("bigram %.2f not better than unigram %.2f", perp[1], perp[0])
	}
	if perp[2] > perp[1]*1.1 {
		t.Fatalf("trigram %.2f much worse than bigram %.2f", perp[2], perp[1])
	}
}

func TestEmptyEvaluation(t *testing.T) {
	m := NewModel(2)
	m.Train("ab")
	if _, err := m.CrossEntropy(nil); err == nil {
		t.Fatal("empty evaluation succeeded")
	}
}

func TestOrderClamped(t *testing.T) {
	m := NewModel(0)
	if m.order != 1 {
		t.Fatalf("order = %d", m.order)
	}
}

func TestProbPositiveProperty(t *testing.T) {
	m := NewModel(3)
	m.TrainAll([]string{"xyzxyz", "zyx", "xxyyzz"})
	f := func(a, b uint8) bool {
		ctx := []rune{rune('x' + a%3), rune('x' + b%3)}
		for _, r := range "xyz" {
			p := m.Prob(ctx, r)
			if p <= 0 || p > 1 || math.IsNaN(p) {
				return false
			}
		}
		// Unseen symbols still get smoothing mass.
		return m.Prob(ctx, 'q') > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
