package core

import (
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/accountant"
	"repro/internal/query"
)

func TestGaussianSessionAccuracyAndAccounting(t *testing.T) {
	dom, ds := buildDS(t, 1)
	cfg := defaultCfg(NonPartitioned)
	cfg.Gaussian = true
	cfg.DeltaGlobal = 1e-6
	s, err := NewSession(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	if s.Accountant().Orders() == nil || s.Accountant().Delta() != cfg.DeltaGlobal {
		t.Fatal("Gaussian session's books are not a Rényi block at δ_G")
	}
	q := query.MustNew(dom, map[int][]int{0: {1}})
	truth, _ := ds.TrueFraction(q, 0, 0)
	a, err := s.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.Value-truth) > 0.05 {
		t.Fatalf("Gaussian answer %g vs truth %g", a.Value, truth)
	}
	if s.AverageSpent() <= 0 {
		t.Fatal("Gaussian accounting reports zero consumption")
	}
	// Accepted history converts within the target.
	if s.AverageSpent() > cfg.EpsilonGlobal+1e-9 {
		t.Fatalf("converted spend %g exceeds ε_G", s.AverageSpent())
	}
	// One set of books: the session's figure is the block's.
	if s.Accountant().AverageSpent() != s.AverageSpent() {
		t.Fatalf("session reports %g, its block %g", s.AverageSpent(), s.Accountant().AverageSpent())
	}
	if slices.Max(s.Accountant().SpentVector()) <= 0 {
		t.Fatal("per-partition block never charged in Gaussian mode")
	}
}

func TestGaussianSessionExhausts(t *testing.T) {
	dom, ds := buildDS(t, 1)
	cfg := defaultCfg(NonPartitioned)
	cfg.Gaussian = true
	cfg.DeltaGlobal = 1e-6
	cfg.EpsilonGlobal = 0.2
	s, err := NewSession(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	// Enumerate distinct predicates (repeats would hit the exact cache
	// for free): subsets of age × values of positive.
	var answerErr error
loop:
	for mask := 1; mask < 16; mask++ {
		var ages []int
		for v := 0; v < 4; v++ {
			if mask&(1<<v) != 0 {
				ages = append(ages, v)
			}
		}
		for p := 0; p < 2; p++ {
			q := query.MustNew(dom, map[int][]int{0: {p}, 1: ages})
			if _, answerErr = s.Answer(q); answerErr != nil {
				break loop
			}
		}
	}
	if !errors.Is(answerErr, accountant.ErrBudgetExhausted) {
		t.Fatalf("session never exhausted a 0.2 RDP budget: %v", answerErr)
	}
	if s.AverageSpent() > 0.2+1e-9 {
		t.Fatalf("spend %g exceeds tiny ε_G", s.AverageSpent())
	}
}

// TestGaussianPartitionedSession exercises the lifted restriction: a
// Gaussian session in Partitioned mode runs windowed queries through the
// tree with Rényi accounting, and only the window's partitions are
// charged.
func TestGaussianPartitionedSession(t *testing.T) {
	dom, ds := buildDS(t, 4)
	cfg := defaultCfg(Partitioned)
	cfg.Gaussian = true
	cfg.DeltaGlobal = 1e-6
	s, err := NewSession(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	q := query.MustNew(dom, map[int][]int{0: {1}}).WithWindow(1, 2)
	truth, _ := ds.TrueFraction(q, 1, 2)
	a, err := s.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.Value-truth) > cfg.Alpha {
		t.Fatalf("answer %g vs truth %g", a.Value, truth)
	}
	block := s.Accountant()
	if block.SpentVector()[0] != 0 || block.SpentVector()[3] != 0 {
		t.Fatalf("outside-window partitions charged: %v", block.SpentVector())
	}
	for p := 1; p <= 2; p++ {
		if block.SpentVector()[p] <= 0 || curveAt(t, block, p)[0] <= 0 {
			t.Fatalf("window partition %d shows no spend: %g, curve %v", p, block.SpentVector()[p], curveAt(t, block, p))
		}
	}
	if slices.Max(s.Accountant().SpentVector()) <= 0 || s.AverageSpent() <= 0 {
		t.Fatal("session-level Gaussian metrics zero")
	}
}

// TestGaussianStreamingAppend checks that stream partitions arriving into
// a Gaussian session grow its Rényi block.
func TestGaussianStreamingAppend(t *testing.T) {
	dom, ds := buildDS(t, 1)
	cfg := defaultCfg(Streaming)
	cfg.Gaussian = true
	cfg.DeltaGlobal = 1e-6
	s, err := NewSession(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, dom.Size())
	for a := 0; a < 4; a++ {
		counts[dom.Encode([]int{1, a})] = 900
		counts[dom.Encode([]int{0, a})] = 2100
	}
	if w := arrive(t, s, counts); w != 1 {
		t.Fatalf("AppendPartitions = %d", w)
	}
	if got := len(s.Accountant().SpentVector()); got != 2 {
		t.Fatalf("block has %d partitions, want 2", got)
	}
	q := query.MustNew(dom, map[int][]int{0: {1}}).WithWindow(1, 1)
	if _, err := s.Answer(q); err != nil {
		t.Fatal(err)
	}
	if s.Accountant().SpentVector()[1] <= 0 {
		t.Fatal("appended partition never charged")
	}
}

func TestGaussianSessionValidation(t *testing.T) {
	_, ds := buildDS(t, 4)
	cfg := defaultCfg(Partitioned)
	cfg.Gaussian = true // missing δ
	if _, err := NewSession(cfg, ds); err == nil {
		t.Fatal("Gaussian partitioned session without δ_G accepted")
	}
	_, ds1 := buildDS(t, 1)
	cfg2 := defaultCfg(NonPartitioned)
	cfg2.Gaussian = true // missing δ
	if _, err := NewSession(cfg2, ds1); err == nil {
		t.Fatal("Gaussian session without δ_G accepted")
	}
}
