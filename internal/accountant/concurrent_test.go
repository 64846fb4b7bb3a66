package accountant

// Concurrent composition of interactive mechanisms with adaptively chosen
// parameters (Appendix B, Alg. 3): sparse vectors are interactive (they
// answer many requests over their lifetime) and live concurrently, with
// budgets chosen adaptively as queries arrive. Thm B.1/B.2 show the
// natural filter — admit a new mechanism iff the composition of all
// declared budgets stays within budget — remains valid in this setting,
// and that filter is Block.PayRange. These tests pin Alg. 3's properties
// on it directly, for the pure grid here and for a Rényi grid in
// concurrent_rdp_test.go.

import (
	"errors"
	"math"
	"sync"
	"testing"
)

func TestConcurrentFilterAdmission(t *testing.T) {
	b := NewBlock(1.0, 2)
	if err := b.PayRange(0, 1, Laplace(0.4)); err != nil {
		t.Fatal(err)
	}
	if err := b.PayRange(0, 1, Laplace(0.5)); err != nil {
		t.Fatal(err)
	}
	if err := b.PayRange(0, 1, Laplace(0.2)); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("over-budget mechanism: %v", err)
	}
	if got := b.SpentAt(0); got != 0.9 {
		t.Fatalf("spent = %g", got)
	}
	// Exactly filling the remainder is fine.
	if err := b.PayRange(0, 1, Laplace(0.1)); err != nil {
		t.Fatalf("exact fill refused: %v", err)
	}
}

func TestConcurrentFilterInteraction(t *testing.T) {
	// A sparse vector declares its whole budget when it is admitted:
	// interacting with it afterwards never touches the books, and nothing
	// — not the SV being consumed, not a budget probe — hands budget back.
	b, eps := NewBlock(1.0, 2), 0.1
	if err := b.PayRange(0, 1, SVInit(eps)); err != nil {
		t.Fatal(err)
	}
	want := b.SpentVector()
	locks := b.LockAcquisitions()
	for i := 0; i < 10; i++ {
		b.HasBudgetRange(0, 1)
	}
	if got := b.LockAcquisitions() - locks; got != 10 {
		t.Fatalf("10 budget probes counted %d lock acquisitions", got)
	}
	for p, w := range want {
		if w != 3*eps || b.SpentAt(p) != w {
			t.Fatalf("partition %d spent %g, want the SV's 3ε = %g, unchanged", p, b.SpentAt(p), w)
		}
	}
}

func TestConcurrentFilterValidation(t *testing.T) {
	b := NewBlock(1.0, 1)
	for name, c := range map[string]Cost{"zero": {}, "negative": SVInit(-0.1), "NaN": Laplace(math.NaN())} {
		if err := b.PayRange(0, 0, c); err == nil || errors.Is(err, ErrBudgetExhausted) {
			t.Fatalf("%s mechanism: %v", name, err)
		}
	}
	if b.SpentAt(0) != 0 {
		t.Fatal("malformed mechanism deducted")
	}
}

func TestConcurrentFilterAdaptiveInterleaving(t *testing.T) {
	// Adversarial pattern from Alg. 3: budgets chosen based on previous
	// outcomes, mechanisms interleaved, total never exceeding ε_G.
	b := NewBlock(1.5, 1)
	admitted := 0
	for budget := 0.8; budget > 1e-6; budget /= 2 { // adaptively shrink, as a draining adversary would
		if err := b.PayRange(0, 0, Laplace(budget)); err != nil {
			// 0.8+0.4+0.2+0.1 = 1.5 exactly fills ε_G; the fifth
			// mechanism (0.05) must be the one refused.
			if admitted != 4 || !errors.Is(err, ErrBudgetExhausted) {
				t.Fatalf("refused after %d mechanisms: %v", admitted, err)
			}
			break
		}
		admitted++
	}
	if got := b.SpentAt(0); got > 1.5+1e-12 {
		t.Fatalf("admitted %g > eps_G", got)
	}
}

// storm pays b from 8 goroutines over overlapping ranges with costs drawn
// by (goroutine, iteration), each goroutine keeping its own tally of what
// the block accepted, then checks Alg. 3's two properties at every
// partition: the ledger equals the sum of the accepted charges order by
// order — so a refused charge deducted nothing anywhere, and an accepted
// one deducted everywhere — and some order is within its budget.
func storm(t *testing.T, b *Block, cost func(w, i int) Cost) {
	t.Helper()
	parts, k := b.Partitions(), len(b.budget)
	price := func(c Cost) []float64 {
		if b.orders == nil {
			eps, _ := pureEps(c)
			return []float64{eps}
		}
		return curveOf(b.orders, c)
	}
	const workers = 8
	tallies := make([][]float64, workers)
	refused := make([]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		tallies[w] = make([]float64, parts*k)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				start, c := (w+i)%parts, cost(w, i)
				end := start + i%(parts-start)
				switch err := b.PayRange(start, end, c); {
				case err == nil:
					for p := start; p <= end; p++ {
						for j, e := range price(c) {
							tallies[w][p*k+j] += e
						}
					}
				case errors.Is(err, ErrBudgetExhausted):
					refused[w]++
				default:
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	totalRefused := 0
	for _, r := range refused {
		totalRefused += r
	}
	if totalRefused == 0 {
		t.Fatal("the budget never bound")
	}
	for p := 0; p < parts; p++ {
		within := false
		for j, got := range b.CurveAt(p) {
			sum := 0.0
			for w := range tallies {
				sum += tallies[w][p*k+j]
			}
			if math.Abs(got-sum) > 1e-9 {
				t.Fatalf("partition %d order %d: ledger %g, accepted charges sum to %g", p, j, got, sum)
			}
			within = within || (b.budget[j] > 0 && got <= b.budget[j]+tol)
		}
		if !within {
			t.Fatalf("partition %d exceeds its budget at every order: %v", p, b.CurveAt(p))
		}
		if got := b.SpentAt(p); got > b.Global()+1e-9 {
			t.Fatalf("partition %d spent %g > ε_G", p, got)
		}
	}
}

func TestConcurrentFilterThreadSafety(t *testing.T) {
	storm(t, NewBlock(2, 4), func(w, i int) Cost {
		if i%5 == 0 {
			return SVInit(0.004 * float64(1+w%3))
		}
		return Laplace(0.003 * float64(1+i%4))
	})
}
