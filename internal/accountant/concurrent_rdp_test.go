package accountant

import (
	"errors"
	"math"
	"testing"
)

func TestRDPBlockPayRangeAtomic(t *testing.T) {
	b := NewBlockForDP(DefaultOrders, 2.0, 1e-6, 4)
	cost := Gaussian(4, 1)
	// Exhaust partition 1 only.
	for i := 0; i < 1_000_000 && b.PayRange(1, 1, cost) == nil; i++ {
	}
	if err := b.PayRange(1, 1, cost); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("exhausted partition accepted another payment: %v", err)
	}
	if err := b.PayRange(2, 3, cost); err != nil {
		t.Fatalf("untouched partitions refused a payment: %v", err)
	}
	// A range overlapping the exhausted partition must deduct nothing.
	before := b.SpentVector()
	if err := b.PayRange(0, 2, cost); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	for p, after := range b.SpentVector() {
		if after != before[p] {
			t.Fatalf("rejected range payment deducted from partition %d", p)
		}
		// Every accepted per-partition history converts within ε_G.
		if after > 2.0+1e-6 {
			t.Fatalf("partition %d converts to %g > ε_G", p, after)
		}
	}
	for _, e := range b.CurveAt(0) {
		if e != 0 {
			t.Fatal("rejected range payment deducted from partition 0's curve")
		}
	}
}

func TestRDPBlockZeroHistoryConvertsToZero(t *testing.T) {
	b := NewBlockForDP(DefaultOrders, 2.0, 1e-6, 2)
	if got := b.SpentAt(0); got != 0 {
		t.Fatalf("empty history converts to %g, want 0", got)
	}
	if got := b.AverageSpent(); got != 0 {
		t.Fatalf("empty average %g", got)
	}
	if err := b.PayRange(0, 0, Laplace(0.01)); err != nil {
		t.Fatal(err)
	}
	if b.SpentAt(0) <= 0 {
		t.Fatal("consumed history converts to 0")
	}
	if b.SpentAt(1) != 0 {
		t.Fatal("untouched partition shows spend")
	}
	if maxSpent(b) != b.SpentAt(0) || b.AverageSpent() != b.SpentAt(0)/2 {
		t.Fatal("max/average spent disagree with SpentAt")
	}
}

func TestRDPBlockMirrorsConvertedSpend(t *testing.T) {
	// What the scalar mirror used to fake in a second set of books, the
	// one block reports: every spend figure is the δ_G conversion of the
	// partition's curve, min over orders of spent + ln(1/δ_G)/(α−1).
	const deltaG = 1e-6
	b := NewBlockForDP(DefaultOrders, 2.0, deltaG, 3)
	for i := 0; i < 40; i++ {
		if err := b.PayRange(0, 1, Laplace(0.02)); err != nil {
			t.Fatal(err)
		}
	}
	vec := b.SpentVector()
	for p := 0; p < 2; p++ {
		want := math.Inf(1)
		for j, e := range b.CurveAt(p) {
			want = math.Min(want, e+math.Log(1/deltaG)/(DefaultOrders[j]-1))
		}
		if vec[p] != want || b.SpentAt(p) != want {
			t.Fatalf("partition %d: SpentAt %g, SpentVector %g, converted curve %g", p, b.SpentAt(p), vec[p], want)
		}
		if want >= 40*0.02 {
			t.Fatalf("partition %d converts to %g, no better than basic composition", p, want)
		}
	}
	if vec[2] != 0 {
		t.Fatal("untouched partition reports spend")
	}
}

func TestRDPBlockAddPartition(t *testing.T) {
	b := NewBlockForDP(DefaultOrders, 1.0, 1e-6, 1)
	if err := b.PayRange(0, 0, Laplace(0.01)); err != nil {
		t.Fatal(err)
	}
	if got := b.AddPartition(); got != 1 {
		t.Fatalf("AddPartition = %d", got)
	}
	if got := b.AddPartitions(2); got != 2 || len(b.SpentVector()) != 4 {
		t.Fatalf("AddPartitions(2) = %d, partitions = %d", got, len(b.SpentVector()))
	}
	if err := b.PayRange(0, 3, Laplace(0.01)); err != nil {
		t.Fatal(err)
	}
	if b.SpentAt(3) <= 0 || b.SpentAt(0) <= b.SpentAt(3) {
		t.Fatalf("spend after growth: %v", b.SpentVector())
	}
}

func TestRDPBlockGridValueValidation(t *testing.T) {
	// A snapshot over a grid of the same length but different values is
	// refused (payments cannot disagree with the grid: the block prices).
	src := NewBlockForDP(DefaultOrders, 1.0, 1e-6, 1)
	payload := src.SnapshotPayload()
	other := append([]float64(nil), DefaultOrders...)
	other[3] += 0.5
	if _, err := NewBlockForDP(other, 1.0, 1e-6, 1).StagePayload(payload); err == nil {
		t.Fatal("mismatched order values accepted")
	}
}

func TestConcurrentRDPFilterAdmission(t *testing.T) {
	b := NewBlockForDP(DefaultOrders, 2.0, 1e-6, 2)
	if err := b.PayRange(0, 1, SVInit(0.05)); err != nil {
		t.Fatal(err)
	}
	// Spend is irrevocable and identical on every partition of the
	// mechanism's window.
	if b.SpentAt(0) <= 0 || b.SpentAt(0) != b.SpentAt(1) {
		t.Fatalf("admitted SV spent %v", b.SpentVector())
	}
	if err := b.PayRange(0, 1, Cost{}); err == nil {
		t.Fatal("zero mechanism accepted")
	}
	if err := b.PayRange(1, 0, SVInit(0.05)); err == nil {
		t.Fatal("inverted window accepted")
	}
}

func TestConcurrentRDPFilterRefusesWhenEveryOrderBusts(t *testing.T) {
	b := NewBlockForDP(DefaultOrders, 0.5, 1e-6, 1)
	cost := Gaussian(30, 1)
	admitted := 0
	var lastErr error
	for ; admitted < 1_000_000; admitted++ {
		if lastErr = b.PayRange(0, 0, cost); lastErr != nil {
			break
		}
	}
	if admitted == 0 {
		t.Fatal("no mechanism admitted under a 0.5 budget")
	}
	if !errors.Is(lastErr, ErrBudgetExhausted) {
		t.Fatalf("refusal err = %v", lastErr)
	}
	if got := b.SpentAt(0); got > 0.5+1e-6 {
		t.Fatalf("accepted history converts to %g > ε_G", got)
	}
}

func TestConcurrentRDPFilterConcurrentRegistrations(t *testing.T) {
	storm(t, NewBlockForDP(DefaultOrders, 1.5, 1e-6, 4), func(w, i int) Cost {
		switch i % 5 {
		case 0:
			return SVInit(0.004 * float64(1+w%3))
		case 1:
			return Gaussian(40+float64(w), 1)
		}
		return Laplace(0.006 * float64(1+i%4))
	})
}
