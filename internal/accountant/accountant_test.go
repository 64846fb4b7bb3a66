package accountant

import (
	"errors"
	"math"
	"sync"
	"testing"
	"testing/quick"
)

// scalar is the pure-ε privacy filter with a fixed global budget (Thm B.2
// with α → ∞): one partition of a pure-grid block. The TestFilter* tests
// pin the scalar stopping rule on it.
func scalar(global float64) Window { return Window{Block: NewBlock(global, 1)} }

func TestFilterStoppingRule(t *testing.T) {
	f := scalar(1.0)
	if err := f.Pay(Laplace(0.6)); err != nil {
		t.Fatal(err)
	}
	if err := f.Pay(Laplace(0.5)); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("overpayment err = %v, want ErrBudgetExhausted", err)
	}
	// Rejected payment must not be deducted.
	if f.Spent() != 0.6 {
		t.Fatalf("Spent = %g after rejected payment, want 0.6", f.Spent())
	}
	if err := f.Pay(Laplace(0.4)); err != nil {
		t.Fatalf("exact fill rejected: %v", err)
	}
	if err := f.Pay(Laplace(0.01)); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("exhausted filter accepted a payment: %v", err)
	}
	if rem := f.Block.Global() - f.Spent(); rem > 1e-9 {
		t.Fatalf("remaining = %g", rem)
	}
}

func TestFilterRejectsBadPayments(t *testing.T) {
	f := scalar(1.0)
	if err := f.Pay(Laplace(-0.1)); err == nil || errors.Is(err, ErrBudgetExhausted) {
		t.Errorf("negative payment: %v", err)
	}
	if err := f.Pay(SVInit(math.NaN())); err == nil || errors.Is(err, ErrBudgetExhausted) {
		t.Errorf("NaN payment: %v", err)
	}
	if err := f.Pay(Cost{}); err == nil || errors.Is(err, ErrBudgetExhausted) {
		t.Errorf("zero Cost: %v", err)
	}
	if err := f.Pay(Laplace(0)); err != nil {
		t.Errorf("zero payment rejected: %v", err)
	}
	if f.Spent() != 0 {
		t.Errorf("malformed payments deducted %g", f.Spent())
	}
}

func TestFilterNeverExceedsGlobalQuick(t *testing.T) {
	f := func(payments []float64) bool {
		fl := scalar(1.0)
		for _, p := range payments {
			p = math.Abs(p)
			if math.IsNaN(p) || math.IsInf(p, 0) {
				continue
			}
			_ = fl.Pay(Laplace(math.Mod(p, 0.5)))
		}
		return fl.Spent() <= fl.Block.Global()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFilterConcurrentSafety(t *testing.T) {
	f := scalar(100)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				_ = f.Pay(Laplace(0.01))
			}
		}()
	}
	wg.Wait()
	if f.Spent() > 100+1e-6 {
		t.Fatalf("concurrent spend exceeded global: %g", f.Spent())
	}
}

func TestFilterPanicsOnBadGlobal(t *testing.T) {
	for _, g := range []float64{0, -1, math.NaN()} {
		for name, mk := range map[string]func(){
			"NewBlock":      func() { NewBlock(g, 1) },
			"NewBlockForDP": func() { NewBlockForDP(DefaultOrders, g, 1e-6, 1) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s(%g) did not panic", name, g)
					}
				}()
				mk()
			}()
		}
	}
}

func TestBlockParallelComposition(t *testing.T) {
	b := NewBlock(1.0, 4)
	// Pay against partitions 0-1 only.
	if err := b.PayRange(0, 1, Laplace(0.8)); err != nil {
		t.Fatal(err)
	}
	// Disjoint partitions 2-3 retain full budget (parallel composition).
	if err := b.PayRange(2, 3, Laplace(0.9)); err != nil {
		t.Fatalf("disjoint range rejected: %v", err)
	}
	if got := b.SpentAt(0); got != 0.8 {
		t.Fatalf("SpentAt(0) = %g", got)
	}
	if got := b.SpentAt(2); got != 0.9 {
		t.Fatalf("SpentAt(2) = %g", got)
	}
	if got := b.AverageSpent(); math.Abs(got-0.85) > 1e-12 {
		t.Fatalf("AverageSpent = %g, want 0.85", got)
	}
	if got := maxSpent(b); got != 0.9 {
		t.Fatalf("max spent = %g", got)
	}
}

func TestBlockAtomicCharge(t *testing.T) {
	b := NewBlock(1.0, 3)
	if err := b.PayRange(1, 1, Laplace(0.9)); err != nil {
		t.Fatal(err)
	}
	// A range charge overflowing partition 1 must deduct nothing anywhere.
	if err := b.PayRange(0, 2, Laplace(0.5)); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v", err)
	}
	if b.SpentAt(0) != 0 || b.SpentAt(2) != 0 {
		t.Fatal("failed range charge partially deducted")
	}
}

func TestBlockRangeValidation(t *testing.T) {
	b := NewBlock(1.0, 3)
	for _, r := range [][2]int{{-1, 0}, {0, 3}, {2, 1}} {
		if err := b.PayRange(r[0], r[1], Laplace(0.1)); err == nil {
			t.Errorf("PayRange(%v) accepted", r)
		}
	}
	if err := b.PayRange(0, 0, Laplace(math.NaN())); err == nil {
		t.Error("NaN payment accepted")
	}
}

func TestBlockStreamingGrowth(t *testing.T) {
	b := NewBlock(1.0, 1)
	idx := b.AddPartition()
	if idx != 1 || len(b.SpentVector()) != 2 {
		t.Fatalf("AddPartition = %d, partitions = %d", idx, len(b.SpentVector()))
	}
	if err := b.PayRange(1, 1, Laplace(0.5)); err != nil {
		t.Fatal(err)
	}
	if b.SpentAt(0) != 0 {
		t.Fatal("new-partition charge leaked to old partition")
	}
}

func TestBlockMaxAndAverageEmpty(t *testing.T) {
	b := NewBlock(1.0, 0)
	if b.AverageSpent() != 0 || maxSpent(b) != 0 {
		t.Fatal("empty block has nonzero metrics")
	}
}

func TestWindowAdapter(t *testing.T) {
	b := NewBlock(1.0, 4)
	w := Window{Block: b, Start: 1, End: 2}
	if err := w.Pay(Laplace(0.3)); err != nil {
		t.Fatal(err)
	}
	if b.SpentAt(0) != 0 || b.SpentAt(1) != 0.3 || b.SpentAt(2) != 0.3 || b.SpentAt(3) != 0 {
		t.Fatal("window charged wrong partitions")
	}
	if w.Spent() != 0.3 {
		t.Fatalf("window Spent = %g", w.Spent())
	}
	if err := w.Pay(Laplace(0.8)); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v", err)
	}
	// Exhaust fully: 0.3 + 0.7 = 1.0.
	if err := w.Pay(Laplace(0.7)); err != nil {
		t.Fatal(err)
	}
	if err := w.Pay(Laplace(0.01)); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("exhausted window accepted a payment: %v", err)
	}
}

func TestBlockNeverExceedsPerPartitionQuick(t *testing.T) {
	f := func(ops []uint8) bool {
		b := NewBlock(1.0, 5)
		for _, op := range ops {
			start := int(op) % 5
			end := start + int(op>>4)%(5-start)
			_ = b.PayRange(start, end, Laplace(float64(op%7)/10))
		}
		for i := 0; i < 5; i++ {
			if b.SpentAt(i) > 1.0+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestBlockLockAcquisitions: every payment takes the block's lock once,
// and counts one acquisition; a metric read counts none.
func TestBlockLockAcquisitions(t *testing.T) {
	b := NewBlock(1.0, 8)
	before := b.LockAcquisitions()
	for range 64 {
		b.SpentVector()
	}
	if got := b.LockAcquisitions() - before; got != 0 {
		t.Fatalf("64 metric reads counted %d acquisitions, want 0", got)
	}
	for p := range 64 {
		if err := b.PayRange(p%8, p%8, Laplace(0)); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.LockAcquisitions() - before; got != 64 {
		t.Fatalf("64 singleton PayRanges cost %d acquisitions, want 64", got)
	}
}
