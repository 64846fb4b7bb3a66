package accountant

import (
	"errors"
	"testing"
)

func TestFilterPayBatch(t *testing.T) {
	// The scalar filter's batch payment: one-partition range charges.
	b := NewBlock(1.0, 1)
	one := func(eps float64) RangeCharge { return RangeCharge{Cost: Laplace(eps)} }
	verdicts := b.PayRangeBatch([]RangeCharge{one(0.4), one(0.4), one(0.4), one(-1), one(0.2)})
	want := []bool{true, true, false, false, true}
	for i, ok := range want {
		if got := verdicts[i] == nil; got != ok {
			t.Fatalf("charge %d: verdict ok=%v, want %v (err %v)", i, got, ok, verdicts[i])
		}
	}
	if !errors.Is(verdicts[2], ErrBudgetExhausted) {
		t.Fatalf("over-budget charge verdict = %v, want ErrBudgetExhausted", verdicts[2])
	}
	if errors.Is(verdicts[3], ErrBudgetExhausted) {
		t.Fatalf("malformed charge must not read as exhaustion: %v", verdicts[3])
	}
	if got := b.SpentAt(0); got != 1.0 {
		t.Fatalf("spent = %g, want 1.0 (accepted charges only)", got)
	}
}

func TestFilterPayBatchOneLockAcquisition(t *testing.T) {
	b := NewBlock(10, 1)
	before := b.LockAcquisitions()
	charges := make([]RangeCharge, 64)
	for i := range charges {
		charges[i].Cost = Laplace(0)
	}
	for i, err := range b.PayRangeBatch(charges) {
		if err != nil {
			t.Fatalf("charge %d: %v", i, err)
		}
	}
	if got := b.LockAcquisitions() - before; got != 1 {
		t.Fatalf("PayRangeBatch of 64 cost %d lock acquisitions, want 1", got)
	}
	before = b.LockAcquisitions()
	for i := 0; i < 64; i++ {
		if err := b.PayRange(0, 0, Laplace(0)); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.LockAcquisitions() - before; got != 64 {
		t.Fatalf("64 singleton PayRanges cost %d lock acquisitions, want 64", got)
	}
}

func TestBlockAdmitBatch(t *testing.T) {
	b := NewBlock(1.0, 4)
	if err := b.PayRange(1, 1, Laplace(1.0)); err != nil { // exhaust partition 1
		t.Fatal(err)
	}
	verdicts := b.AdmitBatch([]PartitionRange{
		{Start: 0, End: 0},  // fine
		{Start: 0, End: 1},  // spans the exhausted partition
		{Start: 2, End: 3},  // fine
		{Start: 3, End: 99}, // malformed
	})
	if verdicts[0] != nil || verdicts[2] != nil {
		t.Fatalf("healthy windows refused: %v, %v", verdicts[0], verdicts[2])
	}
	if !errors.Is(verdicts[1], ErrBudgetExhausted) {
		t.Fatalf("exhausted window verdict = %v, want ErrBudgetExhausted", verdicts[1])
	}
	if verdicts[3] == nil || errors.Is(verdicts[3], ErrBudgetExhausted) {
		t.Fatalf("malformed window verdict = %v, want a non-exhaustion error", verdicts[3])
	}
	// Advisory: nothing was deducted.
	if got := b.SpentAt(0); got != 0 {
		t.Fatalf("AdmitBatch deducted %g from partition 0", got)
	}
}

func TestBlockAdmitBatchOneLockAcquisition(t *testing.T) {
	b := NewBlock(1.0, 8)
	wins := make([]PartitionRange, 64)
	for i := range wins {
		wins[i] = PartitionRange{Start: i % 8, End: i % 8}
	}
	before := b.LockAcquisitions()
	b.AdmitBatch(wins)
	if got := b.LockAcquisitions() - before; got != 1 {
		t.Fatalf("AdmitBatch of 64 cost %d lock acquisitions, want 1", got)
	}
	before = b.LockAcquisitions()
	for _, w := range wins {
		b.HasBudgetRange(w.Start, w.End)
	}
	if got := b.LockAcquisitions() - before; got != 64 {
		t.Fatalf("64 singleton HasBudgetRange cost %d acquisitions, want 64", got)
	}
}

func TestBlockPayRangeBatch(t *testing.T) {
	b := NewBlock(1.0, 4)
	verdicts := b.PayRangeBatch([]RangeCharge{
		{Start: 0, End: 3, Cost: Laplace(0.6)},
		{Start: 1, End: 2, Cost: SVInit(0.1)},  // 3ε = 0.3 on the pure grid
		{Start: 0, End: 3, Cost: Laplace(0.3)}, // partitions 1,2 would exceed: atomic refusal
		{Start: 0, End: 0, Cost: Laplace(0.3)}, // partition 0 alone still fits
	})
	if verdicts[0] != nil || verdicts[1] != nil || verdicts[3] != nil {
		t.Fatalf("accepted charges refused: %v %v %v", verdicts[0], verdicts[1], verdicts[3])
	}
	if !errors.Is(verdicts[2], ErrBudgetExhausted) {
		t.Fatalf("busting charge verdict = %v, want ErrBudgetExhausted", verdicts[2])
	}
	// Charge 2's atomicity: partition 0 and 3 untouched by it.
	wantSpent := []float64{0.9, 0.9, 0.9, 0.6}
	for i, want := range wantSpent {
		if got := b.SpentAt(i); got < want-1e-9 || got > want+1e-9 {
			t.Fatalf("partition %d spent %g, want %g", i, got, want)
		}
	}
}

func TestRDPBlockAdmitBatch(t *testing.T) {
	b := NewBlockForDP(DefaultOrders, 1.0, 1e-9, 3)
	// Exhaust partition 1: Gaussian releases until one is refused, then
	// ever smaller ones, so every order ends within 1e-12 of its budget
	// or beyond it and the headroom predicate AdmitBatch shares with
	// HasBudgetRange flips.
	for sigma := 1.0; sigma < 1e9; sigma *= 2 {
		for b.PayRange(1, 1, Gaussian(sigma, 1)) == nil {
		}
	}
	if b.HasBudgetRange(1, 1) {
		t.Fatal("failed to exhaust partition 1")
	}
	verdicts := b.AdmitBatch([]PartitionRange{
		{Start: 0, End: 0},
		{Start: 0, End: 2}, // spans exhausted partition 1
		{Start: 2, End: 2},
		{Start: -1, End: 2}, // malformed
	})
	if verdicts[0] != nil || verdicts[2] != nil {
		t.Fatalf("healthy windows refused: %v, %v", verdicts[0], verdicts[2])
	}
	if !errors.Is(verdicts[1], ErrBudgetExhausted) {
		t.Fatalf("exhausted window verdict = %v, want ErrBudgetExhausted", verdicts[1])
	}
	if verdicts[3] == nil {
		t.Fatal("malformed window admitted")
	}
	if got := b.SpentAt(1); got > 1.0+1e-9 {
		t.Fatalf("exhausted partition converts to %g > ε_G", got)
	}
}

func TestConcurrentFilterAdmitBatch(t *testing.T) {
	// The non-partitioned session's admission round: every window is the
	// full range of a block all of whose partitions carry the same spend.
	b := NewBlock(1.0, 2)
	if err := b.PayRange(0, 1, Laplace(0.7)); err != nil {
		t.Fatal(err)
	}
	full := PartitionRange{Start: 0, End: 1}
	for i, v := range b.AdmitBatch([]PartitionRange{full, full, full}) {
		// Advisory, non-cumulative: all three pass although three more
		// 0.2 releases would not fit — nothing was reserved.
		if v != nil {
			t.Fatalf("verdict %d on a window with headroom: %v", i, v)
		}
	}
	if got := b.SpentAt(0); got != 0.7 {
		t.Fatalf("AdmitBatch moved the books: spent %g, want 0.7", got)
	}
	if err := b.PayRange(0, 1, SVInit(0.1)); err != nil { // 0.7 + 3·0.1 fills ε_G
		t.Fatal(err)
	}
	if v := b.AdmitBatch([]PartitionRange{full}); !errors.Is(v[0], ErrBudgetExhausted) {
		t.Fatalf("exhausted full-range verdict = %v, want ErrBudgetExhausted", v[0])
	}
}
