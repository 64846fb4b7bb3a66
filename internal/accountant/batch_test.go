package accountant

import (
	"errors"
	"testing"
)

func TestBlockAdmitBatch(t *testing.T) {
	b := NewBlock(1.0, 4)
	if err := b.PayRange(1, 1, Laplace(1.0)); err != nil { // exhaust partition 1
		t.Fatal(err)
	}
	verdicts := b.AdmitBatch(nil, []PartitionRange{
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
	b.AdmitBatch(nil, wins)
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
	before = b.LockAcquisitions()
	for _, w := range wins {
		if err := b.PayRange(w.Start, w.End, Laplace(0)); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.LockAcquisitions() - before; got != 64 {
		t.Fatalf("64 singleton PayRanges cost %d acquisitions, want 64", got)
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
	verdicts := b.AdmitBatch(nil, []PartitionRange{
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
	for i, v := range b.AdmitBatch(nil, []PartitionRange{full, full, full}) {
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
	if v := b.AdmitBatch(nil, []PartitionRange{full}); !errors.Is(v[0], ErrBudgetExhausted) {
		t.Fatalf("exhausted full-range verdict = %v, want ErrBudgetExhausted", v[0])
	}
}
