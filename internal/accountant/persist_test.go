package accountant

import (
	"strings"
	"testing"
)

func TestBlockSnapshotRoundTrip(t *testing.T) {
	b1 := NewBlock(5, 4)
	if err := b1.PayRange(0, 2, Laplace(1.5)); err != nil {
		t.Fatal(err)
	}
	if err := b1.PayRange(3, 3, Laplace(4)); err != nil {
		t.Fatal(err)
	}
	payload := b1.SnapshotPayload()

	b2 := NewBlock(5, 4)
	if err := restore(b2, payload); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 4; p++ {
		if b2.SpentAt(p) != b1.SpentAt(p) {
			t.Fatalf("partition %d: restored %g, want %g", p, b2.SpentAt(p), b1.SpentAt(p))
		}
	}
	// Restored consumption keeps enforcing: partition 3 has 1 left.
	if err := b2.PayRange(3, 3, Laplace(1.5)); err == nil {
		t.Fatal("over-budget payment accepted after restore")
	}
	if err := b2.PayRange(3, 3, Laplace(0.5)); err != nil {
		t.Fatal(err)
	}

	// Mismatched ε_G, accounting and partition count are refused, and
	// refused whole.
	if _, err := NewBlock(7, 4).StagePayload(payload); err == nil ||
		!strings.Contains(err.Error(), "ε_G") {
		t.Fatalf("ε_G mismatch accepted: %v", err)
	}
	if _, err := NewBlockForDP(DefaultOrders, 5, 1e-6, 4).StagePayload(payload); err == nil {
		t.Fatal("pure-ε snapshot accepted by a Rényi block")
	}
	short := NewBlock(5, 3)
	if _, err := short.StagePayload(payload); err == nil || short.MaxSpent() != 0 {
		t.Fatalf("partition mismatch: err %v, spent %v", err, short.SpentVector())
	}
	if _, err := NewBlock(5, 4).StagePayload([]byte("junk")); err == nil {
		t.Fatal("garbage payload accepted")
	}
	// A pure ledger claiming more than ε_G is refused.
	over := blockState{Global: 5, Spent: []float64{0, 0, 0, 5.5}}.encode()
	if _, err := NewBlock(5, 4).StagePayload(over); err == nil {
		t.Fatal("over-budget ledger accepted")
	}
}

func TestRDPBlockSnapshotRoundTrip(t *testing.T) {
	const epsG, deltaG = 5.0, 1e-6
	b1 := NewBlockForDP(DefaultOrders, epsG, deltaG, 3)
	if err := b1.PayRange(0, 1, Gaussian(2.0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := b1.PayRange(1, 2, Laplace(0.7)); err != nil {
		t.Fatal(err)
	}
	payload := b1.SnapshotPayload()
	b2 := NewBlockForDP(DefaultOrders, epsG, deltaG, 3)
	if err := restore(b2, payload); err != nil {
		t.Fatal(err)
	}
	same := func(when string) {
		t.Helper()
		for p := 0; p < 3; p++ {
			c1, c2 := b1.CurveAt(p), b2.CurveAt(p)
			for j := range c1 {
				if c1[j] != c2[j] {
					t.Fatalf("%s: partition %d order %g: restored %g, want %g", when, p, DefaultOrders[j], c2[j], c1[j])
				}
			}
			if b1.SpentAt(p) != b2.SpentAt(p) {
				t.Fatalf("%s: partition %d converted spend %g != %g", when, p, b2.SpentAt(p), b1.SpentAt(p))
			}
		}
	}
	same("restored")
	// Post-restore payments compose onto the restored history, not onto
	// zero: both blocks advance in step.
	for _, b := range []*Block{b1, b2} {
		if err := b.PayRange(0, 0, Laplace(0.3)); err != nil {
			t.Fatal(err)
		}
	}
	same("after a post-restore payment")
}

func TestRDPBlockRestoreValidation(t *testing.T) {
	const epsG, deltaG = 5.0, 1e-6
	src := NewBlockForDP(DefaultOrders, epsG, deltaG, 2)
	if err := src.PayRange(0, 1, Laplace(0.5)); err != nil {
		t.Fatal(err)
	}
	payload := src.SnapshotPayload()
	for name, dst := range map[string]*Block{
		"δ_G":             NewBlockForDP(DefaultOrders, epsG, 1e-7, 2),
		"ε_G":             NewBlockForDP(DefaultOrders, 4, deltaG, 2),
		"partition count": NewBlockForDP(DefaultOrders, epsG, deltaG, 3),
		"order grid":      NewBlockForDP([]float64{2, 4, 8}, epsG, deltaG, 2),
		"accounting":      NewBlock(epsG, 2),
	} {
		if _, err := dst.StagePayload(payload); err == nil {
			t.Fatalf("%s mismatch accepted", name)
		}
		if dst.MaxSpent() != 0 {
			t.Fatalf("%s mismatch refused after mutating: %v", name, dst.SpentVector())
		}
	}
	// Bad values: a ragged ledger, a negative or non-finite spend.
	for name, spent := range map[string][]float64{
		"ragged":   make([]float64, 2*len(DefaultOrders)-1),
		"negative": append(make([]float64, 2*len(DefaultOrders)-1), -1),
	} {
		bad := blockState{Global: epsG, Delta: deltaG, Orders: DefaultOrders, Spent: spent}.encode()
		if _, err := NewBlockForDP(DefaultOrders, epsG, deltaG, 2).StagePayload(bad); err == nil {
			t.Fatalf("%s ledger accepted", name)
		}
	}
}

// TestBlockStagePayload: staging vets the section without touching the
// ledger — refusing a snapshot that covers fewer partitions than the
// block, and one that covers more unless the restore expects them (a
// dataset section grows the session) — and the apply grows the block to
// exactly the snapshot's partitions.
func TestBlockStagePayload(t *testing.T) {
	const epsG, deltaG = 2.0, 1e-6
	src := NewBlockForDP(DefaultOrders, epsG, deltaG, 3)
	if err := src.PayRange(0, 2, Laplace(0.1)); err != nil {
		t.Fatal(err)
	}
	payload := src.SnapshotPayload()
	if _, err := NewBlockForDP(DefaultOrders, epsG, deltaG, 4).StagePayload(payload); err == nil {
		t.Fatal("a snapshot of fewer partitions than the block was staged")
	}
	dst := NewBlockForDP(DefaultOrders, epsG, deltaG, 2)
	if _, err := dst.StagePayload(payload); err == nil {
		t.Fatal("a snapshot of more partitions than the restore leaves was staged")
	}
	dst.ExpectPartitions(4)
	if _, err := dst.StagePayload(payload); err == nil {
		t.Fatal("a snapshot of 3 partitions was staged for a restore that leaves 4")
	}
	dst.ExpectPartitions(3)
	apply, err := dst.StagePayload(payload)
	if err != nil {
		t.Fatalf("a snapshot of the 3 partitions the restore leaves: %v", err)
	}
	if dst.MaxSpent() != 0 || dst.Partitions() != 2 {
		t.Fatal("staging moved the ledger")
	}
	apply()
	if dst.Partitions() != 3 {
		t.Fatalf("the apply left %d partitions, want 3", dst.Partitions())
	}
	for p := 0; p < 3; p++ {
		if dst.SpentAt(p) != src.SpentAt(p) {
			t.Fatalf("partition %d: restored %g, saved %g", p, dst.SpentAt(p), src.SpentAt(p))
		}
	}
}

// restore stages payload into b and applies it.
func restore(b *Block, payload []byte) error {
	apply, err := b.StagePayload(payload)
	if err == nil {
		apply()
	}
	return err
}
