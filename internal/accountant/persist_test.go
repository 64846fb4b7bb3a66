package accountant

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/persist"
)

func TestBlockSnapshotRoundTrip(t *testing.T) {
	b1 := NewBlock(5, 4)
	if err := b1.PayRange(0, 2, Laplace(1.5)); err != nil {
		t.Fatal(err)
	}
	if err := b1.PayRange(3, 3, Laplace(4)); err != nil {
		t.Fatal(err)
	}
	payload, err := b1.SnapshotPayload()
	if err != nil {
		t.Fatal(err)
	}

	b2 := NewBlock(5, 4)
	if err := b2.RestorePayload(payload); err != nil {
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
	if err := NewBlock(7, 4).RestorePayload(payload); err == nil ||
		!strings.Contains(err.Error(), "ε_G") {
		t.Fatalf("ε_G mismatch accepted: %v", err)
	}
	if err := NewBlockForDP(DefaultOrders, 5, 1e-6, 4).RestorePayload(payload); err == nil {
		t.Fatal("pure-ε snapshot accepted by a Rényi block")
	}
	short := NewBlock(5, 3)
	if err := short.RestorePayload(payload); err == nil || short.MaxSpent() != 0 {
		t.Fatalf("partition mismatch: err %v, spent %v", err, short.SpentVector())
	}
	if err := NewBlock(5, 4).RestorePayload([]byte("junk")); err == nil {
		t.Fatal("garbage payload accepted")
	}
	// A pure ledger claiming more than ε_G is refused.
	over, _ := persist.Encode(blockState{Global: 5, Spent: []float64{0, 0, 0, 5.5}})
	if err := NewBlock(5, 4).RestorePayload(over); err == nil {
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
	payload, err := b1.SnapshotPayload()
	if err != nil {
		t.Fatal(err)
	}
	b2 := NewBlockForDP(DefaultOrders, epsG, deltaG, 3)
	if err := b2.RestorePayload(payload); err != nil {
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
	payload, err := src.SnapshotPayload()
	if err != nil {
		t.Fatal(err)
	}
	for name, dst := range map[string]*Block{
		"δ_G":             NewBlockForDP(DefaultOrders, epsG, 1e-7, 2),
		"ε_G":             NewBlockForDP(DefaultOrders, 4, deltaG, 2),
		"partition count": NewBlockForDP(DefaultOrders, epsG, deltaG, 3),
		"order grid":      NewBlockForDP([]float64{2, 4, 8}, epsG, deltaG, 2),
		"accounting":      NewBlock(epsG, 2),
	} {
		if err := dst.RestorePayload(payload); err == nil {
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
		bad, _ := persist.Encode(blockState{Global: epsG, Delta: deltaG, Orders: DefaultOrders, Spent: spent})
		if err := NewBlockForDP(DefaultOrders, epsG, deltaG, 2).RestorePayload(bad); err == nil {
			t.Fatalf("%s ledger accepted", name)
		}
	}
}

// legacyRDPSections builds the two sections a pre-unification build
// wrote for an (ε_G, δ_G) session from the reference models: the scalar
// mirror under SectionBlock and the curves under "accountant/rdp", in
// the old struct shapes.
func legacyRDPSections(t *testing.T, m *modelRDPBlock) map[string][]byte {
	t.Helper()
	type oldBlockState struct {
		Global float64
		Spent  []float64
	}
	type oldRDPBlockState struct {
		Orders   []float64
		EpsG     float64
		DeltaG   float64
		Spent    [][]float64
		Mirrored []float64
	}
	rdp := oldRDPBlockState{Orders: m.orders, EpsG: m.epsG, DeltaG: m.deltaG, Mirrored: m.mirrored}
	for _, c := range m.spent {
		rdp.Spent = append(rdp.Spent, c.Eps)
	}
	mirror, err := persist.Encode(oldBlockState{Global: m.mirror.global, Spent: m.mirror.spent})
	if err != nil {
		t.Fatal(err)
	}
	curves, err := persist.Encode(rdp)
	if err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{SectionBlock: mirror, "accountant/rdp": curves, "other/section": []byte("untouched")}
}

func TestUpgradeSnapshotLegacyRDP(t *testing.T) {
	const epsG, deltaG = 2.0, 1e-6
	old := newModelRDPBlock(DefaultOrders, epsG, deltaG, 3)
	r := renyiBooks{old}
	for i := 0; i < 30; i++ {
		if err := r.pay(i%3, 2, Laplace(0.02)); err != nil {
			t.Fatal(err)
		}
		if err := r.pay(0, i%2, Gaussian(60, 1)); err != nil {
			t.Fatal(err)
		}
	}
	sections := legacyRDPSections(t, old)
	b := NewBlockForDP(DefaultOrders, epsG, deltaG, 3)
	if err := b.UpgradeSnapshot(sections); err != nil {
		t.Fatal(err)
	}
	if _, still := sections["accountant/rdp"]; still || string(sections["other/section"]) != "untouched" {
		t.Fatalf("upgrade left sections %v", sections)
	}
	if b.MaxSpent() != 0 {
		t.Fatal("UpgradeSnapshot mutated the block")
	}
	if err := b.RestorePayload(sections[SectionBlock]); err != nil {
		t.Fatal(err)
	}
	r.compare(t, 0, b) // curves bit-identical, converted spend within 1e-12 of the old mirror
	// Never less spend than the snapshot was saved with.
	for p, m := range old.mirror.spent {
		if b.SpentAt(p) < m-1e-12 {
			t.Fatalf("partition %d restored to %g, saved with %g", p, b.SpentAt(p), m)
		}
	}

	refused := func(name string, dst *Block, mutate func(m *modelRDPBlock)) {
		t.Helper()
		m := newModelRDPBlock(DefaultOrders, epsG, deltaG, 3)
		if err := (renyiBooks{m}).pay(0, 2, Laplace(0.1)); err != nil {
			t.Fatal(err)
		}
		if mutate != nil {
			mutate(m)
		}
		err := dst.UpgradeSnapshot(legacyRDPSections(t, m))
		var se *persist.SectionError
		if !errors.As(err, &se) {
			t.Fatalf("%s: err %v, want a SectionError", name, err)
		}
		if dst.MaxSpent() != 0 {
			t.Fatalf("%s: refused after mutating", name)
		}
	}
	refused("δ_G", NewBlockForDP(DefaultOrders, epsG, 1e-7, 3), nil)
	refused("ε_G", NewBlockForDP(DefaultOrders, 3, deltaG, 3), nil)
	refused("grid", NewBlockForDP([]float64{2, 4, 8}, epsG, deltaG, 3), nil)
	refused("pure session", NewBlock(epsG, 3), nil)
	refused("fewer partitions than the session", NewBlockForDP(DefaultOrders, epsG, deltaG, 4), nil)
	refused("mirror above the converted curves", NewBlockForDP(DefaultOrders, epsG, deltaG, 3),
		func(m *modelRDPBlock) { m.mirror.spent[1] += 0.01 })
	refused("mirror and curves disagree on partitions", NewBlockForDP(DefaultOrders, epsG, deltaG, 3),
		func(m *modelRDPBlock) { m.mirror.addPartitions(1) })
	refused("ragged curve", NewBlockForDP(DefaultOrders, epsG, deltaG, 3),
		func(m *modelRDPBlock) { m.spent[2].Eps = m.spent[2].Eps[:5] })

	// A snapshot may cover more partitions than the fresh session (its
	// dataset section grows the session before the block restores).
	if err := NewBlockForDP(DefaultOrders, epsG, deltaG, 2).UpgradeSnapshot(legacyRDPSections(t, old)); err != nil {
		t.Fatalf("snapshot with more partitions than the session: %v", err)
	}
}

func TestUpgradeSnapshotLegacyPure(t *testing.T) {
	// The old pure section — {Global, Spent} — is today's pure section.
	type oldBlockState struct {
		Global float64
		Spent  []float64
	}
	payload, err := persist.Encode(oldBlockState{Global: 1, Spent: []float64{0.25, 0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string][]byte{SectionBlock: payload}
	b := NewBlock(1, 3)
	if err := b.UpgradeSnapshot(sections); err != nil {
		t.Fatal(err)
	}
	if err := b.RestorePayload(sections[SectionBlock]); err != nil {
		t.Fatal(err)
	}
	for p, want := range []float64{0.25, 0, 1} {
		if b.SpentAt(p) != want {
			t.Fatalf("partition %d restored to %g, want %g", p, b.SpentAt(p), want)
		}
	}
	if err := b.PayRange(2, 2, Laplace(0.01)); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("restored exhausted partition took a payment: %v", err)
	}
	if err := NewBlock(2, 3).UpgradeSnapshot(map[string][]byte{SectionBlock: payload}); err == nil {
		t.Fatal("ε_G mismatch passed the pre-check")
	}
	if err := NewBlock(1, 3).UpgradeSnapshot(map[string][]byte{}); err != nil {
		t.Fatalf("missing section is the registry's to report: %v", err)
	}
}
