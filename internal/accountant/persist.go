// Durable accountant state: the block's section of a session snapshot
// (internal/persist). Spend is the one thing a restart must never
// forfeit — forgetting consumption would let a restored deployment
// exceed ε_G — so the block serializes its whole ledger: the flat
// per-partition, per-order spend vector plus the grid and target it was
// composed under. A restored block sees the exact composed history, so
// the combined pre- and post-restore consumption can never exceed the
// target, and there is nothing else to bring back in step with it.
//
// Live sparse vectors are deliberately not persisted: their cost is
// irrevocable and stays in the spent state, and a restored session
// re-initializes SVs on first use — one fresh init payment per node
// set, which is always privacy-safe.
//
// Older builds kept two sets of books and wrote two sections for an
// (ε_G, δ_G) session: SectionBlock held a scalar "mirror" of each
// partition's converted spend and "accountant/rdp" held the curves.
// UpgradeSnapshot folds that pair into today's single section before
// anything restores; an older pure-ε section decodes as is.

package accountant

import (
	"fmt"
	"math"

	"repro/internal/persist"
)

// SectionBlock tags the block accountant in snapshots.
const SectionBlock = "accountant/block"

// sectionLegacyRDP tagged the separate Rényi accountant of older builds.
const sectionLegacyRDP = "accountant/rdp"

// blockState is the block section payload. Orders is nil and Spent is
// the per-partition ε vector on the pure grid; on a Rényi grid Spent is
// the flat partitions × len(Orders) ledger.
type blockState struct {
	Global float64
	Spent  []float64
	Orders []float64
	Delta  float64
}

// legacyRDPState is what this build reads of the payload older builds
// wrote under sectionLegacyRDP.
type legacyRDPState struct {
	Orders []float64
	EpsG   float64
	DeltaG float64
	Spent  [][]float64
}

// SnapshotSection implements persist.Snapshotter.
func (b *Block) SnapshotSection() string { return SectionBlock }

// SnapshotPayload exports the ledger.
func (b *Block) SnapshotPayload() ([]byte, error) {
	b.mu.Lock()
	st := blockState{
		Global: b.epsG,
		Spent:  append([]float64(nil), b.spent...),
		Orders: b.orders,
		Delta:  b.deltaG,
	}
	b.mu.Unlock()
	return persist.Encode(st)
}

// RestorePayload replaces the ledger with a snapshot's. The snapshot
// must target the same ε_G (and δ_G) over the same order grid and
// partition count; every check runs before anything is replaced.
func (b *Block) RestorePayload(payload []byte) error {
	st, err := b.readSnapshot(payload, nil)
	if err != nil {
		return err
	}
	return b.RestoreSpent(st.Spent)
}

// checkState validates everything about a snapshot that does not depend
// on the block's current partition count.
func (b *Block) checkState(st blockState) error {
	if st.Global != b.epsG || st.Delta != b.deltaG {
		return fmt.Errorf("accountant: snapshot targets (ε_G=%g, δ_G=%g), session enforces (%g, %g)",
			st.Global, st.Delta, b.epsG, b.deltaG)
	}
	if len(st.Orders) != len(b.orders) {
		return fmt.Errorf("accountant: snapshot order grid has %d orders, session has %d",
			len(st.Orders), len(b.orders))
	}
	for j, a := range st.Orders {
		if a != b.orders[j] {
			return fmt.Errorf("accountant: snapshot order grid differs at %d (%g vs %g)", j, a, b.orders[j])
		}
	}
	k := len(b.budget)
	if len(st.Spent)%k != 0 {
		return fmt.Errorf("accountant: snapshot ledger of %d values is not a multiple of %d orders", len(st.Spent), k)
	}
	for i, s := range st.Spent {
		// A restored history needs no stopping-rule check on a Rényi grid
		// — it was admitted payment by payment when first composed, and
		// may exceed the budget at all orders but one — but on the pure
		// grid the one order must hold.
		if s < 0 || math.IsNaN(s) || math.IsInf(s, 0) || (b.orders == nil && s > b.epsG+tol) {
			return fmt.Errorf("accountant: bad restored spend %g at partition %d", s, i/k)
		}
	}
	return nil
}

// RestoreSpent replaces the flat ledger with a previously exported one
// covering exactly the current partitions.
func (b *Block) RestoreSpent(v []float64) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(v) != len(b.spent) {
		k := len(b.budget)
		return fmt.Errorf("accountant: restore ledger has %d partitions, want %d", len(v)/k, len(b.spent)/k)
	}
	copy(b.spent, v)
	return nil
}

// readSnapshot decodes a block section and validates it against the
// block (checkState). With an older build's curve section alongside,
// payload is that build's scalar mirror: the curves become the ledger,
// and the mirror — redundant now that converted spend is derived, but
// what the old /budget reported — must not claim more than the curves
// convert to, so a snapshot is never restored with less spend than it
// was saved with.
func (b *Block) readSnapshot(payload, legacy []byte) (blockState, error) {
	var st blockState
	if err := persist.Decode(payload, &st); err != nil {
		return st, err
	}
	if legacy == nil {
		return st, b.checkState(st)
	}
	var old legacyRDPState
	if err := persist.Decode(legacy, &old); err != nil {
		return st, err
	}
	mirror := st.Spent
	st = blockState{Global: old.EpsG, Orders: old.Orders, Delta: old.DeltaG}
	k := len(old.Orders)
	for p, curve := range old.Spent {
		if len(curve) != k {
			return st, fmt.Errorf("accountant: partition %d curve has %d orders, want %d", p, len(curve), k)
		}
		st.Spent = append(st.Spent, curve...)
	}
	if err := b.checkState(st); err != nil {
		return st, err
	}
	if len(mirror) != len(old.Spent) {
		return st, fmt.Errorf("accountant: legacy mirror covers %d partitions, its curves %d", len(mirror), len(old.Spent))
	}
	for p, m := range mirror {
		// The mirror was a running sum of conversion increments, so it
		// sits within float noise of the direct conversion.
		if conv := b.convert(st.Spent[p*k : (p+1)*k]); !(m <= conv+1e-9) {
			return st, fmt.Errorf("accountant: partition %d legacy mirror %g exceeds its curves' converted spend %g", p, m, conv)
		}
	}
	return st, nil
}

// UpgradeSnapshot prepares a snapshot's sections for this block before
// any layer restores: it validates the block's section (readSnapshot,
// plus a partition count no smaller than the block's — a restore only
// ever grows a session), so a snapshot this block can never accept is
// refused while the session is still untouched, and it folds an older
// build's two-section Rényi state into SectionBlock. Only the map is
// modified.
func (b *Block) UpgradeSnapshot(payloads map[string][]byte) error {
	payload, ok := payloads[SectionBlock]
	if !ok {
		return nil // the registry reports the missing section
	}
	legacy := payloads[sectionLegacyRDP]
	st, err := b.readSnapshot(payload, legacy)
	if have, got := b.Partitions(), len(st.Spent)/len(b.budget); err == nil && got < have {
		err = fmt.Errorf("accountant: snapshot covers %d partitions, session already has %d", got, have)
	}
	if err != nil {
		return &persist.SectionError{Section: SectionBlock, Err: err}
	}
	if legacy != nil {
		if payloads[SectionBlock], err = persist.Encode(st); err != nil {
			return err
		}
		delete(payloads, sectionLegacyRDP)
	}
	return nil
}
