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
// The section's layout: ε_G and δ_G (floats), the order grid (a float
// slice, empty on the pure grid) and the flat spend vector (a float
// slice).

package accountant

import (
	"fmt"
	"math"

	"repro/internal/persist"
)

// SectionBlock tags the block accountant in snapshots.
const SectionBlock = "accountant/block"

// blockState is the block section payload. Orders is nil and Spent is
// the per-partition ε vector on the pure grid; on a Rényi grid Spent is
// the flat partitions × len(Orders) ledger.
type blockState struct {
	Global float64
	Spent  []float64
	Orders []float64
	Delta  float64
}

func (st blockState) encode() []byte {
	var e persist.Encoder
	e.PutFloat(st.Global)
	e.PutFloat(st.Delta)
	e.PutFloats(st.Orders)
	e.PutFloats(st.Spent)
	return e.Payload()
}

func decodeBlockState(payload []byte) (blockState, error) {
	d := persist.NewDecoder(payload)
	st := blockState{Global: d.Float(), Delta: d.Float(), Orders: d.Floats(), Spent: d.Floats()}
	return st, d.Finish()
}

// SnapshotSection implements persist.Snapshotter.
func (b *Block) SnapshotSection() string { return SectionBlock }

// SnapshotPayload exports the ledger.
func (b *Block) SnapshotPayload() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return blockState{Global: b.epsG, Spent: b.spent, Orders: b.orders, Delta: b.deltaG}.encode()
}

// ExpectPartitions sets the partition count the ledger StagePayload
// stages next must cover, for a restore whose dataset grows the session
// past the block's own count. A count below the block's own expects the
// block's own. It changes no spend and no partition count.
func (b *Block) ExpectPartitions(n int) {
	b.mu.Lock()
	b.expect = n
	b.mu.Unlock()
}

// StagePayload implements persist.Snapshotter: it decodes the section and
// validates it against the block (checkState), and the ledger must cover
// exactly the partitions the restore leaves (ExpectPartitions), so a
// snapshot this block can never accept is refused while the session is
// still untouched. The apply replaces the ledger, growing the block to
// the snapshot's partitions.
func (b *Block) StagePayload(payload []byte) (func(), error) {
	st, err := decodeBlockState(payload)
	if err == nil {
		err = b.checkState(st)
	}
	if err != nil {
		return nil, err
	}
	b.mu.Lock()
	want := max(b.partitionsLocked(), b.expect)
	b.mu.Unlock()
	if got := len(st.Spent) / len(b.budget); got != want {
		return nil, fmt.Errorf("accountant: snapshot covers %d partitions, the restore leaves %d", got, want)
	}
	return func() {
		b.mu.Lock()
		b.spent = append(b.spent[:0], st.Spent...)
		b.mu.Unlock()
	}, nil
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
