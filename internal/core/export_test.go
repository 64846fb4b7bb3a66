package core

import (
	"testing"

	"repro/internal/accountant"
	"repro/internal/persist"
	"repro/internal/pmw"
)

// PMW exposes the single PMW-Bypass in non-partitioned mode (nil
// otherwise), for tests that read its histogram and counters.
func (s *Session) PMW() *pmw.PMW { return s.single }

// curveAt returns partition p's per-order spend, aligned with the block's
// Orders (one entry, the ε spend, on the pure grid), read off its
// snapshot payload: ε_G, δ_G, the order grid, then the flat ledger.
func curveAt(t testing.TB, b *accountant.Block, p int) []float64 {
	t.Helper()
	payload := b.SnapshotPayload()
	d := persist.NewDecoder(payload)
	d.Float()
	d.Float()
	k := max(1, len(d.Floats()))
	spent := d.Floats()
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	return spent[p*k : (p+1)*k]
}
