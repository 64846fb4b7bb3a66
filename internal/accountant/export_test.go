// Test-only accessors: methods no production code calls, kept for the
// package's own tests.

package accountant

// SpentAt returns the budget consumed on partition i, as an ε (see
// SpentVector).
func (b *Block) SpentAt(i int) float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.convertedLocked(i)
}

// maxSpent is the highest per-partition consumption, read as /budget
// reads max_spent: the max over SpentVector, 0 with no partitions.
func maxSpent(b *Block) float64 {
	m := 0.0
	for _, s := range b.SpentVector() {
		m = max(m, s)
	}
	return m
}

// CurveAt returns a copy of partition p's per-order spend, aligned with
// Orders() (one entry, the ε spend, on the pure grid).
func (b *Block) CurveAt(p int) []float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	k := len(b.budget)
	return append([]float64(nil), b.spent[p*k:(p+1)*k]...)
}
