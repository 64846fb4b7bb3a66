// Test-only accessors: methods no production code calls, kept for the
// package's own tests.

package sparse

// InitCost returns the pure-DP price of one Reset: 3ε (ε1 = ε for the
// threshold, ε2 = 2ε for the error comparisons).
func (s *SV) InitCost() float64 { return 3 * s.eps }
