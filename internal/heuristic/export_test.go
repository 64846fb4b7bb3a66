// Test-only accessors: methods no production code calls, kept for the
// package's own tests.

package heuristic

// Threshold exposes a bin's current threshold for tests and diagnostics.
func (a *AdaptivePerBin) Threshold(bin int) float64 {
	if a.thresholds == nil {
		return a.c0
	}
	return a.thresholds[bin]
}

// Bypassed returns how many queries have taken the bypass branch so far.
func (c *Cutoff) Bypassed() int { return c.bypassed }
