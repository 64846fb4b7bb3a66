// Test-only accessors: methods no production code calls, kept for the
// package's own tests.

package histogram

// Weight returns h(bin).
func (h *Histogram) Weight(bin int) float64 { return h.weights[bin] * h.scale }

// Weights returns the weight vector. With no renormalization pending it
// is the underlying storage (callers must not modify it); otherwise a
// scaled copy is materialized, so reads never mutate the histogram.
func (h *Histogram) Weights() []float64 {
	if h.scale == 1 {
		return h.weights
	}
	out := make([]float64, len(h.weights))
	for i, w := range h.weights {
		out[i] = w * h.scale
	}
	return out
}
