// The empirical-convergence metric of §6.1: periodically evaluate the
// histogram on a validation workload sampled from the same pool, measure
// the fraction of queries answered within α/2, and report the number of
// histogram updates needed to reach 90% validation accuracy.

package workload

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/histogram"
	"repro/internal/noise"
	"repro/internal/query"
)

// Validator measures histogram quality against ground truth.
type Validator struct {
	queries []*query.Query
	truth   []float64
	alpha   float64
}

// NewValidator samples size validation queries from pool and precomputes
// their true results over partitions [start, end] of ds.
func NewValidator(pool []*query.Query, size int, alpha float64, ds *dataset.Dataset, start, end int, rng *noise.Rng) (*Validator, error) {
	if size <= 0 || alpha <= 0 {
		return nil, fmt.Errorf("workload: bad validator parameters size=%d alpha=%g", size, alpha)
	}
	z, err := NewZipf(pool, 0, rng)
	if err != nil {
		return nil, err
	}
	v := &Validator{alpha: alpha}
	v.queries = z.SampleN(size)
	v.truth = make([]float64, size)
	for i, q := range v.queries {
		t, err := ds.TrueFraction(q, start, end)
		if err != nil {
			return nil, err
		}
		v.truth[i] = t
	}
	return v, nil
}

// Accuracy returns the fraction of validation queries the histogram
// answers with error < α/2.
func (v *Validator) Accuracy(h *histogram.Histogram) float64 {
	good := 0
	for i, q := range v.queries {
		err := h.Eval(q) - v.truth[i]
		if err < 0 {
			err = -err
		}
		if err < v.alpha/2 {
			good++
		}
	}
	return float64(good) / float64(len(v.queries))
}

// Converged reports whether the histogram meets the 90% validation
// accuracy bar defining empirical convergence.
func (v *Validator) Converged(h *histogram.Histogram) bool {
	return v.Accuracy(h) >= 0.9
}
