// Average-of-attribute queries built from counting primitives. The paper
// notes turbo-lib "can be extended to support other types of linear
// aggregations, such as sums, averages" (§5); AnswerAverage realizes the
// extension by post-processing per-value counting queries, so every
// released number still flows through the Turbo pipeline and its
// accounting.

package core

import (
	"errors"
	"fmt"

	"repro/internal/query"
)

// AverageResult is a released average with its accuracy bound.
type AverageResult struct {
	// Value is the released average of scale(v) over rows matching the
	// base predicate.
	Value float64
	// ErrorBound bounds |released − true| with the same per-query
	// confidence: the counting errors compose linearly across the
	// |attr| per-value queries, each weighted by |scale(v)|, and the
	// denominator's own error is propagated at first order.
	ErrorBound float64
	// Paid is the total budget consumed.
	Paid float64
}

// AnswerAverage releases AVG(scale(attr)) over the rows selected by base:
// Σ_v scale(v)·count(base ∧ attr=v) / count(base). scale maps attribute
// values to the numeric quantity being averaged (e.g. bracket midpoints
// for an age attribute). base must not constrain attr.
//
// Every constituent count is an ordinary Turbo linear query; the average
// itself is post-processing, consuming no extra budget beyond the counts.
func (s *Session) AnswerAverage(base *query.Query, attr int, scale func(v int) float64) (AverageResult, error) {
	dom := s.ds.Domain()
	if attr < 0 || attr >= dom.NumAttrs() {
		return AverageResult{}, fmt.Errorf("core: attribute %d out of range", attr)
	}
	if base.Allowed(attr) != nil {
		return AverageResult{}, errors.New("core: averaged attribute must be unconstrained in the base query")
	}
	if scale == nil {
		return AverageResult{}, errors.New("core: nil scale function")
	}

	// Denominator: the base predicate's fraction.
	denomAns, err := s.Answer(base)
	if err != nil {
		return AverageResult{}, err
	}
	paid := denomAns.Paid
	denom := denomAns.Value
	if denom <= s.cfg.Alpha {
		return AverageResult{}, fmt.Errorf("core: base predicate selects too few rows (%.4g ≤ α) for a meaningful average", denom)
	}

	// Numerator: one counting query per attribute value.
	num := 0.0
	sumAbsScale := 0.0
	for v := 0; v < dom.Card(attr); v++ {
		b := query.NewBuilder(dom)
		for a := 0; a < dom.NumAttrs(); a++ {
			if vals := base.Allowed(a); vals != nil {
				b.Restrict(a, vals...)
			}
		}
		b.Restrict(attr, v)
		if st, en, ok := base.Window(); ok {
			b.Window(st, en)
		}
		q, err := b.Build()
		if err != nil {
			return AverageResult{}, err
		}
		a, err := s.Answer(q)
		if err != nil {
			return AverageResult{}, err
		}
		paid += a.Paid
		sv := scale(v)
		num += sv * a.Value
		if sv < 0 {
			sv = -sv
		}
		sumAbsScale += sv
	}

	value := num / denom
	// First-order error propagation: |Δ(num/denom)| ≤
	// (Σ|scale|·α)/denom + |num|/denom² · α.
	alpha := s.cfg.Alpha
	absNum := num
	if absNum < 0 {
		absNum = -absNum
	}
	bound := sumAbsScale*alpha/denom + absNum*alpha/(denom*denom)
	return AverageResult{Value: value, ErrorBound: bound, Paid: paid}, nil
}
