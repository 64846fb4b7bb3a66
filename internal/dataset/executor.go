// DP query executor over the dataset substrate, implementing the
// QueryExecutor side of the Turbo API (Fig. 7b): non-private execution for
// SV checks, and DP execution through the Laplace (or Gaussian) mechanism
// with the option to reuse a previously-obtained true result so the data is
// scanned once per query at most.

package dataset

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/noise"
	"repro/internal/query"
)

// Mechanism selects the randomization the DP executor applies.
type Mechanism int

const (
	// Laplace adds Lap(1/εn) noise: the pure-DP mechanism of the paper's
	// evaluated artifact.
	Laplace Mechanism = iota
	// Gaussian adds N(0, σ²) noise to the released fraction, with σ
	// calibrated per Lemma A.10 — the §A.6 extension, accounted under
	// RDP. (The lemma's proof calibrates σ in fraction units; the
	// lemma's "N(0, σ²/n²)" phrasing is a units slip — see
	// EXPERIMENTS.md.)
	Gaussian
)

// String implements fmt.Stringer.
func (m Mechanism) String() string {
	switch m {
	case Laplace:
		return "laplace"
	case Gaussian:
		return "gaussian"
	default:
		return fmt.Sprintf("mechanism(%d)", int(m))
	}
}

// Executor answers linear queries over a Dataset, privately or not. It does
// not do accounting: callers pay the accountant before invoking ExecuteDP,
// mirroring the separation in the Turbo API.
type Executor struct {
	ds  *Dataset
	rng *noise.Rng

	// GaussianSigma, when executing with the Gaussian mechanism, is the σ
	// from noise.GaussianSigmaForBypass (noise added is N(0, σ²) on the
	// fraction result).
	GaussianSigma float64
	mech          Mechanism

	npQueries atomic.Int64
	dpQueries atomic.Int64
}

// NewExecutor creates a Laplace executor over ds drawing noise from rng.
func NewExecutor(ds *Dataset, rng *noise.Rng) *Executor {
	return &Executor{ds: ds, rng: rng, mech: Laplace}
}

// WithGaussian switches the executor to the Gaussian mechanism with the
// given σ (pre n-scaling). It returns the executor for chaining.
func (e *Executor) WithGaussian(sigma float64) *Executor {
	if sigma <= 0 || math.IsNaN(sigma) {
		panic(fmt.Sprintf("dataset: bad Gaussian sigma %g", sigma))
	}
	e.mech = Gaussian
	e.GaussianSigma = sigma
	return e
}

// Dataset returns the underlying store.
func (e *Executor) Dataset() *Dataset { return e.ds }

// ExecuteNP runs q over partitions [start, end] without privacy — the true
// fraction. Only SV checks and ExecuteDP may consume this value.
func (e *Executor) ExecuteNP(q *query.Query, start, end int) (float64, error) {
	e.npQueries.Add(1)
	return e.ds.TrueFraction(q, start, end)
}

// ExecuteDP runs q over [start, end] with the active mechanism calibrated
// to per-query budget eps, perturbing trueResult if the caller already has
// it (pass NaN otherwise). The caller must have paid eps (Laplace) or the
// corresponding RDP cost (Gaussian) to the accountant.
func (e *Executor) ExecuteDP(q *query.Query, start, end int, eps float64, trueResult float64) (float64, error) {
	if eps <= 0 || math.IsNaN(eps) {
		return 0, fmt.Errorf("dataset: bad epsilon %g", eps)
	}
	var n int
	if math.IsNaN(trueResult) {
		// One pass resolves the true result and the window size together
		// (TrueFractionN), instead of a second locked metadata scan.
		var err error
		e.npQueries.Add(1)
		trueResult, n, err = e.ds.TrueFractionN(q, start, end)
		if err != nil {
			return 0, err
		}
	} else {
		var err error
		n, err = e.ds.NRows(start, end)
		if err != nil {
			return 0, err
		}
	}
	if n == 0 {
		return 0, fmt.Errorf("dataset: DP execution over empty range [%d,%d]", start, end)
	}
	e.dpQueries.Add(1)
	switch e.mech {
	case Laplace:
		return trueResult + e.rng.Laplace(1/(eps*float64(n))), nil
	case Gaussian:
		return trueResult + e.rng.Gaussian(e.GaussianSigma), nil
	default:
		return 0, fmt.Errorf("dataset: unknown mechanism %v", e.mech)
	}
}

// Stats returns the number of non-private and DP executions performed.
func (e *Executor) Stats() (np, dp int) { return int(e.npQueries.Load()), int(e.dpQueries.Load()) }
