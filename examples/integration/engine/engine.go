// Package engine is a miniature DP SQL engine in the mould of Tumult
// Core/Analytics (§5 of the Turbo paper): analysts evaluate query
// expressions against a session that compiles them into measurements —
// self-describing DP computations that report the privacy budget they
// consume — and a core that executes measurements and deducts their cost
// from a privacy accountant.
//
// The package exists to demonstrate the paper's light-touch integration
// claim: the turbo adapter (turbo.go) adds Turbo caching to this engine by
// defining three extra measurement types (non-private evaluation for SV
// checks, noise-only evaluation reusing a true result, and consume-only
// accounting for SV resets) without modifying any engine code — exactly
// the strategy turbo-tumult uses on Tumult (Fig. 7a).
package engine

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/accountant"
	"repro/internal/dataset"
	"repro/internal/noise"
	"repro/internal/query"
)

// Measurement is a DP computation over the store: Tumult's core
// abstraction. Evaluate returns the released value; Cost reports the
// pure-DP budget the core must deduct before evaluation.
type Measurement interface {
	Evaluate(ds *dataset.Dataset, rng *noise.Rng) (float64, error)
	Cost() float64
	// Describe names the measurement for logs and errors.
	Describe() string
}

// Core executes measurements and enforces the global guarantee — the
// Tumult Core role. It is deliberately ignorant of caching.
type Core struct {
	ds *dataset.Dataset
	// acct is the engine's own books: one partition (the engine does not
	// partition its data) of a pure-ε block.
	acct accountant.Window
	rng  *noise.Rng

	evaluated int
}

// NewCore creates a core over ds enforcing a global ε_G.
func NewCore(ds *dataset.Dataset, epsG float64, seed uint64) *Core {
	return &Core{ds: ds, acct: accountant.Window{Block: accountant.NewBlock(epsG, 1)}, rng: noise.NewRng(seed)}
}

// Evaluate deducts the measurement's cost, then runs it. A measurement
// whose cost cannot be paid is not executed.
func (c *Core) Evaluate(m Measurement) (float64, error) {
	// An ε-DP measurement costs ε in pure accounting, whatever mechanism
	// it runs — which is what a Laplace(ε) charge prices to.
	if err := c.acct.Pay(accountant.Laplace(m.Cost())); err != nil {
		return 0, fmt.Errorf("engine: %s: %w", m.Describe(), err)
	}
	c.evaluated++
	return m.Evaluate(c.ds, c.rng)
}

// Spent returns the consumed global budget.
func (c *Core) Spent() float64 { return c.acct.Spent() }

// Remaining returns the unconsumed global budget.
func (c *Core) Remaining() float64 { return c.acct.Block.Global() - c.acct.Spent() }

// Dataset exposes the underlying store (the engine owns it; Turbo only
// reaches it through measurements).
func (c *Core) Dataset() *dataset.Dataset { return c.ds }

// Evaluated returns the number of measurements executed.
func (c *Core) Evaluated() int { return c.evaluated }

// LaplaceCount is the engine's native measurement: a linear counting
// query released through the Laplace mechanism at budget Eps.
type LaplaceCount struct {
	Query *query.Query
	Eps   float64
}

// Cost implements Measurement.
func (m LaplaceCount) Cost() float64 { return m.Eps }

// Describe implements Measurement.
func (m LaplaceCount) Describe() string { return "laplace-count" }

// Evaluate implements Measurement.
func (m LaplaceCount) Evaluate(ds *dataset.Dataset, rng *noise.Rng) (float64, error) {
	if m.Eps <= 0 {
		return 0, errors.New("engine: laplace-count needs positive epsilon")
	}
	start, end := windowOf(m.Query, ds)
	truth, err := ds.TrueFraction(m.Query, start, end)
	if err != nil {
		return 0, err
	}
	n, err := ds.NRows(start, end)
	if err != nil {
		return 0, err
	}
	if n == 0 {
		return 0, errors.New("engine: empty data view")
	}
	return truth + rng.Laplace(1/(m.Eps*float64(n))), nil
}

func windowOf(q *query.Query, ds *dataset.Dataset) (int, int) {
	if s, e, ok := q.Window(); ok {
		return s, e
	}
	return 0, ds.Partitions() - 1
}

// Session is the analyst-facing layer — the Tumult Analytics role. It
// compiles query expressions into measurements with budget calibrated
// from the session's accuracy target and evaluates them through the core.
type Session struct {
	core        *Core
	alpha, beta float64
}

// NewSession opens an analyst session with a per-query accuracy target.
func NewSession(core *Core, alpha, beta float64) (*Session, error) {
	if core == nil {
		return nil, errors.New("engine: nil core")
	}
	if alpha <= 0 || alpha >= 1 || beta <= 0 || beta >= 1 {
		return nil, fmt.Errorf("engine: bad accuracy target (%g,%g)", alpha, beta)
	}
	return &Session{core: core, alpha: alpha, beta: beta}, nil
}

// Core returns the session's core.
func (s *Session) Core() *Core { return s.core }

// Accuracy returns the session's (α, β) target.
func (s *Session) Accuracy() (alpha, beta float64) { return s.alpha, s.beta }

// Evaluate compiles q into the engine's native Laplace measurement at the
// calibrated budget and runs it. This is what analysts get without Turbo.
func (s *Session) Evaluate(q *query.Query) (float64, error) {
	start, end := windowOf(q, s.core.ds)
	n, err := s.core.ds.NRows(start, end)
	if err != nil {
		return 0, err
	}
	if n == 0 {
		return 0, errors.New("engine: empty data view")
	}
	eps := noise.EpsilonForAccuracy(s.alpha, s.beta, n)
	return s.core.Evaluate(LaplaceCount{Query: q, Eps: eps})
}

// The three measurement extensions turbo needs (§5 "Turbo-Tumult"),
// defined without modifying Core or Session:

// npCount evaluates a query without noise and reports zero cost. Only the
// Turbo adapter constructs it, and only to feed SV checks — its result is
// never released (the safety argument of §5).
type npCount struct {
	q *query.Query
}

// Cost implements Measurement: non-private evaluation consumes nothing
// (it is internal post-processing fodder, not a release).
func (m npCount) Cost() float64 { return 0 }

// Describe implements Measurement.
func (m npCount) Describe() string { return "np-count" }

// Evaluate implements Measurement.
func (m npCount) Evaluate(ds *dataset.Dataset, _ *noise.Rng) (float64, error) {
	start, end := windowOf(m.q, ds)
	return ds.TrueFraction(m.q, start, end)
}

// noiseOnly re-noises an already-computed true result, avoiding a second
// data scan when the SV check already fetched the truth.
type noiseOnly struct {
	q          *query.Query
	eps        float64
	trueResult float64
}

// Cost implements Measurement.
func (m noiseOnly) Cost() float64 { return m.eps }

// Describe implements Measurement.
func (m noiseOnly) Describe() string { return "noise-only" }

// Evaluate implements Measurement.
func (m noiseOnly) Evaluate(ds *dataset.Dataset, rng *noise.Rng) (float64, error) {
	start, end := windowOf(m.q, ds)
	n, err := ds.NRows(start, end)
	if err != nil {
		return 0, err
	}
	if n == 0 {
		return 0, errors.New("engine: empty data view")
	}
	return m.trueResult + rng.Laplace(1/(m.eps*float64(n))), nil
}

// consumeOnly performs no computation and just burns budget — how the
// Turbo adapter charges SV initializations through the engine's
// accountant (the PrivacyAccountant.consume of Fig. 7b).
type consumeOnly struct {
	eps float64
}

// Cost implements Measurement.
func (m consumeOnly) Cost() float64 { return m.eps }

// Describe implements Measurement.
func (m consumeOnly) Describe() string { return "consume-only" }

// Evaluate implements Measurement.
func (m consumeOnly) Evaluate(*dataset.Dataset, *noise.Rng) (float64, error) {
	return math.NaN(), nil
}
