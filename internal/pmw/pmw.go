// Package pmw implements PMW-Bypass (Alg. 1 of the Turbo paper), the
// private-multiplicative-weights variant that is Turbo's core contribution,
// along with vanilla PMW as the special case whose heuristic always routes
// through the sparse-vector test.
//
// A PMW-Bypass instance owns one histogram over a fixed data view (the
// whole database, or one node of the tree-structured cache), a sparse
// vector, and a readiness heuristic. For each query it takes one of three
// output paths:
//
//	R1 — heuristic ready, SV test passes: answer from the histogram, free.
//	R2 — heuristic ready, SV test fails: direct Laplace + SV reset, 4ε,
//	     regular PMW histogram update.
//	R3 — heuristic not ready (bypass): direct Laplace, ε, external
//	     histogram update guarded by the τα confidence margin.
//
// Budget is paid through a Payer before any mechanism runs; the package
// never touches raw data except through the Executor interface.
package pmw

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/accountant"
	"repro/internal/heuristic"
	"repro/internal/histogram"
	"repro/internal/noise"
	"repro/internal/query"
	"repro/internal/sparse"
)

// Path identifies which branch of Alg. 1 answered a query.
type Path int

const (
	// PathR1 is the free histogram answer (SV test passed).
	PathR1 Path = iota
	// PathR2 is the expensive miss: heuristic said ready, SV failed.
	PathR2
	// PathR3 is the bypass branch: direct Laplace with external update.
	PathR3
)

// String implements fmt.Stringer.
func (p Path) String() string {
	switch p {
	case PathR1:
		return "R1"
	case PathR2:
		return "R2"
	case PathR3:
		return "R3"
	default:
		return fmt.Sprintf("path(%d)", int(p))
	}
}

// Executor is the slice of the DP engine a PMW-Bypass needs: query
// execution over its own data view. Implementations bind the partition
// window (Fig. 7b QueryExecutor).
type Executor interface {
	// True returns the non-private result of q on the view.
	True(q *query.Query) (float64, error)
	// DP returns the ε-DP result of q, perturbing trueResult (pass NaN to
	// let the executor compute it). The caller has already paid.
	DP(q *query.Query, eps float64, trueResult float64) (float64, error)
}

// Payer abstracts budget payment, so Alg. 1's control flow is the same
// whether it pays a block accountant's window (WindowPayer) or an
// external DP engine's own accountant.
type Payer interface {
	// PayLaplace pays for one direct mechanism execution at the
	// calibrated ε.
	PayLaplace() error
	// PaySVInit pays for one sparse-vector (re)initialization (3ε under
	// pure DP).
	PaySVInit() error
}

// WindowPayer implements Payer over a partition window of the block
// accountant — the data view's budget. Which accounting the payments
// compose under (pure ε, or Rényi orders converted at δ_G) is the
// block's business; the payer only names the mechanisms.
type WindowPayer struct {
	Window accountant.Window
	// Release is the cost of one direct execution: Laplace(ε), or
	// Gaussian(σ, 1/n) — noise N(0, σ²) on the fraction result, whose ℓ2
	// sensitivity is 1/n — under the §A.6 extension.
	Release accountant.Cost
	// SVInit is the cost of one sparse-vector (re)initialization.
	SVInit accountant.Cost
}

// LaplacePayer is the WindowPayer of a Laplace PMW-Bypass calibrated at
// eps per release.
func LaplacePayer(w accountant.Window, eps float64) WindowPayer {
	return WindowPayer{Window: w, Release: accountant.Laplace(eps), SVInit: accountant.SVInit(eps)}
}

// PayLaplace pays for one direct execution.
func (p WindowPayer) PayLaplace() error { return p.Window.Pay(p.Release) }

// PaySVInit pays for one SV initialization.
func (p WindowPayer) PaySVInit() error { return p.Window.Pay(p.SVInit) }

// Config carries the Alg. 1 parameters.
type Config struct {
	// Alpha, Beta are the per-query accuracy target: |answer − truth| ≤ α
	// with probability 1−β.
	Alpha, Beta float64
	// N is the public number of rows in the PMW's data view.
	N int
	// DomainSize is |X|.
	DomainSize int
	// Tau is the external-update confidence margin τ ∈ (lr/α, 1/2].
	Tau float64
	// LR is the learning-rate schedule; nil defaults to the theoretical
	// α/8.
	LR Schedule
	// Heuristic routes queries; nil defaults to Turbo's adaptive per-bin
	// heuristic with (C0=100, S0=5), the paper's Covid configuration.
	Heuristic heuristic.Heuristic
}

func (c *Config) validate() error {
	if c.Alpha <= 0 || c.Alpha >= 1 {
		return fmt.Errorf("pmw: alpha %g out of (0,1)", c.Alpha)
	}
	if c.Beta <= 0 || c.Beta >= 1 {
		return fmt.Errorf("pmw: beta %g out of (0,1)", c.Beta)
	}
	if c.N <= 0 {
		return fmt.Errorf("pmw: n must be positive, got %d", c.N)
	}
	if c.DomainSize <= 0 {
		return fmt.Errorf("pmw: domain size must be positive, got %d", c.DomainSize)
	}
	if c.Tau <= 0 || c.Tau > 0.5 {
		return fmt.Errorf("pmw: tau %g out of (0, 1/2]", c.Tau)
	}
	return nil
}

// PMW is one PMW-Bypass instance. Not safe for concurrent use; the session
// layer serializes access.
type PMW struct {
	cfg   Config
	eps   float64
	hist  *histogram.Histogram
	sv    *sparse.SV
	svUp  bool // an SV reset has been paid and performed
	heur  heuristic.Heuristic
	exec  Executor
	payer Payer
}

// Result reports one answered query.
type Result struct {
	Value float64 // the released, (α,β)-accurate answer
	Path  Path
	// Paid is the pure-DP budget consumed by this query (0, ε, or 4ε).
	Paid float64
	// Updated reports whether the histogram received a purposeful update.
	Updated bool
}

// New creates a PMW-Bypass over the given executor, paying through payer
// and drawing SV noise from rng.
func New(cfg Config, exec Executor, payer Payer, rng *noise.Rng) (*PMW, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if exec == nil || payer == nil || rng == nil {
		return nil, errors.New("pmw: nil executor, payer, or rng")
	}
	eps := noise.EpsilonForAccuracy(cfg.Alpha, cfg.Beta, cfg.N)
	if cfg.LR == nil {
		cfg.LR = Constant(TheoreticalLR(cfg.Alpha))
	}
	h := cfg.Heuristic
	if h == nil {
		h = heuristic.NewAdaptivePerBin(100, 5)
	}
	return &PMW{
		cfg:   cfg,
		eps:   eps,
		hist:  histogram.NewUniform(cfg.DomainSize),
		sv:    sparse.New(eps, cfg.Alpha, cfg.N, rng),
		heur:  h,
		exec:  exec,
		payer: payer,
	}, nil
}

// NewVanilla creates a vanilla PMW: PMW-Bypass whose heuristic always says
// ready, so every query goes through the SV test (the baseline of Fig. 3).
func NewVanilla(cfg Config, exec Executor, payer Payer, rng *noise.Rng) (*PMW, error) {
	cfg.Heuristic = heuristic.AlwaysReady{}
	return New(cfg, exec, payer, rng)
}

// Histogram exposes the internal histogram (read-only use: warm-start and
// convergence metrics; its Updates count the PMW's purposeful updates,
// R2 and confident R3, on top of any warm start's).
func (p *PMW) Histogram() *histogram.Histogram { return p.hist }

// Heuristic returns the routing heuristic.
func (p *PMW) Heuristic() heuristic.Heuristic { return p.heur }

// WarmStart replaces the histogram (and, when both heuristics support it,
// the heuristic state) with warm copies, implementing §4.5. It must be
// called before the first query.
func (p *PMW) WarmStart(h *histogram.Histogram, heur heuristic.Heuristic) error {
	if h.Size() != p.cfg.DomainSize {
		return fmt.Errorf("pmw: warm-start histogram size %d != domain %d", h.Size(), p.cfg.DomainSize)
	}
	if !h.Normalized(1e-6) {
		return errors.New("pmw: warm-start histogram not normalized")
	}
	p.hist = h
	if heur != nil {
		p.heur = heur
	}
	return nil
}

// SVLive reports whether a paid-for sparse vector is currently live.
func (p *PMW) SVLive() bool { return p.svUp && p.sv.Live() }

// ensureSV pays for and performs an SV reset when no live SV exists.
// Payment is lazy rather than up-front as in Alg. 1 l.10; total
// consumption is identical and no budget is wasted when the PMW branch is
// never taken (e.g. a tree node that only ever bypasses).
func (p *PMW) ensureSV() error {
	if p.SVLive() {
		return nil
	}
	if err := p.payer.PaySVInit(); err != nil {
		return err
	}
	p.sv.Reset()
	p.svUp = true
	return nil
}

// Run answers one query through Alg. 1. On budget exhaustion it returns
// accountant.ErrBudgetExhausted (wrapped) and releases nothing.
func (p *PMW) Run(q *query.Query) (Result, error) {
	if p.heur.IsReady(p.hist, q) {
		return p.runPMWBranch(q)
	}
	return p.runBypassBranch(q)
}

// runPMWBranch is the regular PMW path: SV test of the histogram estimate,
// falling back to a paid Laplace execution plus SV reset on failure.
func (p *PMW) runPMWBranch(q *query.Query) (Result, error) {
	if err := p.ensureSV(); err != nil {
		return Result{}, err
	}
	r1 := p.hist.Eval(q)
	trueRes, err := p.exec.True(q)
	if err != nil {
		return Result{}, err
	}
	if p.sv.Test(r1, trueRes) {
		return Result{Value: r1, Path: PathR1}, nil
	}
	// SV failed and is consumed: pay for the Laplace release and the SV
	// re-initialization (4ε total under pure DP), then update.
	if err := p.payer.PayLaplace(); err != nil {
		return Result{}, err
	}
	if err := p.payer.PaySVInit(); err != nil {
		return Result{}, err
	}
	r2, err := p.exec.DP(q, p.eps, trueRes)
	if err != nil {
		return Result{}, err
	}
	lr := p.cfg.LR.LR(p.hist.Updates())
	step := lr
	if r2 < r1 {
		step = -lr
	}
	p.hist.Update(q, step)
	p.heur.Penalize(p.hist, q)
	p.sv.Reset() // already paid above
	return Result{Value: r2, Path: PathR2, Paid: 4 * p.eps, Updated: true}, nil
}

// runBypassBranch executes directly with Laplace and applies the external
// update guarded by the τα margin (Alg. 1 ll.29-34).
func (p *PMW) runBypassBranch(q *query.Query) (Result, error) {
	if err := p.payer.PayLaplace(); err != nil {
		return Result{}, err
	}
	r3, err := p.exec.DP(q, p.eps, math.NaN())
	if err != nil {
		return Result{}, err
	}
	res := Result{Value: r3, Path: PathR3, Paid: p.eps}
	est := p.hist.Eval(q)
	margin := p.cfg.Tau * p.cfg.Alpha
	lr := p.cfg.LR.LR(p.hist.Updates())
	switch {
	case r3 > est+margin:
		p.hist.Update(q, lr)
		res.Updated = true
	case r3 < est-margin:
		p.hist.Update(q, -lr)
		res.Updated = true
	}
	return res, nil
}
