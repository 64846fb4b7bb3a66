// Package noise provides the randomization primitives of Turbo's DP query
// executor: seedable Laplace and Gaussian samplers, their tail bounds, and
// the budget↔accuracy calibration rules from the paper.
//
// Everything is deterministic given a seed, which keeps experiments
// reproducible and lets tests assert distributional properties with fixed
// randomness.
package noise

import (
	"math"
	"math/rand/v2"
	"sync"
)

// Rng is a seedable random source shared by the DP mechanisms. It wraps
// math/rand/v2 with the distributions Turbo needs. Rng is safe for
// concurrent use: draws are serialized by an internal mutex, so concurrent
// queries can share one generator (serial call order — and hence
// seed-determinism of single-threaded runs — is unchanged).
type Rng struct {
	mu sync.Mutex
	r  *rand.Rand
}

// NewRng returns a deterministic generator seeded from seed.
func NewRng(seed uint64) *Rng {
	return &Rng{r: rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))}
}

// Laplace draws from the zero-mean Laplace distribution with scale b.
// It uses the fact that the difference of two independent Exp(1) variables
// is Laplace(0, 1).
func (g *Rng) Laplace(b float64) float64 {
	if b <= 0 {
		panic("noise: Laplace scale must be positive")
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return b * (g.r.ExpFloat64() - g.r.ExpFloat64())
}

// Gaussian draws from the zero-mean normal distribution with standard
// deviation sigma.
func (g *Rng) Gaussian(sigma float64) float64 {
	if sigma <= 0 {
		panic("noise: Gaussian sigma must be positive")
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return sigma * g.r.NormFloat64()
}

// Float64 returns a uniform sample in [0, 1).
func (g *Rng) Float64() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.r.Float64()
}

// IntN returns a uniform sample in [0, n).
func (g *Rng) IntN(n int) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.r.IntN(n)
}

// Fork derives an independent generator, so subsystems (SV noise, executor
// noise, workload sampling) evolve deterministically regardless of the
// others' consumption order.
func (g *Rng) Fork() *Rng {
	g.mu.Lock()
	defer g.mu.Unlock()
	return NewRng(g.r.Uint64())
}

// Perm returns a random permutation of [0, n).
func (g *Rng) Perm(n int) []int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.r.Perm(n)
}

// EpsilonForAccuracy returns the pure-DP budget ε per Laplace query so that
// a counting query over n rows is answered with error ≤ α with probability
// 1-β: ε = 4·ln(1/β)/(n·α) (Alg. 1 CALIBRATEBUDGET, Thm A.3).
func EpsilonForAccuracy(alpha, beta float64, n int) float64 {
	validateAccuracy(alpha, beta, n)
	return 4 * math.Log(1/beta) / (float64(n) * alpha)
}

// GaussianSigmaForBypass returns the σ of the Gaussian PMW-Bypass variant
// exactly as printed in Lemma A.10 (§A.6):
//
//	σ = τα / sqrt(18·ln2 + 3·τ·n·α·ε)
//
// The mechanism adds noise N(0, σ²/n²), so callers pass σ/n as the
// sampler's standard deviation. Note the printed formula guarantees the
// sub-Gaussian-vs-Laplace tail dominance only for thresholds t ≥ γ2/nε =
// τα/2 (and t = α); the tightest threshold in the lemma, γ1/nε = τα/6,
// needs a smaller σ (the appendix's algebra drops a factor; see
// EXPERIMENTS.md, and gaussianSigmaForBypassStrict in noise_test.go).
func GaussianSigmaForBypass(alpha float64, n int, eps, tau float64) float64 {
	if alpha <= 0 || n <= 0 || eps <= 0 || tau <= 0 || tau > 0.5 {
		panic("noise: bad Gaussian calibration parameters")
	}
	return tau * alpha / math.Sqrt(18*math.Ln2+3*tau*float64(n)*alpha*eps)
}

// DirectLaplaceEpsilon returns the budget of the no-cache Direct Laplace
// baseline from Appendix C: ε = ln(1/β)/(α·n).
func DirectLaplaceEpsilon(alpha, beta float64, n int) float64 {
	validateAccuracy(alpha, beta, n)
	return math.Log(1/beta) / (alpha * float64(n))
}

// LaplaceHistogramEpsilon returns the one-shot budget of the Laplace
// Histogram baseline from Appendix C: ε = 2·sqrt(2·|X|/β)/(n·α). The
// histogram has L1 sensitivity 2 and, by Chebyshev, answers every linear
// query with (α, β)-accuracy after paying once.
func LaplaceHistogramEpsilon(alpha, beta float64, n, domainSize int) float64 {
	validateAccuracy(alpha, beta, n)
	if domainSize <= 0 {
		panic("noise: bad domain size")
	}
	return 2 * math.Sqrt(2*float64(domainSize)/beta) / (float64(n) * alpha)
}

func validateAccuracy(alpha, beta float64, n int) {
	if alpha <= 0 || alpha >= 1 {
		panic("noise: alpha must be in (0,1)")
	}
	if beta <= 0 || beta >= 1 {
		panic("noise: beta must be in (0,1)")
	}
	if n <= 0 {
		panic("noise: n must be positive")
	}
}
