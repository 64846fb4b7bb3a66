// Package sparse implements the Sparse Vector (SV) mechanism used by PMW
// and PMW-Bypass to test histogram estimates against the ground truth with
// bounded privacy consumption (§2, Alg. 1 of the Turbo paper).
//
// The SV instance follows Lyu-Su-Li with cut-off c = 1, ε1 = ε, ε2 = 2ε, so
// one run is 3ε-DP: initialization costs 3ε and draws a noisy threshold
// α̂ = α/2 + Lap(1/εn); each test checks |true − estimate| + Lap(1/εn) < α̂
// (Alg. 1 ll.12 and 18). While tests pass the SV consumes nothing; the
// first failing test consumes the instance, which must then be reset at
// another 3ε (the "expensive SV reset" that motivates PMW-Bypass).
//
// The SV never pays the accountant itself: the caller (PMW, tree) pays the
// advertised costs before calling Reset, which keeps accounting decisions
// in one place.
package sparse

import (
	"fmt"

	"repro/internal/noise"
)

// SV is one sparse-vector run. The zero value is unusable; construct with
// New and call Reset (after paying its price, accountant.SVInit) before
// the first Test.
type SV struct {
	eps   float64 // per-query Laplace budget ε the SV is calibrated against
	alpha float64 // accuracy target α; threshold centre is α/2
	n     float64 // (public) number of rows underlying the tested queries
	rng   *noise.Rng

	threshold float64
	live      bool
}

// New creates an SV calibrated for budget eps, accuracy alpha, and database
// size n, drawing noise from rng.
func New(eps, alpha float64, n int, rng *noise.Rng) *SV {
	s := new(SV)
	s.Recalibrate(eps, alpha, n, rng)
	return s
}

// Recalibrate makes s the SV New(eps, alpha, n, rng) makes, not live, so a consumed SV's memory can serve the next one.
func (s *SV) Recalibrate(eps, alpha float64, n int, rng *noise.Rng) {
	if eps <= 0 || alpha <= 0 || n <= 0 || rng == nil {
		panic(fmt.Sprintf("sparse: bad parameters eps=%g alpha=%g n=%d", eps, alpha, n))
	}
	*s = SV{eps: eps, alpha: alpha, n: float64(n), rng: rng}
}

// Reset re-initializes the SV with a fresh noisy threshold. The caller must
// have paid its price, 3ε (ε1 = ε for the threshold, ε2 = 2ε for the
// error comparisons).
func (s *SV) Reset() {
	s.threshold = s.alpha/2 + s.rng.Laplace(1/(s.eps*s.n))
	s.live = true
}

// Live reports whether the SV can accept tests (initialized and not yet
// consumed by a failing test).
func (s *SV) Live() bool { return s.live }

// Test performs one SV comparison of a histogram estimate against the true
// query result: it passes iff |true − estimate| + Lap(1/εn) < α̂. A passing
// test is free; a failing test consumes the SV (Live becomes false) and the
// caller must pay for a Reset before testing again. Test panics if the SV
// is not live, since that is a protocol violation by the caller rather than
// a data-dependent condition.
func (s *SV) Test(estimate, trueResult float64) bool {
	if !s.live {
		panic("sparse: Test on a consumed or uninitialized SV")
	}
	err := trueResult - estimate
	if err < 0 {
		err = -err
	}
	if err+s.rng.Laplace(1/(s.eps*s.n)) < s.threshold {
		return true
	}
	s.live = false
	return false
}
