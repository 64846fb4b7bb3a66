package noise

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
)

// monteCarloQuantile is the simulation the closed form replaced, kept as
// its oracle: the empirical (1−beta)-quantile of |S_m| over samples
// draws. It draws from an unlocked generator of its own (a unit Laplace
// is a unit exponential with a fair sign) so that 2·10⁶ samples stay
// cheap under the race detector too.
func monteCarloQuantile(beta float64, m, samples int, seed uint64) float64 {
	r := rand.New(rand.NewPCG(seed, 0))
	sums := make([]float64, samples)
	for s := range sums {
		acc := 0.0
		for i := 0; i < m; i++ {
			if x := r.ExpFloat64(); r.Uint64()&1 == 0 {
				acc += x
			} else {
				acc -= x
			}
		}
		sums[s] = math.Abs(acc)
	}
	sort.Float64s(sums)
	return sums[samples-1-int(beta*float64(samples))]
}

var (
	exactMs    = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 64, 256}
	exactBetas = []float64{1e-2, 5e-4, 1e-6}
)

// TestQuantileIsExact: t* sits on the β level set of the closed-form
// tail to within a part in 10⁹ — the (α, β) promise is met, and no ε is
// overpaid beyond float resolution — and grows with m. (m = 1 is the
// analytic ln(1/β), whose float tail may round one ulp either side of
// β; TestTailSingleAndOrigin pins it.)
func TestQuantileIsExact(t *testing.T) {
	for _, beta := range exactBetas {
		prev := laplaceSumQuantile(beta, 1)
		for _, m := range exactMs[1:] {
			ts := laplaceSumQuantile(beta, m)
			if at := laplaceSumTail(m, ts); at > beta {
				t.Errorf("m=%d β=%g: tail(t*)=%g exceeds β", m, beta, at)
			}
			if below := laplaceSumTail(m, ts*(1-1e-9)); below <= beta {
				t.Errorf("m=%d β=%g: tail just under t* is %g, want > β (t* too large)", m, beta, below)
			}
			if ts <= prev {
				t.Errorf("m=%d β=%g: t*=%g not above the smaller m's %g", m, beta, ts, prev)
			}
			prev = ts
		}
	}
}

// TestTailSingleAndOrigin pins the two ends with independent closed
// forms: m = 1 is the Laplace tail e^{−t}, and at t = 0 the weights sum
// to ½ (Pr[|S_m| > 0] = 1) for every m.
func TestTailSingleAndOrigin(t *testing.T) {
	for _, beta := range exactBetas {
		want := math.Log(1 / beta)
		if got := laplaceSumQuantile(beta, 1); got != want {
			t.Errorf("β=%g: m=1 quantile %v, want ln(1/β)=%v", beta, got, want)
		}
		if got := laplaceSumTail(1, want); math.Abs(got-beta) > 1e-15*beta*want*8 {
			t.Errorf("β=%g: m=1 tail at ln(1/β) is %v", beta, got)
		}
	}
	for _, m := range exactMs {
		if got := laplaceSumTail(m, 0); math.Abs(got-1) > 1e-13 {
			t.Errorf("m=%d: tail(0)=%v, want 1", m, got)
		}
	}
	// m = 2 by hand: Pr[|S_2| > t] = e^{−t}(2+t)/2.
	for _, x := range []float64{0.5, 3, 8.573} {
		want := math.Exp(-x) * (2 + x) / 2
		if got := laplaceSumTail(2, x); math.Abs(got-want) > 1e-15 {
			t.Errorf("m=2 t=%g: tail %v, want %v", x, got, want)
		}
	}
}

// TestQuantileMatchesMonteCarlo: the simulation, given enough samples to
// resolve the tail, converges on the closed form.
func TestQuantileMatchesMonteCarlo(t *testing.T) {
	if testing.Short() {
		t.Skip("2·10⁶-sample simulations")
	}
	const beta, samples = 1e-3, 2_000_000
	for _, m := range []int{2, 3, 5, 8, 16} {
		exact := laplaceSumQuantile(beta, m)
		mc := monteCarloQuantile(beta, m, samples, uint64(m))
		if math.Abs(mc-exact) > 0.01*exact {
			t.Errorf("m=%d: Monte-Carlo quantile %v, closed form %v", m, mc, exact)
		}
	}
}
