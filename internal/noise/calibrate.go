// Exact budget calibration for aggregated Laplace results
// (CALIBRATEBUDGETLAPLACE, §A.3).
//
// When the tree answers a query by combining m independent Laplace
// executions over sub-ranges holding n_Lap rows in total, the combined
// error is (1/n_Lap)·Σ_{i=1..m} Lap(1/ε) = S_m/(ε·n_Lap), with S_m a sum
// of m iid unit Laplace variables. The calibration wants the smallest ε
// with Pr[|S_m| > ε·n_Lap·α] ≤ β, i.e. ε = t*/(n_Lap·α) where t* is the
// (1−β)-quantile of |S_m|. That quantile has a closed form to invert:
// S_m is a difference of two independent Gamma(m, 1) variables, whose
// density on x ≥ 0 is e^{−x}·Σ_{j<m} C(m−1+j, j)/2^{m+j}·x^{m−1−j}/(m−1−j)!,
// so
//
//	Pr[|S_m| > t] = 2·Σ_{j<m} w_j·Q(m−j, t),
//	w_j = C(m−1+j, j)/2^{m+j},   Q(k, t) = e^{−t}·Σ_{i<k} tⁱ/i!.
//
// Every term is positive, so the sum is well conditioned, and it is
// strictly decreasing in t: a bisection to adjacent floats recovers t*
// deterministically, with no sampling error on either side of the (α, β)
// promise.

package noise

import "math"

// maxLaplaceSum bounds the subquery count the closed form is evaluated
// at. Below it every candidate t the search probes under t* keeps e^{−t}
// a normal float; far above it (t* beyond ~700) the tail would underflow
// to zero and under-price the release, so that range is refused instead.
const maxLaplaceSum = 4096

// laplaceSumTail returns Pr[|S_m| > t] for the sum S_m of m iid unit
// Laplace variables, in O(m). The weights are walked from the largest,
// w_{m−1} = C(2m−2, m−1)/2^{2m−1} ≈ 1/(2√(πm)), downward — the direction
// in which Q(m−j, t) grows one Poisson term at a time — so neither
// recurrence starts from a value that can underflow.
func laplaceSumTail(m int, t float64) float64 {
	w := 0.5
	for i := 1; i < m; i++ {
		w *= float64(2*i-1) / float64(2*i)
	}
	p := math.Exp(-t) // e^{−t}·tⁱ/i! at i = 0
	q, sum := 0.0, 0.0
	for k := 1; k <= m; k++ {
		q += p // Q(k, t)
		sum += w * q
		p *= t / float64(k)
		if j := m - k; j > 0 {
			w *= float64(2*j) / float64(m+j-1) // w_{j−1} from w_j
		}
	}
	return 2 * sum
}

// laplaceSumQuantile returns t*, the smallest float with
// Pr[|S_m| > t*] ≤ beta, for beta in (0, 1) and 1 ≤ m ≤ maxLaplaceSum.
func laplaceSumQuantile(beta float64, m int) float64 {
	// The m = 1 tail is e^{−t} exactly, and every larger m has a heavier
	// one, so ln(1/β) is both the m = 1 answer and a lower bracket.
	lo := math.Log(1 / beta)
	if m == 1 {
		return lo
	}
	hi := 2 * lo
	for laplaceSumTail(m, hi) > beta {
		lo, hi = hi, 2*hi
	}
	for {
		mid := lo + (hi-lo)/2
		if mid <= lo || mid >= hi {
			return hi
		}
		if laplaceSumTail(m, mid) <= beta {
			hi = mid
		} else {
			lo = mid
		}
	}
}

// SVEpsilonForAggregate returns the SV budget of the tree's shared sparse
// vector: ε_SV = 4·ln(2/β)/(n_SV·α) (CALIBRATEBUDGETSV, §A.3), i.e. the
// scalar calibration at failure probability β/2.
func SVEpsilonForAggregate(alpha, beta float64, nSV int) float64 {
	validateAccuracy(alpha, beta, nSV)
	return 4 * math.Log(2/beta) / (float64(nSV) * alpha)
}
