// Mechanism costs: what a payer hands the block, and how the block
// prices it at one order of its grid.
//
// RDP tracks a privacy curve ε(α) over a set of orders α > 1 (§A.6,
// App. B). Composition is additive per order, and an RDP guarantee
// converts to (ε, δ)-DP via ε = ε(α) + ln(1/δ)/(α−1), minimized over
// orders. Payers never build curves: they name the mechanism (Laplace,
// SVInit, Gaussian) and the block prices it per order under its lock.
//
//	mechanism        finite order α                      α = ∞ (pure grid)
//	Laplace(ε)       1/(α−1)·ln(α/(2α−1)·e^{ε(α−1)}      ε
//	                   + (α−1)/(2α−1)·e^{−εα})
//	SVInit(ε)        Laplace(2ε)(α) + 2ε                 3ε
//	Gaussian(σ, Δ₂)  α·Δ₂²/(2σ²)                         none — refused
//
// SVInit's pure price is the paper's 3ε (Alg. 1: one ε for the noisy
// threshold, 2ε for the per-query noise), not the 4ε limit of its RDP
// bound: the §A.6 curve (after [65] Thm 8 point 3) is an upper bound
// whose slack does not vanish as α → ∞, so the α = ∞ row is the direct
// pure-DP analysis rather than that bound's limit. A Gaussian mechanism
// is not ε-DP for any finite ε, so a pure-grid block refuses it.

package accountant

import (
	"fmt"
	"math"
)

// DefaultOrders is a standard grid of RDP orders covering the regimes where
// either the Laplace or the Gaussian curve is tight.
var DefaultOrders = []float64{
	1.25, 1.5, 1.75, 2, 2.5, 3, 4, 5, 6, 8, 10, 12, 16, 20, 24, 32, 48, 64, 128, 256,
}

type costKind uint8

const (
	costLaplace costKind = iota + 1
	costSVInit
	costGaussian
)

// Cost names one mechanism execution to be paid for. It is a small
// comparable value; the zero Cost is invalid.
type Cost struct {
	kind costKind
	// x is ε for Laplace and SVInit, σ for Gaussian; d is Gaussian's ℓ2
	// sensitivity Δ₂.
	x, d float64
}

// Laplace is the cost of one Laplace release that is ε-DP in the pure
// sense (noise Lap(Δ/ε) on a Δ-sensitive query; Mironov 2017's curve).
func Laplace(eps float64) Cost { return Cost{kind: costLaplace, x: eps} }

// SVInit is the cost of initializing one Sparse Vector run whose
// internal Laplace variables use Lap(1/εn).
func SVInit(eps float64) Cost { return Cost{kind: costSVInit, x: eps} }

// Gaussian is the cost of one Gaussian release with noise N(0, σ²) on a
// query with ℓ2 sensitivity delta2.
func Gaussian(sigma, delta2 float64) Cost {
	if !(sigma > 0) || !(delta2 >= 0) {
		panic(fmt.Sprintf("accountant: bad Gaussian mechanism (σ=%g, Δ₂=%g)", sigma, delta2))
	}
	return Cost{kind: costGaussian, x: sigma, d: delta2}
}

// priceLocked fills b.cost with c's price at every order of the grid.
// Called with b.mu held.
func (b *Block) priceLocked(c Cost) error {
	switch {
	case c.kind == 0:
		return fmt.Errorf("accountant: zero Cost")
	case c.kind != costGaussian && (c.x < 0 || math.IsNaN(c.x)):
		return fmt.Errorf("accountant: bad payment %g", c.x)
	case c == b.priced:
		return nil
	case b.orders != nil:
		for j, a := range b.orders {
			b.cost[j] = c.rdp(a)
		}
	case c.kind == costLaplace:
		b.cost[0] = c.x
	case c.kind == costSVInit:
		b.cost[0] = 3 * c.x
	default:
		return fmt.Errorf("%w: a Gaussian release has no pure-ε price and this block accounts in pure ε",
			ErrBudgetExhausted)
	}
	b.priced = c
	return nil
}

// rdp prices c at the finite order a.
func (c Cost) rdp(a float64) float64 {
	switch c.kind {
	case costLaplace:
		return laplaceRDP(a, c.x)
	case costSVInit:
		return laplaceRDP(a, 2*c.x) + 2*c.x
	default:
		return a * c.d * c.d / (2 * c.x * c.x)
	}
}

// laplaceRDP is the order-a Rényi divergence bound of an eps-DP Laplace
// mechanism.
func laplaceRDP(a, eps float64) float64 {
	t1 := math.Log(a/(2*a-1)) + eps*(a-1)
	t2 := math.Log((a-1)/(2*a-1)) - eps*a
	// log-sum-exp for numerical stability.
	m := math.Max(t1, t2)
	return (math.Log(math.Exp(t1-m)+math.Exp(t2-m)) + m) / (a - 1)
}
