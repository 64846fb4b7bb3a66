package accountant

import (
	"errors"
	"math"
	"testing"
)

// curveOf prices c at every order of a grid — the curve a payment of c
// composes into each partition it touches.
func curveOf(orders []float64, c Cost) []float64 {
	out := make([]float64, len(orders))
	for j, a := range orders {
		out[j] = c.rdp(a)
	}
	return out
}

func TestCurveAdd(t *testing.T) {
	// RDP composition is additive per order: two payments compose to the
	// sum of their curves, on the partitions they touch and nowhere else.
	b := NewBlockForDP(DefaultOrders, 5, 1e-6, 2)
	x, y := Laplace(0.1), SVInit(0.2)
	if err := b.PayRange(0, 0, x); err != nil {
		t.Fatal(err)
	}
	if err := b.PayRange(0, 1, y); err != nil {
		t.Fatal(err)
	}
	cx, cy := curveOf(DefaultOrders, x), curveOf(DefaultOrders, y)
	for j, a := range DefaultOrders {
		if got := b.CurveAt(0)[j]; got != cx[j]+cy[j] {
			t.Fatalf("order %g: partition 0 composed %g, want %g", a, got, cx[j]+cy[j])
		}
		if got := b.CurveAt(1)[j]; got != cy[j] {
			t.Fatalf("order %g: partition 1 composed %g, want %g", a, got, cy[j])
		}
	}
}

func TestLaplaceCurveBounds(t *testing.T) {
	// The RDP curve of an ε-DP Laplace mechanism is at most ε at every
	// order (it converges to ε as α→∞, the pure grid's price) and positive
	// for ε>0.
	eps := 0.5
	c := curveOf(DefaultOrders, Laplace(eps))
	for j, a := range DefaultOrders {
		if c[j] <= 0 {
			t.Fatalf("order %g: non-positive rdp %g", a, c[j])
		}
		if c[j] > eps+1e-9 {
			t.Fatalf("order %g: rdp %g exceeds pure eps %g", a, c[j], eps)
		}
		// Monotone non-decreasing in order (Rényi divergences are).
		if j > 0 && c[j] < c[j-1]-1e-12 {
			t.Fatalf("curve not monotone at order %g", a)
		}
	}
	if far := Laplace(eps).rdp(1e6); math.Abs(far-eps) > 1e-4 {
		t.Fatalf("order 1e6 prices at %g, want → ε = %g", far, eps)
	}
	pure := NewBlock(1, 1)
	if err := pure.PayRange(0, 0, Laplace(eps)); err != nil || pure.SpentAt(0) != eps {
		t.Fatalf("pure grid priced Laplace(ε) at %g (err %v), want ε", pure.SpentAt(0), err)
	}
}

func TestGaussianCurve(t *testing.T) {
	c := curveOf(DefaultOrders, Gaussian(2.0, 1.0))
	for j, a := range DefaultOrders {
		if want := a / (2 * 4); math.Abs(c[j]-want) > 1e-15 {
			t.Fatalf("order %g: %g, want %g", a, c[j], want)
		}
	}
	for _, bad := range [][2]float64{{0, 1}, {-1, 1}, {math.NaN(), 1}, {1, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Gaussian(%g, %g) did not panic", bad[0], bad[1])
				}
			}()
			Gaussian(bad[0], bad[1])
		}()
	}
	// α = ∞: a Gaussian mechanism is not ε-DP for any ε, so the pure grid
	// refuses it and deducts nothing.
	pure := NewBlock(100, 2)
	if err := pure.PayRange(0, 1, Gaussian(2, 1)); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("pure grid took a Gaussian release: %v", err)
	}
	if pure.MaxSpent() != 0 {
		t.Fatalf("refused Gaussian release deducted %g", pure.MaxSpent())
	}
}

func TestSVInitCurve(t *testing.T) {
	eps := 0.3
	c := curveOf(DefaultOrders, SVInit(eps))
	lap := curveOf(DefaultOrders, Laplace(2*eps))
	for j, a := range DefaultOrders {
		if want := lap[j] + 2*eps; math.Abs(c[j]-want) > 1e-12 {
			t.Fatalf("order %g: %g, want %g", a, c[j], want)
		}
	}
	// α = ∞ is the paper's pure SV cost, 3ε — not the 4ε the §A.6 bound
	// above tends to.
	if far := SVInit(eps).rdp(1e6); math.Abs(far-4*eps) > 1e-4 {
		t.Fatalf("order 1e6 prices at %g, want → 4ε = %g", far, 4*eps)
	}
	pure := NewBlock(1, 1)
	if err := pure.PayRange(0, 0, SVInit(eps)); err != nil || pure.SpentAt(0) != 3*eps {
		t.Fatalf("pure grid priced SVInit(ε) at %g (err %v), want 3ε", pure.SpentAt(0), err)
	}
}

func TestToDPBeatsBasicComposition(t *testing.T) {
	// Composing k ε-DP Laplace mechanisms under RDP then converting at a
	// reasonable δ must beat basic composition (k·ε) for large enough k.
	eps, k := 0.05, 200
	b := NewBlockForDP(DefaultOrders, 100, 1e-6, 1)
	for i := 0; i < k; i++ {
		if err := b.PayRange(0, 0, Laplace(eps)); err != nil {
			t.Fatal(err)
		}
	}
	if rdpEps, basic := b.SpentAt(0), float64(k)*eps; rdpEps >= basic {
		t.Fatalf("RDP composition %g not better than basic %g at k=%d", rdpEps, basic, k)
	}
}

func TestToDPPanicsOnBadDelta(t *testing.T) {
	for _, d := range []float64{0, 1, -0.5, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewBlockForDP(δ_G=%g) did not panic", d)
				}
			}()
			NewBlockForDP(DefaultOrders, 1, d, 1)
		}()
	}
	for _, orders := range [][]float64{nil, {2, 1}, {0.5}, {math.NaN()}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewBlockForDP(orders %v) did not panic", orders)
				}
			}()
			NewBlockForDP(orders, 1, 1e-6, 1)
		}()
	}
}

func TestRDPFilterAcceptReject(t *testing.T) {
	// One partition of a Rényi block is the RDP filter: pay identical
	// Gaussian releases until refused.
	b := NewBlockForDP(DefaultOrders, 2.0, 1e-6, 1)
	cost := Gaussian(20, 1)
	paid := 0
	for ; paid < 1000 && b.PayRange(0, 0, cost) == nil; paid++ {
	}
	if paid == 0 || paid == 1000 {
		t.Fatalf("%d payments accepted", paid)
	}
	before := b.CurveAt(0)
	if err := b.PayRange(0, 0, cost); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	// Rejection must not deduct, and the accepted history stays within
	// budget at some order.
	within := false
	for j, e := range b.CurveAt(0) {
		if e != before[j] {
			t.Fatalf("order %g: rejected payment deducted", DefaultOrders[j])
		}
		within = within || (b.budget[j] > 0 && e <= b.budget[j]+tol)
	}
	if !within {
		t.Fatal("accepted history exceeds the budget at every order")
	}
}

func TestRDPFilterSomeOrderSuffices(t *testing.T) {
	// Thm B.2: accept as long as at least one order stays within budget.
	b := NewBlockForDP([]float64{2, 64}, 1, 1e-6, 1)
	b.budget = []float64{1.0, 0.1}
	cost := Gaussian(math.Sqrt(5), 1) // α/10: 0.2 at order 2, 6.4 at order 64
	for i := 0; i < 5; i++ {
		if err := b.PayRange(0, 0, cost); err != nil {
			t.Fatalf("payment %d rejected: %v", i, err)
		}
	}
	if err := b.PayRange(0, 0, cost); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("payment beyond every order: %v", err)
	}
}

func TestNewRDPFilterForDP(t *testing.T) {
	epsG, deltaG := 2.0, 1e-6
	b := NewBlockForDP(DefaultOrders, epsG, deltaG, 1)
	// Spend in small Gaussian increments until exhausted, then verify the
	// consumed curve still converts to at most ε_G at δ_G.
	cost := Gaussian(10, 1)
	for i := 0; i < 1_000_000 && b.PayRange(0, 0, cost) == nil; i++ {
	}
	if got := b.SpentAt(0); got > epsG+1e-6 || got < epsG/2 {
		t.Fatalf("accepted history converts to %g, want just under eps_G %g", got, epsG)
	}
	for j, a := range DefaultOrders {
		if want := math.Max(0, epsG-math.Log(1/deltaG)/(a-1)); b.budget[j] != want {
			t.Fatalf("order %g budget %g, want %g", a, b.budget[j], want)
		}
	}
}

func TestRDPFilterGridMismatch(t *testing.T) {
	// Payers no longer hand over curves, so a payment cannot disagree with
	// the block's grid; what can is a snapshot.
	src := NewBlockForDP(DefaultOrders, 1, 1e-6, 1)
	payload := src.SnapshotPayload()
	if _, err := NewBlockForDP([]float64{2}, 1, 1e-6, 1).StagePayload(payload); err == nil {
		t.Fatal("grid mismatch accepted")
	}
}
