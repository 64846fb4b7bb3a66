package noise

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLaplaceMoments(t *testing.T) {
	rng := NewRng(1)
	const n = 200000
	b := 2.0
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := rng.Laplace(b)
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Fatalf("Laplace mean = %g, want ~0", mean)
	}
	// Var[Lap(b)] = 2b².
	if math.Abs(variance-2*b*b) > 0.3 {
		t.Fatalf("Laplace variance = %g, want %g", variance, 2*b*b)
	}
}

func TestLaplaceTailEmpirical(t *testing.T) {
	rng := NewRng(2)
	const n = 200000
	b := 1.0
	thresh := 2.0
	exceed := 0
	for i := 0; i < n; i++ {
		if math.Abs(rng.Laplace(b)) > thresh {
			exceed++
		}
	}
	want := laplaceTail(thresh, b) // exp(-2) ≈ 0.135
	got := float64(exceed) / n
	if math.Abs(got-want) > 0.01 {
		t.Fatalf("empirical tail %g, analytic %g", got, want)
	}
}

func TestGaussianMoments(t *testing.T) {
	rng := NewRng(3)
	const n = 200000
	sigma := 1.5
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := rng.Gaussian(sigma)
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("Gaussian mean = %g", mean)
	}
	if math.Abs(variance-sigma*sigma) > 0.05 {
		t.Fatalf("Gaussian variance = %g, want %g", variance, sigma*sigma)
	}
}

func TestRngDeterminism(t *testing.T) {
	a, b := NewRng(42), NewRng(42)
	for i := 0; i < 100; i++ {
		if a.Laplace(1) != b.Laplace(1) {
			t.Fatal("same seed produced different streams")
		}
	}
	c := NewRng(43)
	same := true
	a2 := NewRng(42)
	for i := 0; i < 10; i++ {
		if a2.Laplace(1) != c.Laplace(1) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestForkIndependence(t *testing.T) {
	a := NewRng(7)
	f1 := a.Fork()
	// Consuming from the fork must not disturb the parent relative to a
	// parent that forked but never used the fork.
	b := NewRng(7)
	_ = b.Fork()
	for i := 0; i < 50; i++ {
		f1.Laplace(1)
	}
	for i := 0; i < 50; i++ {
		if a.Laplace(1) != b.Laplace(1) {
			t.Fatal("fork consumption disturbed parent stream")
		}
	}
}

func TestSamplerPanics(t *testing.T) {
	rng := NewRng(1)
	for _, f := range []func(){
		func() { rng.Laplace(0) },
		func() { rng.Laplace(-1) },
		func() { rng.Gaussian(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad scale did not panic")
				}
			}()
			f()
		}()
	}
}

func TestTailBounds(t *testing.T) {
	if laplaceTail(0, 1) != 1 || laplaceTail(-1, 1) != 1 {
		t.Error("non-positive threshold should give trivial bound 1")
	}
	if g := gaussianTail(0.1, 10); g != 1 {
		t.Error("Gaussian tail should clamp at 1")
	}
	// Monotone decreasing in t.
	prevL, prevG := 1.0, 1.0
	for _, tt := range []float64{0.5, 1, 2, 4} {
		l, g := laplaceTail(tt, 1), gaussianTail(tt, 1)
		if l > prevL || g > prevG {
			t.Fatal("tail bounds not monotone")
		}
		prevL, prevG = l, g
	}
}

func TestEpsilonForAccuracy(t *testing.T) {
	// ε = 4 ln(1/β)/(nα) — Alg. 1 CALIBRATEBUDGET.
	eps := EpsilonForAccuracy(0.05, 0.001, 1000)
	want := 4 * math.Log(1000) / (1000 * 0.05)
	if math.Abs(eps-want) > 1e-12 {
		t.Fatalf("eps = %g, want %g", eps, want)
	}
}

func TestTightEpsilonIsSmallerButSufficient(t *testing.T) {
	alpha, beta, n := 0.05, 0.001, 100000
	loose := EpsilonForAccuracy(alpha, beta, n)
	tight := tightEpsilonForAccuracy(alpha, beta, n)
	if tight > loose {
		t.Fatalf("tight %g > loose %g", tight, loose)
	}
	// The Lemma A.2 failure expression at the tight ε must be ≤ β.
	a := alpha * float64(n) * tight
	failure := math.Exp(-a) + (0.5+a/8)*math.Exp(-a/2)
	if failure > beta*1.0001 {
		t.Fatalf("failure at tight eps = %g > beta %g", failure, beta)
	}
}

func TestAlphaEpsilonInverse(t *testing.T) {
	f := func(seed int64) bool {
		mod := seed % 89
		if mod < 0 {
			mod = -mod
		}
		alpha := 0.01 + float64(mod)/100
		if alpha >= 1 {
			alpha = 0.5
		}
		n := 1000
		eps := EpsilonForAccuracy(alpha, 0.001, n)
		back := alphaForEpsilon(eps, 0.001, n)
		return math.Abs(back-alpha) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestGaussianSigmaForBypass(t *testing.T) {
	// σ = τα/sqrt(18 ln2 + 3τnαε) — Lemma A.10.
	alpha, n, eps, tau := 0.05, 1000, 0.5, 0.25
	sigma := GaussianSigmaForBypass(alpha, n, eps, tau)
	want := tau * alpha / math.Sqrt(18*math.Ln2+3*tau*float64(n)*alpha*eps)
	if math.Abs(sigma-want) > 1e-15 {
		t.Fatalf("sigma = %g, want %g", sigma, want)
	}
	// The printed formula guarantees Pr[|Z| > t] ≤ exp(-t·nε) for
	// t ∈ {γ2/nε = τα/2, α}.
	neps := float64(n) * eps
	for _, tt := range []float64{tau * alpha / 2, alpha} {
		if got := gaussianTail(tt, sigma); got > math.Exp(-tt*neps)*1.0001 {
			t.Errorf("Gaussian tail at %g = %g exceeds Laplace bound %g", tt, got, math.Exp(-tt*neps))
		}
	}
}

func TestGaussianSigmaStrictSatisfiesAllThreeBounds(t *testing.T) {
	alpha, n, eps, tau := 0.05, 1000, 0.5, 0.25
	sigma := gaussianSigmaForBypassStrict(alpha, n, eps, tau)
	loose := GaussianSigmaForBypass(alpha, n, eps, tau)
	if sigma >= loose {
		t.Fatalf("strict sigma %g not smaller than paper's %g", sigma, loose)
	}
	neps := float64(n) * eps
	gamma2 := tau * float64(n) * alpha * eps / 2 // ln(1/ρ)
	gamma1 := gamma2 / 3
	for _, tt := range []float64{gamma1 / neps, gamma2 / neps, alpha} {
		if got := gaussianTail(tt, sigma); got > math.Exp(-tt*neps)*1.0001 {
			t.Errorf("strict sigma: Gaussian tail at %g = %g exceeds Laplace bound %g",
				tt, got, math.Exp(-tt*neps))
		}
	}
}

func TestBaselineCalibrations(t *testing.T) {
	// Appendix C: ε_Direct = ln(1/β)/(αn), ε_Histogram = 2·sqrt(2|X|/β)/(nα).
	alpha, beta, n := 0.05, 0.001, 1000
	direct := DirectLaplaceEpsilon(alpha, beta, n)
	if math.Abs(direct-math.Log(1000)/(0.05*1000)) > 1e-12 {
		t.Fatalf("direct = %g", direct)
	}
	hist := LaplaceHistogramEpsilon(alpha, beta, n, 128)
	want := 2 * math.Sqrt(2*128/0.001) / (1000 * 0.05)
	if math.Abs(hist-want) > 1e-12 {
		t.Fatalf("hist = %g, want %g", hist, want)
	}
	// Crossover ratio for |X|=128, β=1e-3 is ≈146 (App. C).
	ratio := hist / direct
	if ratio < 130 || ratio > 160 {
		t.Fatalf("crossover ratio = %g, want ≈146", ratio)
	}
}

func TestValidateAccuracyPanics(t *testing.T) {
	bad := []func(){
		func() { EpsilonForAccuracy(0, 0.1, 10) },
		func() { EpsilonForAccuracy(1, 0.1, 10) },
		func() { EpsilonForAccuracy(0.1, 0, 10) },
		func() { EpsilonForAccuracy(0.1, 1, 10) },
		func() { EpsilonForAccuracy(0.1, 0.1, 0) },
		func() { GaussianSigmaForBypass(0.1, 10, 0.1, 0.6) },
		func() { LaplaceHistogramEpsilon(0.1, 0.1, 10, 0) },
	}
	for i, f := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestCalibratedEpsilonMeetsTail(t *testing.T) {
	// Verify the calibrated ε empirically, at the actual noise scale.
	alpha, beta := 0.05, 0.01
	m, n := 4, 10000
	eps := NewLaplaceCalibrator().Epsilon(alpha, beta, m, n)
	check := NewRng(987)
	const trials = 50000
	bad := 0
	for i := 0; i < trials; i++ {
		sum := 0.0
		for j := 0; j < m; j++ {
			sum += check.Laplace(1 / eps)
		}
		if math.Abs(sum) > float64(n)*alpha {
			bad++
		}
	}
	if rate := float64(bad) / trials; rate > beta*1.5 {
		t.Fatalf("aggregate tail %g exceeds beta %g", rate, beta)
	}
}

func TestSVEpsilonForAggregate(t *testing.T) {
	// ε_SV = 4 ln(2/β)/(n_SV α) — CALIBRATEBUDGETSV.
	got := SVEpsilonForAggregate(0.05, 0.001, 1000)
	want := 4 * math.Log(2000) / (1000 * 0.05)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("svEps = %g, want %g", got, want)
	}
}

func TestIntNAndPerm(t *testing.T) {
	rng := NewRng(9)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := rng.IntN(5)
		if v < 0 || v >= 5 {
			t.Fatalf("IntN out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 5 {
		t.Fatal("IntN did not cover range")
	}
	p := rng.Perm(10)
	mark := make([]bool, 10)
	for _, v := range p {
		if mark[v] {
			t.Fatal("Perm repeated a value")
		}
		mark[v] = true
	}
}

// laplaceTail returns Pr[|Lap(b)| > t] = exp(-t/b).
func laplaceTail(t, b float64) float64 {
	if t <= 0 {
		return 1
	}
	return math.Exp(-t / b)
}

// gaussianTail returns the standard sub-Gaussian bound
// Pr[|N(0,σ²)| > t] ≤ 2·exp(-t²/2σ²) used by Lemma A.10.
func gaussianTail(t, sigma float64) float64 {
	if t <= 0 {
		return 1
	}
	p := 2 * math.Exp(-t*t/(2*sigma*sigma))
	if p > 1 {
		return 1
	}
	return p
}

// tightEpsilonForAccuracy returns the slightly smaller ε from Thm A.3,
// found by binary search on
//
//	exp(-αnε) + (1/2 + αnε/8)·exp(-αnε/2) ≤ β.
//
// It is always ≤ EpsilonForAccuracy for the same parameters.
func tightEpsilonForAccuracy(alpha, beta float64, n int) float64 {
	validateAccuracy(alpha, beta, n)
	failure := func(eps float64) float64 {
		a := alpha * float64(n) * eps
		return math.Exp(-a) + (0.5+a/8)*math.Exp(-a/2)
	}
	lo, hi := 0.0, EpsilonForAccuracy(alpha, beta, n)
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		if failure(mid) <= beta {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// alphaForEpsilon inverts EpsilonForAccuracy: the accuracy achievable with
// per-query budget ε at failure probability β over n rows.
func alphaForEpsilon(eps, beta float64, n int) float64 {
	return 4 * math.Log(1/beta) / (float64(n) * eps)
}

// gaussianSigmaForBypassStrict returns the σ that actually satisfies all
// three tail bounds of Lemma A.10, derived by requiring
// σ² ≤ f(γ1/nε) with f(t) = t²/(2·ln2 + 2·t·n·ε) and γ1 = τnαε/6:
//
//	σ = (τα/6) / sqrt(2·ln2 + τ·n·α·ε/3)
//
// Since f is monotone increasing, the bounds at γ2/nε and α follow.
func gaussianSigmaForBypassStrict(alpha float64, n int, eps, tau float64) float64 {
	return tau * alpha / 6 / math.Sqrt(2*math.Ln2+tau*float64(n)*alpha*eps/3)
}
