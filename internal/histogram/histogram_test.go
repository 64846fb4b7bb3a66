package histogram

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/domain"
	"repro/internal/query"
)

func dom() *domain.Domain {
	return domain.MustNew(
		domain.Attribute{Name: "a", Card: 4},
		domain.Attribute{Name: "b", Card: 8},
	)
}

func TestNewUniform(t *testing.T) {
	h := NewUniform(32)
	if h.Size() != 32 {
		t.Fatalf("Size = %d", h.Size())
	}
	if !h.Normalized(1e-12) {
		t.Fatal("uniform histogram not normalized")
	}
	for i := 0; i < 32; i++ {
		if h.Weight(i) != 1.0/32 {
			t.Fatalf("Weight(%d) = %g", i, h.Weight(i))
		}
		if h.Count(i) != 0 {
			t.Fatalf("Count(%d) = %g, want 0", i, h.Count(i))
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewUniform(0) did not panic")
			}
		}()
		NewUniform(0)
	}()
}

func TestFromWeights(t *testing.T) {
	h, err := FromWeights([]float64{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if h.Weight(0) != 0.25 || h.Weight(1) != 0.75 {
		t.Fatalf("weights = %v", h.Weights())
	}
	for _, bad := range [][]float64{
		{0, 0},
		{-1, 2},
		{math.NaN(), 1},
		{math.Inf(1), 1},
	} {
		if _, err := FromWeights(bad); err == nil {
			t.Errorf("FromWeights(%v) succeeded", bad)
		}
	}
}

func TestUpdateMovesEstimateTowardTarget(t *testing.T) {
	d := dom()
	h := NewUniform(d.Size())
	q := query.MustNew(d, map[int][]int{0: {0}})
	before := h.Eval(q)
	h.Update(q, 0.5)
	after := h.Eval(q)
	if after <= before {
		t.Fatalf("positive update did not raise estimate: %g -> %g", before, after)
	}
	h.Update(q, -0.5)
	h.Update(q, -0.5)
	if h.Eval(q) >= after {
		t.Fatal("negative update did not lower estimate")
	}
}

func TestUpdateNormalizationQuick(t *testing.T) {
	d := dom()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		h := NewUniform(d.Size())
		for i := 0; i < 20; i++ {
			allowed := map[int][]int{}
			if r.Intn(2) == 0 {
				allowed[0] = []int{r.Intn(4)}
			}
			if r.Intn(2) == 0 {
				allowed[1] = []int{r.Intn(8), (r.Intn(7) + 1 + r.Intn(8)) % 8}
			}
			q, err := query.New(d, dedup(allowed))
			if err != nil {
				continue
			}
			step := (r.Float64() - 0.5) * 2
			if step == 0 {
				step = 0.1
			}
			h.Update(q, step)
			if !h.Normalized(1e-9) {
				return false
			}
			for bin := 0; bin < h.Size(); bin++ {
				if h.Weight(bin) <= 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func dedup(allowed map[int][]int) map[int][]int {
	out := make(map[int][]int)
	for k, vals := range allowed {
		seen := map[int]bool{}
		var v []int
		for _, x := range vals {
			if !seen[x] {
				seen[x] = true
				v = append(v, x)
			}
		}
		out[k] = v
	}
	return out
}

func TestUpdateMatchesNaiveMW(t *testing.T) {
	// The single-pass renormalization must agree with the textbook
	// two-pass exp-then-normalize implementation.
	d := dom()
	h := NewUniform(d.Size())
	q := query.MustNew(d, map[int][]int{1: {2, 3, 5}})
	step := 0.37

	naive := make([]float64, d.Size())
	for i := range naive {
		naive[i] = h.Weight(i)
	}
	q.ForEachBin(func(bin int) { naive[bin] *= math.Exp(step) })
	sum := 0.0
	for _, w := range naive {
		sum += w
	}
	for i := range naive {
		naive[i] /= sum
	}

	h.Update(q, step)
	for i := range naive {
		if math.Abs(h.Weight(i)-naive[i]) > 1e-12 {
			t.Fatalf("bin %d: fast %g vs naive %g", i, h.Weight(i), naive[i])
		}
	}
}

func TestUpdatePreservesDisjointRatios(t *testing.T) {
	// Bins outside the support keep their relative proportions.
	d := dom()
	h := NewUniform(d.Size())
	warm := query.MustNew(d, map[int][]int{0: {1}})
	h.Update(warm, 0.9)
	q := query.MustNew(d, map[int][]int{0: {0}})
	r0 := h.Weight(d.Encode([]int{1, 0})) / h.Weight(d.Encode([]int{2, 0}))
	h.Update(q, 0.5)
	r1 := h.Weight(d.Encode([]int{1, 0})) / h.Weight(d.Encode([]int{2, 0}))
	if math.Abs(r0-r1) > 1e-12 {
		t.Fatalf("ratio of untouched bins changed: %g -> %g", r0, r1)
	}
}

func TestUpdateZeroStepIsNoop(t *testing.T) {
	d := dom()
	h := NewUniform(d.Size())
	q := query.MustNew(d, map[int][]int{0: {0}})
	h.Update(q, 0)
	if h.Updates() != 0 {
		t.Fatal("zero step counted as update")
	}
	if h.Count(0) != 0 {
		t.Fatal("zero step bumped counters")
	}
}

func TestUpdatePanicsOnBadStep(t *testing.T) {
	d := dom()
	h := NewUniform(d.Size())
	q := query.MustNew(d, nil)
	for _, step := range []float64{math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Update(%v) did not panic", step)
				}
			}()
			h.Update(q, step)
		}()
	}
}

func TestCounters(t *testing.T) {
	d := dom()
	h := NewUniform(d.Size())
	q := query.MustNew(d, map[int][]int{0: {0}})
	h.Update(q, 0.1)
	h.Update(q, 0.1)
	q.ForEachBin(func(bin int) {
		if h.Count(bin) != 2 {
			t.Fatalf("Count(%d) = %g, want 2", bin, h.Count(bin))
		}
	})
	other := query.MustNew(d, map[int][]int{0: {1}})
	if h.MinSupportCount(other) != 0 {
		t.Fatal("untouched region should have min count 0")
	}
	if h.MinSupportCount(q) != 2 {
		t.Fatal("touched region min count should be 2")
	}
	if h.Updates() != 2 {
		t.Fatalf("Updates = %d", h.Updates())
	}
}

func TestCloneIndependence(t *testing.T) {
	d := dom()
	h := NewUniform(d.Size())
	q := query.MustNew(d, map[int][]int{0: {0}})
	h.Update(q, 0.3)
	c := h.Clone()
	if c.Updates() != h.Updates() {
		t.Fatal("clone lost update count")
	}
	c.Update(q, 0.3)
	if c.Eval(q) == h.Eval(q) {
		t.Fatal("clone shares state with original")
	}
}

func TestAverage(t *testing.T) {
	d := dom()
	a := NewUniform(d.Size())
	b := NewUniform(d.Size())
	q := query.MustNew(d, map[int][]int{0: {0}})
	a.Update(q, 1.0)
	avg, err := Average(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !avg.Normalized(1e-9) {
		t.Fatal("average not normalized")
	}
	for bin := 0; bin < d.Size(); bin++ {
		want := (a.Weight(bin) + b.Weight(bin)) / 2
		if math.Abs(avg.Weight(bin)-want) > 1e-12 {
			t.Fatalf("bin %d: %g, want %g", bin, avg.Weight(bin), want)
		}
	}
	// Counters average too (Fig. 5 shows fractional c).
	q.ForEachBin(func(bin int) {
		if avg.Count(bin) != 0.5 {
			t.Fatalf("avg Count = %g, want 0.5", avg.Count(bin))
		}
	})
	if _, err := Average(); err == nil {
		t.Error("Average() of nothing succeeded")
	}
	if _, err := Average(a, NewUniform(4)); err == nil {
		t.Error("Average of mismatched sizes succeeded")
	}
}

func TestLambdaAndMinWeight(t *testing.T) {
	h := NewUniform(16)
	if l := h.Lambda(); math.Abs(l-1) > 1e-12 {
		t.Fatalf("uniform Lambda = %g, want 1", l)
	}
	d := dom()
	h2 := NewUniform(d.Size())
	q := query.MustNew(d, map[int][]int{0: {0}})
	h2.Update(q, 2.0)
	if h2.Lambda() <= 1 {
		t.Fatalf("trained Lambda = %g, want > 1", h2.Lambda())
	}
	if h2.MinWeight() <= 0 {
		t.Fatal("MinWeight must stay positive under MW updates")
	}
}

func TestRelativeEntropy(t *testing.T) {
	h := NewUniform(4)
	uniform := []float64{0.25, 0.25, 0.25, 0.25}
	if d := relativeEntropy(h, uniform); math.Abs(d) > 1e-12 {
		t.Fatalf("D(u||u) = %g, want 0", d)
	}
	spiky := []float64{1, 0, 0, 0}
	want := math.Log(4)
	if d := relativeEntropy(h, spiky); math.Abs(d-want) > 1e-12 {
		t.Fatalf("D(point||uniform) = %g, want ln4 = %g", d, want)
	}
	// D is non-negative for any distribution pair (Gibbs).
	p := []float64{0.7, 0.1, 0.1, 0.1}
	if d := relativeEntropy(h, p); d < 0 {
		t.Fatalf("relative entropy negative: %g", d)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("size mismatch did not panic")
			}
		}()
		relativeEntropy(h, []float64{1})
	}()
}

func TestRelativeEntropyDecreasesUnderGoodUpdates(t *testing.T) {
	// The convergence potential D(p||h) must drop when updates move the
	// histogram toward p (the Thm A.4 argument, checked empirically).
	d := dom()
	h := NewUniform(d.Size())
	p := make([]float64, d.Size())
	p[0] = 0.5
	rest := 0.5 / float64(d.Size()-1)
	for i := 1; i < d.Size(); i++ {
		p[i] = rest
	}
	q := query.MustNew(d, map[int][]int{0: {0}, 1: {0}}) // selects bin 0 only
	before := relativeEntropy(h, p)
	// True result 0.5 ≫ estimate 1/32: a positive update is warranted.
	h.Update(q, 0.2)
	after := relativeEntropy(h, p)
	if after >= before {
		t.Fatalf("potential did not decrease: %g -> %g", before, after)
	}
}

// TestMemoryBytes: a histogram over n bins reports 12n bytes, a float64
// weight and a float32 counter a bin, at the covid (128) and citibike
// (1,200) domain sizes among others.
func TestMemoryBytes(t *testing.T) {
	for _, n := range []int{100, 128, 1200} {
		if got := NewUniform(n).MemoryBytes(); got != 12*n {
			t.Fatalf("n=%d: MemoryBytes = %d, want %d", n, got, 12*n)
		}
	}
}

// relativeEntropy computes D(p‖h) = Σ p(x)·ln(p(x)/h(x)), the potential
// tracked by the convergence proofs (Thm A.4). p must be a distribution of
// the same size; bins where p(x)=0 contribute zero.
func relativeEntropy(h *Histogram, p []float64) float64 {
	if len(p) != len(h.weights) {
		panic(fmt.Sprintf("histogram: relativeEntropy got %d-vector for %d bins", len(p), len(h.weights)))
	}
	d := 0.0
	for i, px := range p {
		if px <= 0 {
			continue
		}
		d += px * math.Log(px/(h.weights[i]*h.scale))
	}
	return d
}
