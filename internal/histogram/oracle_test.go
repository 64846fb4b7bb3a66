// The closure-walk reference kernels and the property tests that pin the
// production gather kernels (histogram.go) to them bit for bit. The
// references re-derive the support through query.ForEachBin's recursive
// walk on every call and spell out the 4-lane reduction spec one bin at
// a time; they are deliberately the slow, obviously-correct form and
// exist only for these comparisons.

package histogram

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/domain"
	"repro/internal/query"
)

// randomQuery draws a conjunctive predicate over d: each attribute is
// restricted to a random proper subset with probability 1/2.
func randomQuery(t *testing.T, d *domain.Domain, rng *rand.Rand) *query.Query {
	t.Helper()
	allowed := map[int][]int{}
	for a := 0; a < d.NumAttrs(); a++ {
		if rng.Intn(2) == 1 {
			continue
		}
		card := d.Card(a)
		k := 1 + rng.Intn(card)
		if k == card && card > 1 {
			k--
		}
		allowed[a] = rng.Perm(card)[:k]
	}
	if len(allowed) == 0 {
		a := rng.Intn(d.NumAttrs())
		allowed[a] = []int{rng.Intn(d.Card(a))}
	}
	q, err := query.New(d, allowed)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func sparseDoms() []*domain.Domain {
	return []*domain.Domain{
		domain.MustNew(domain.Attribute{Name: "a", Card: 7}),
		domain.MustNew(
			domain.Attribute{Name: "a", Card: 4},
			domain.Attribute{Name: "b", Card: 8},
		),
		domain.MustNew(
			domain.Attribute{Name: "a", Card: 8},
			domain.Attribute{Name: "b", Card: 8},
			domain.Attribute{Name: "c", Card: 8},
			domain.Attribute{Name: "tail", Card: 2},
		),
	}
}

// evalWalk is the reference for Eval: the i-th bin ForEachBin emits feeds
// lane i mod 4, lanes combine (s0+s1)+(s2+s3), then the scale folds in.
func evalWalk(h *Histogram, q *query.Query) float64 {
	var s [4]float64
	i := 0
	q.ForEachBin(func(bin int) {
		s[i&3] += h.weights[bin]
		i++
	})
	return ((s[0] + s[1]) + (s[2] + s[3])) * h.scale
}

// updateWalk is the reference for Update (and, given est = Eval, for
// UpdateMass): reduce the pre-update support mass by the 4-lane spec,
// scale and count each support bin, fold the renormalization.
func updateWalk(h *Histogram, q *query.Query, step float64) {
	if step == 0 {
		return
	}
	factor := math.Exp(step)
	var m [4]float64
	i := 0
	q.ForEachBin(func(bin int) {
		m[i&3] += h.weights[bin]
		i++
		h.weights[bin] *= factor
		h.counts[bin]++
	})
	h.finishUpdate(factor, ((m[0]+m[1])+(m[2]+m[3]))*h.scale)
}

// minSupportCountWalk is the reference for MinSupportCount.
func minSupportCountWalk(h *Histogram, q *query.Query) float64 {
	min := math.Inf(1)
	q.ForEachBin(func(bin int) {
		if c := float64(h.counts[bin]); c < min {
			min = c
		}
	})
	return min
}

// TestEvalSupportMatchesDenseBitForBit: the gather-sum must reproduce
// the recursive ForEachBin sum exactly — same bins, same order, same
// floating-point result.
func TestEvalSupportMatchesDenseBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, d := range sparseDoms() {
		h := NewUniform(d.Size())
		// Rough up the weights so sums are order-sensitive.
		for i := 0; i < 200; i++ {
			h.Update(randomQuery(t, d, rng), 0.05+0.2*rng.Float64())
		}
		for i := 0; i < 200; i++ {
			q := randomQuery(t, d, rng)
			if got, want := h.Eval(q), evalWalk(h, q); got != want {
				t.Fatalf("domain %d: Eval = %v, closure walk = %v (must be bit-identical)",
					d.Size(), got, want)
			}
		}
	}
}

// TestUpdateSupportMatchesDenseBitForBit: after every update the
// histogram must be bitwise identical to a twin driven by the closure
// walk with the same queries and steps. Every third update goes through
// UpdateMass with the claim-time estimate, which must land on the same
// bits as Update.
func TestUpdateSupportMatchesDenseBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, d := range sparseDoms() {
		hs, hd := NewUniform(d.Size()), NewUniform(d.Size())
		for i := 0; i < 500; i++ {
			q := randomQuery(t, d, rng)
			step := (rng.Float64() - 0.5) * 0.4
			if i%17 == 0 {
				step = 0 // a zero step must stay a no-op on both paths
			}
			if i%3 == 2 {
				hs.UpdateMass(q, step, hs.Eval(q))
			} else {
				hs.Update(q, step)
			}
			updateWalk(hd, q, step)
			if hs.Updates() != hd.Updates() {
				t.Fatalf("update %d: counters diverged (%d vs %d)", i, hs.Updates(), hd.Updates())
			}
		}
		for b := 0; b < d.Size(); b++ {
			if hs.Weight(b) != hd.Weight(b) {
				t.Fatalf("bin %d: weight %v vs closure walk %v (must be bit-identical)", b, hs.Weight(b), hd.Weight(b))
			}
			if hs.Count(b) != hd.Count(b) {
				t.Fatalf("bin %d: count %v vs closure walk %v", b, hs.Count(b), hd.Count(b))
			}
		}
	}
}

// TestMixedUpdatesStayNormalized: 10k updates alternating between the
// production kernel and the closure walk on one histogram keep the
// renormalization invariant (crossing many settles) and never drift from
// a twin driven by the closure walk alone.
func TestMixedUpdatesStayNormalized(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	d := sparseDoms()[2]
	h := NewUniform(d.Size())
	twin := NewUniform(d.Size())
	for i := 0; i < 10000; i++ {
		q := randomQuery(t, d, rng)
		step := (rng.Float64() - 0.5) * 0.5
		updateWalk(twin, q, step)
		if i%2 == 0 {
			h.Update(q, step)
		} else {
			updateWalk(h, q, step)
		}
	}
	if !h.Normalized(1e-9) {
		t.Fatal("histogram left the simplex after 10k mixed updates")
	}
	for b := 0; b < d.Size(); b++ {
		if h.Weight(b) != twin.Weight(b) {
			t.Fatalf("bin %d: mixed-kernel weight %v vs closure-walk twin %v", b, h.Weight(b), twin.Weight(b))
		}
	}
}

// TestSupportCountKernelsMatchDense: MinSupportCount agrees with its
// closure-walk reference.
func TestSupportCountKernelsMatchDense(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	d := sparseDoms()[1]
	h := NewUniform(d.Size())
	for i := 0; i < 300; i++ {
		q := randomQuery(t, d, rng)
		if got, want := h.MinSupportCount(q), minSupportCountWalk(h, q); got != want {
			t.Fatalf("iter %d: MinSupportCount = %v, closure walk %v", i, got, want)
		}
		h.Update(q, 0.1)
	}
}

// TestUpdateSupportSizeMismatchPanics: a query over another domain must
// be rejected by every kernel, not silently misapplied.
func TestUpdateSupportSizeMismatchPanics(t *testing.T) {
	ds := sparseDoms()
	q := query.MustNew(ds[0], map[int][]int{0: {1, 2}})
	h := NewUniform(ds[1].Size())
	for name, call := range map[string]func(){
		"Eval":            func() { h.Eval(q) },
		"Update":          func() { h.Update(q, 0.1) },
		"UpdateMass":      func() { h.UpdateMass(q, 0.1, 0.5) },
		"MinSupportCount": func() { h.MinSupportCount(q) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: size-mismatched query did not panic", name)
				}
			}()
			call()
		}()
	}
}
