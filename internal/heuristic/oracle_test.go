// The ForEachBin-based reference for the per-bin designs and the
// randomized property test that pins AdaptivePerBin and StaticPerBin —
// which read the query's memoized support and the histogram's gather
// kernels — to it: same readiness decisions, same threshold mutations.

package heuristic

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/domain"
	"repro/internal/histogram"
	"repro/internal/query"
)

// refPerBin is the reference per-bin design: thresholds always
// materialized, the support re-derived by query.ForEachBin's recursive
// walk on every call, the counters read one bin at a time. s0 = 0 makes
// it the static design.
type refPerBin struct {
	s0         float64
	thresholds []float64
}

func newRefPerBin(size int, c0, s0 float64) *refPerBin {
	r := &refPerBin{s0: s0, thresholds: make([]float64, size)}
	for i := range r.thresholds {
		r.thresholds[i] = c0
	}
	return r
}

func (r *refPerBin) isReady(h *histogram.Histogram, q *query.Query) bool {
	ready := true
	q.ForEachBin(func(bin int) {
		if h.Count(bin) < r.thresholds[bin] {
			ready = false
		}
	})
	return ready
}

func (r *refPerBin) penalize(h *histogram.Histogram, q *query.Query) {
	min := math.Inf(1)
	q.ForEachBin(func(bin int) { min = math.Min(min, h.Count(bin)) })
	q.ForEachBin(func(bin int) {
		if h.Count(bin) == min {
			r.thresholds[bin] += r.s0
		}
	})
}

// TestPerBinDesignsMatchForEachBinReference drives AdaptivePerBin and
// StaticPerBin through randomized histories — purposeful updates and
// penalties drawn from a small recurring pool, so bins cross their
// thresholds at different times — over several domain shapes, and
// requires fresh random probes' readiness decisions and every bin's
// threshold to equal the reference's after each step. Histories are short
// and restarted so most probes land while only part of the domain is
// trained, where a single mishandled bin flips the decision.
func TestPerBinDesignsMatchForEachBinReference(t *testing.T) {
	doms := []*domain.Domain{
		domain.MustNew(domain.Attribute{Name: "a", Card: 7}),
		dom(),
		domain.MustNew(
			domain.Attribute{Name: "a", Card: 3},
			domain.Attribute{Name: "b", Card: 5},
			domain.Attribute{Name: "c", Card: 4},
			domain.Attribute{Name: "tail", Card: 2},
		),
	}
	rng := rand.New(rand.NewSource(41))
	randomQuery := func(d *domain.Domain) *query.Query {
		allowed := map[int][]int{}
		for a := 0; a < d.NumAttrs(); a++ {
			if rng.Intn(2) == 0 {
				allowed[a] = rng.Perm(d.Card(a))[:1+rng.Intn(d.Card(a))]
			}
		}
		return query.MustNew(d, allowed)
	}
	const c0, s0 = 2, 1.5
	for di, d := range doms {
		probes, ready, lazyProbes, penalties := 0, 0, 0, 0
		for trial := 0; trial < 10; trial++ {
			h := histogram.NewUniform(d.Size())
			adaptive, refAdaptive := NewAdaptivePerBin(c0, s0), newRefPerBin(d.Size(), c0, s0)
			static, refStatic := NewStaticPerBin(c0), newRefPerBin(d.Size(), c0, 0)
			pool := make([]*query.Query, 6)
			for i := range pool {
				pool[i] = randomQuery(d)
			}
			for step := 0; step < 60; step++ {
				q := pool[rng.Intn(len(pool))]
				if rng.Intn(12) == 0 {
					adaptive.Penalize(h, q)
					refAdaptive.penalize(h, q)
					static.Penalize(h, q)
					penalties++
				} else {
					h.Update(q, 0.05)
				}
				for i := 0; i < 8; i++ {
					probe := randomQuery(d)
					got, want := adaptive.IsReady(h, probe), refAdaptive.isReady(h, probe)
					if got != want {
						t.Fatalf("domain %d trial %d step %d: adaptive IsReady(%v) = %v, reference %v",
							di, trial, step, probe, got, want)
					}
					if got, want := static.IsReady(h, probe), refStatic.isReady(h, probe); got != want {
						t.Fatalf("domain %d trial %d step %d: static IsReady(%v) = %v, reference %v",
							di, trial, step, probe, got, want)
					}
					probes++
					if got {
						ready++
					}
					if adaptive.thresholds == nil {
						lazyProbes++
					}
				}
				for bin := 0; bin < d.Size(); bin++ {
					if got, want := adaptive.Threshold(bin), refAdaptive.thresholds[bin]; got != want {
						t.Fatalf("domain %d trial %d step %d bin %d: threshold %v, reference %v",
							di, trial, step, bin, got, want)
					}
				}
			}
		}
		// Both answers, both threshold representations (lazy C0 scalar and
		// materialized vector), and the penalty path must all have run.
		if ready == 0 || ready == probes || lazyProbes == 0 || lazyProbes == probes || penalties == 0 {
			t.Fatalf("domain %d: vacuous history (%d/%d probes ready, %d on lazy thresholds, %d penalties)",
				di, ready, probes, lazyProbes, penalties)
		}
	}
}
