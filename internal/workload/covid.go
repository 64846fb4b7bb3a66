// Package workload builds the evaluation datasets and query workloads of
// §6.1: a synthetic Covid dataset with its exhaustive 34,425-query pool
// (the microbenchmark), a synthetic CitiBike dataset with a pool of ≈2,485
// primitive queries decomposed from 30 analyst analyses (the
// macrobenchmark), Zipfian query sampling, window generators for the
// partitioned use cases, and the empirical-convergence validation metric.
//
// The real datasets are replaced by generators that preserve what PMW
// behaviour depends on — schema, domain size, marginal skew, and
// week-over-week drift.
package workload

import (
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/domain"
	"repro/internal/noise"
	"repro/internal/query"
)

// CovidDomain returns the evaluation Covid schema: test outcome, age
// bracket, gender, and ethnicity, with domain size N = 2·4·2·8 = 128.
func CovidDomain() *domain.Domain {
	return domain.MustNew(
		domain.Attribute{Name: "positive", Card: 2, Levels: []string{"negative", "positive"}},
		domain.Attribute{Name: "age", Card: 4, Levels: []string{"1-17", "18-49", "50-64", "65+"}},
		domain.Attribute{Name: "gender", Card: 2, Levels: []string{"female", "male"}},
		domain.Attribute{Name: "ethnicity", Card: 8},
	)
}

// CovidConfig sizes the synthetic Covid dataset.
type CovidConfig struct {
	// Rows is the total row count; the paper's dataset has 50,426,600.
	Rows int
	// Weeks is the number of time partitions; the paper spans 50.
	Weeks int
	// Seed drives the deterministic generator.
	Seed uint64
}

// BuildCovid materializes the synthetic Covid dataset: a demographic
// product distribution whose positivity rate drifts across weeks (waves),
// mimicking the California 2020 testing data the paper uses.
func BuildCovid(cfg CovidConfig) (*dataset.Dataset, error) {
	if cfg.Rows <= 0 || cfg.Weeks <= 0 {
		return nil, fmt.Errorf("workload: bad covid config %+v", cfg)
	}
	dom := CovidDomain()
	rng := noise.NewRng(cfg.Seed)

	// Fixed demographic marginals (age, gender, ethnicity) with mild
	// random jitter so no bin is degenerate.
	ageW := jitter(rng, []float64{0.22, 0.45, 0.18, 0.15})
	genderW := jitter(rng, []float64{0.51, 0.49})
	ethW := jitter(rng, []float64{0.38, 0.18, 0.15, 0.06, 0.09, 0.05, 0.05, 0.04})

	perWeek := splitEvenly(cfg.Rows, cfg.Weeks, rng)
	tuple := make([]int, 4)
	return dataset.Build(dom, cfg.Weeks, func(w int, counts []int) {
		// Positivity wave: two bumps across the year plus noise.
		phase := float64(w) / float64(cfg.Weeks)
		pos := 0.06 + 0.18*wave(phase) + 0.02*rng.Float64()
		// Older brackets test positive slightly more often, giving the
		// attribute correlation PMW exploits.
		for a := 0; a < 4; a++ {
			posA := pos * (0.8 + 0.15*float64(a))
			if posA > 0.95 {
				posA = 0.95
			}
			for g := 0; g < 2; g++ {
				for e := 0; e < 8; e++ {
					cell := float64(perWeek[w]) * ageW[a] * genderW[g] * ethW[e]
					tuple[0], tuple[1], tuple[2], tuple[3] = 1, a, g, e
					posBin := dom.Encode(tuple)
					tuple[0] = 0
					negBin := dom.Encode(tuple)
					p := int(cell*posA + 0.5)
					n := int(cell + 0.5)
					if p > n {
						p = n
					}
					counts[posBin] += p
					counts[negBin] += n - p
				}
			}
		}
	})
}

// CovidPool enumerates the full Covid query pool: every combination of a
// non-empty value subset per attribute, (2²−1)(2⁴−1)(2²−1)(2⁸−1) = 34,425
// unique queries (§6.1).
func CovidPool(dom *domain.Domain) []*query.Query {
	subsets := make([][][]int, dom.NumAttrs())
	for i := 0; i < dom.NumAttrs(); i++ {
		subsets[i] = nonEmptySubsets(dom.Card(i))
	}
	var pool []*query.Query
	var rec func(attr int, chosen map[int][]int)
	rec = func(attr int, chosen map[int][]int) {
		if attr == dom.NumAttrs() {
			allowed := make(map[int][]int, len(chosen))
			for k, v := range chosen {
				allowed[k] = v
			}
			pool = append(pool, query.MustNew(dom, allowed))
			return
		}
		for _, s := range subsets[attr] {
			chosen[attr] = s
			rec(attr+1, chosen)
		}
		delete(chosen, attr)
	}
	rec(0, make(map[int][]int))
	return pool
}

// nonEmptySubsets enumerates the non-empty subsets of {0..card-1}.
func nonEmptySubsets(card int) [][]int {
	var out [][]int
	for mask := 1; mask < 1<<card; mask++ {
		var s []int
		for v := 0; v < card; v++ {
			if mask&(1<<v) != 0 {
				s = append(s, v)
			}
		}
		out = append(out, s)
	}
	return out
}

// jitter perturbs weights by up to ±10% and renormalizes.
func jitter(rng *noise.Rng, w []float64) []float64 {
	out := make([]float64, len(w))
	sum := 0.0
	for i, x := range w {
		out[i] = x * (0.9 + 0.2*rng.Float64())
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// splitEvenly distributes total rows across k buckets with ±15% jitter.
func splitEvenly(total, k int, rng *noise.Rng) []int {
	weights := make([]float64, k)
	sum := 0.0
	for i := range weights {
		weights[i] = 0.85 + 0.3*rng.Float64()
		sum += weights[i]
	}
	out := make([]int, k)
	used := 0
	for i := range out {
		out[i] = int(float64(total) * weights[i] / sum)
		used += out[i]
	}
	out[k-1] += total - used
	return out
}

// wave is a two-bump [0,1] → [0,1] profile for positivity drift.
func wave(x float64) float64 {
	// Two raised cosines centred at 0.25 and 0.8.
	b := func(c, w float64) float64 {
		d := (x - c) / w
		if d < -1 || d > 1 {
			return 0
		}
		return (1 + cosPi(d)) / 2
	}
	v := 0.7*b(0.25, 0.2) + b(0.8, 0.15)
	if v > 1 {
		return 1
	}
	return v
}

// cosPi computes cos(πx).
func cosPi(x float64) float64 { return math.Cos(math.Pi * x) }
