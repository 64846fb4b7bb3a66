// Synthetic CitiBike dataset and query pool (§6.1 macrobenchmark).
//
// The paper coarsens the 2018-2019 NYC bike-rental data to ten
// neighbourhoods and four age brackets, yielding n = 21,096,261 records
// over a domain of size N = 604,800 spanning 50 weeks, and extracts 30
// analyst analyses from Public Tableau whose GROUP BY statements decompose
// into a pool of 2,485 primitive queries. We reproduce the same shape: a
// product-form ride distribution with weekly seasonality over a domain of
// exactly 604,800 points (10·10·3·4·6·7·6·2), and 30 analysis templates
// whose decomposition yields a pool of the same order. A reduced-domain
// variant keeps default benchmark wall-clock reasonable; the full domain
// sits behind the same API.

package workload

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/domain"
	"repro/internal/noise"
	"repro/internal/query"
)

// CitiBikeDomain returns the full-size CitiBike schema, N = 604,800.
func CitiBikeDomain() *domain.Domain {
	return domain.MustNew(
		domain.Attribute{Name: "start", Card: 10},
		domain.Attribute{Name: "end", Card: 10},
		domain.Attribute{Name: "gender", Card: 3, Levels: []string{"unknown", "male", "female"}},
		domain.Attribute{Name: "age", Card: 4, Levels: []string{"16-25", "26-40", "41-60", "61+"}},
		domain.Attribute{Name: "duration", Card: 6},
		domain.Attribute{Name: "weekday", Card: 7},
		domain.Attribute{Name: "hour", Card: 6},
		domain.Attribute{Name: "usertype", Card: 2, Levels: []string{"subscriber", "customer"}},
	)
}

// CitiBikeSmallDomain is a reduced variant (N = 10·10·3·4 = 1,200) that
// preserves the pool structure over the four attributes the analyses use
// most, keeping default benchmark runs fast. EXPERIMENTS.md reports which
// variant each figure used.
func CitiBikeSmallDomain() *domain.Domain {
	return domain.MustNew(
		domain.Attribute{Name: "start", Card: 10},
		domain.Attribute{Name: "end", Card: 10},
		domain.Attribute{Name: "gender", Card: 3, Levels: []string{"unknown", "male", "female"}},
		domain.Attribute{Name: "age", Card: 4, Levels: []string{"16-25", "26-40", "41-60", "61+"}},
	)
}

// CitiBikeConfig sizes the synthetic CitiBike dataset.
type CitiBikeConfig struct {
	// Rows is the total ride count; the paper's dataset has 21,096,261.
	Rows int
	// Weeks is the number of time partitions (paper: 50).
	Weeks int
	// Small selects the reduced domain.
	Small bool
	// Seed drives the deterministic generator.
	Seed uint64
}

// BuildCitiBike materializes the synthetic ride data: product marginals
// with commuter structure (rush-hour and weekday skew) and a seasonal
// volume cycle across weeks.
func BuildCitiBike(cfg CitiBikeConfig) (*dataset.Dataset, error) {
	if cfg.Rows <= 0 || cfg.Weeks <= 0 {
		return nil, fmt.Errorf("workload: bad citibike config %+v", cfg)
	}
	dom := CitiBikeDomain()
	if cfg.Small {
		dom = CitiBikeSmallDomain()
	}
	rng := noise.NewRng(cfg.Seed)

	// Marginals per attribute; trailing attributes exist only in the full
	// domain.
	marginals := [][]float64{
		jitter(rng, []float64{0.18, 0.16, 0.14, 0.12, 0.10, 0.08, 0.07, 0.06, 0.05, 0.04}), // start
		jitter(rng, []float64{0.17, 0.15, 0.14, 0.12, 0.10, 0.09, 0.08, 0.06, 0.05, 0.04}), // end
		jitter(rng, []float64{0.12, 0.62, 0.26}),                                           // gender
		jitter(rng, []float64{0.28, 0.42, 0.24, 0.06}),                                     // age
		jitter(rng, []float64{0.30, 0.28, 0.18, 0.12, 0.08, 0.04}),                         // duration
		jitter(rng, []float64{0.16, 0.16, 0.16, 0.16, 0.15, 0.11, 0.10}),                   // weekday
		jitter(rng, []float64{0.08, 0.24, 0.14, 0.12, 0.26, 0.16}),                         // hour
		jitter(rng, []float64{0.86, 0.14}),                                                 // usertype
	}
	marginals = marginals[:dom.NumAttrs()]

	// Each bin's expected share, the product of its attributes' marginals
	// in attribute order; the domain numbers bins attribute 0 first.
	share := []float64{1}
	for _, m := range marginals {
		next := make([]float64, 0, len(share)*len(m))
		for _, q := range share {
			for _, p := range m {
				next = append(next, q*p)
			}
		}
		share = next
	}

	perWeek := splitEvenly(cfg.Rows, cfg.Weeks, rng)
	return dataset.Build(dom, cfg.Weeks, func(w int, counts []int) {
		// Seasonal cycle: ridership peaks mid-span (summer).
		season := 0.7 + 0.6*wave(float64(w)/float64(cfg.Weeks))
		nW := int(float64(perWeek[w]) * season)
		if nW < 1 {
			nW = 1
		}
		assigned := 0
		// Deterministic largest-cell-first fill: each bin's expected count.
		for bin, p := range share {
			c := int(float64(nW)*p + 0.5)
			counts[bin] = c
			assigned += c
		}
		// Deposit any rounding remainder on the heaviest bin.
		if assigned < nW {
			best := 0
			for i, c := range counts {
				if c > counts[best] {
					best = i
				}
			}
			counts[best] += nW - assigned
		}
	})
}

// Analysis is one analyst dashboard: a filter plus GROUP BY attributes.
// Decomposition turns each combination of group values into a primitive
// query, as the paper does with the Tableau analyses.
type Analysis struct {
	Name    string
	Filter  map[int][]int // attribute → allowed values
	GroupBy []int         // attributes whose value combinations enumerate
}

// CitiBikeAnalyses returns 30 analysis templates in the spirit of the
// public dashboards the paper harvested (ridership by route, demographics
// by neighbourhood, commute-time profiles, ...), restricted to the
// attributes present in dom.
func CitiBikeAnalyses(dom *domain.Domain) []Analysis {
	a := func(name string, filter map[int][]int, groupBy ...int) Analysis {
		return Analysis{Name: name, Filter: filter, GroupBy: groupBy}
	}
	start, end, gender, age := 0, 1, 2, 3
	out := []Analysis{
		a("rides-by-route", nil, start, end),                          // 100
		a("rides-by-start", nil, start),                               // 10
		a("rides-by-end", nil, end),                                   // 10
		a("gender-by-start", nil, start, gender),                      // 30
		a("age-by-start", nil, start, age),                            // 40
		a("age-by-end", nil, end, age),                                // 40
		a("gender-split", nil, gender),                                // 3
		a("age-split", nil, age),                                      // 4
		a("gender-age", nil, gender, age),                             // 12
		a("male-routes", map[int][]int{gender: {1}}, start, end),      // 100
		a("female-routes", map[int][]int{gender: {2}}, start, end),    // 100
		a("young-routes", map[int][]int{age: {0}}, start, end),        // 100
		a("senior-by-start", map[int][]int{age: {3}}, start),          // 10
		a("prime-age-route", map[int][]int{age: {1, 2}}, start, end),  // 100
		a("downtown-age", map[int][]int{start: {0, 1, 2}}, end, age),  // 40
		a("uptown-gender", map[int][]int{start: {7, 8, 9}}, end, age), // 40
		a("crosstown", map[int][]int{end: {0, 1}}, start, gender),     // 30
		a("age-gender-start", nil, start, gender, age),                // 120
		a("loopback", map[int][]int{start: {0}}, end, gender),         // 30
		a("hub-traffic", map[int][]int{end: {0}}, start, age),         // 40
	}
	if dom.NumAttrs() > 4 {
		duration, weekday, hour, usertype := 4, 5, 6, 7
		out = append(out,
			a("duration-profile", nil, duration),                               // 6
			a("weekday-volume", nil, weekday),                                  // 7
			a("hourly-volume", nil, hour),                                      // 6
			a("commute-hours", map[int][]int{hour: {1, 4}}, weekday, usertype), // 14
			a("weekend-age", map[int][]int{weekday: {5, 6}}, age, duration),    // 24
			a("subscriber-hours", map[int][]int{usertype: {0}}, weekday, hour), // 42
			a("customer-routes", map[int][]int{usertype: {1}}, start, end),     // 100
			a("long-rides", map[int][]int{duration: {4, 5}}, start, age),       // 40
			a("rush-routes", map[int][]int{hour: {1}}, start, end),             // 100
			a("night-gender", map[int][]int{hour: {0}}, gender, weekday),       // 21
		)
	} else {
		// Reduced domain: substitute analyses over the four attributes so
		// the template count stays at 30.
		out = append(out,
			a("unknown-gender-route", map[int][]int{gender: {0}}, start, end), // 100
			a("senior-routes", map[int][]int{age: {3}}, start, end),           // 100
			a("midtown-mix", map[int][]int{start: {3, 4, 5}}, end, gender),    // 30
			a("east-side", map[int][]int{end: {2, 3}}, start, age),            // 40
			a("young-by-end", map[int][]int{age: {0, 1}}, end, gender),        // 30
			a("male-by-age", map[int][]int{gender: {1}}, start, age),          // 40
			a("female-by-end", map[int][]int{gender: {2}}, end, age),          // 40
			a("short-hops", map[int][]int{start: {0, 1}, end: {0, 1}}, age),   // 4
			a("borough-pairs", map[int][]int{start: {5, 6, 7, 8, 9}}, end),    // 10
			a("all-demographics", nil, gender, age, end),                      // 120
		)
	}
	return out
}

// CitiBikePool decomposes the analyses into primitive queries: one per
// combination of GROUP BY values, each also carrying the analysis filter.
// On the paper's attribute choices this yields a pool of ≈2,485 queries.
func CitiBikePool(dom *domain.Domain) []*query.Query {
	var pool []*query.Query
	for _, an := range CitiBikeAnalyses(dom) {
		pool = append(pool, decompose(dom, an)...)
	}
	return pool
}

// decompose enumerates one analysis's primitive queries.
func decompose(dom *domain.Domain, an Analysis) []*query.Query {
	var out []*query.Query
	assign := make([]int, len(an.GroupBy))
	var rec func(i int)
	rec = func(i int) {
		if i == len(an.GroupBy) {
			allowed := make(map[int][]int, len(an.Filter)+len(an.GroupBy))
			for k, v := range an.Filter {
				allowed[k] = v
			}
			for j, attr := range an.GroupBy {
				allowed[attr] = []int{assign[j]}
			}
			out = append(out, query.MustNew(dom, allowed))
			return
		}
		for v := 0; v < dom.Card(an.GroupBy[i]); v++ {
			assign[i] = v
			rec(i + 1)
		}
	}
	rec(0)
	return out
}
