package core_test

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/workload"
)

// A Turbo-cached DP database over a small synthetic Covid dataset answers
// a handful of linear queries; each answer reports its execution path and
// what it paid, and a repeat is served by the exact cache for free.
func ExampleSession_Answer() {
	// The synthetic generator mirrors the paper's Covid schema:
	// positivity × age × gender × ethnicity, N=128.
	ds, err := workload.BuildCovid(workload.CovidConfig{
		Rows: 1_000_000, Weeks: 4, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Every answer is (α, β)-accurate and the whole workload stays under
	// a global (ε_G, 0)-DP guarantee.
	sess, err := core.NewSession(core.Config{
		Mode:          core.NonPartitioned,
		Alpha:         0.05,  // ≤5% absolute error ...
		Beta:          0.001, // ... with probability 99.9%
		EpsilonGlobal: 10,
		Seed:          7,
	}, ds)
	if err != nil {
		log.Fatal(err)
	}

	dom := ds.Domain()
	queries := []*query.Query{
		// Positivity rate.
		query.MustNew(dom, map[int][]int{dom.AttrIndex("positive"): {1}}),
		// Fraction of tested minors.
		query.MustNew(dom, map[int][]int{dom.AttrIndex("age"): {0}}),
		// Positive minors: overlaps both previous queries, so the
		// histogram has already learned about these bins.
		query.MustNew(dom, map[int][]int{
			dom.AttrIndex("positive"): {1},
			dom.AttrIndex("age"):      {0},
		}),
	}

	fmt.Printf("dataset: %s, n=%d rows\n", dom, ds.NRowsAll())
	for _, q := range queries {
		ans, err := sess.Answer(q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s -> %.4f (path %s, paid ε=%.2g)\n", q, ans.Value, ans.Source, ans.Paid)
	}

	// Repeats are free: the exact cache serves them.
	ans, err := sess.Answer(queries[0])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("repeat of the first query -> %.4f (path %s, paid ε=%g)\n",
		ans.Value, ans.Source, ans.Paid)
	fmt.Printf("consumed budget: %.4f of ε_G=%g\n", sess.AverageSpent(), 10.0)

	// Output:
	// dataset: positive(2)xage(4)xgender(2)xethnicity(8) N=128, n=1000001 rows
	// COUNT WHERE positive=positive -> 0.1276 (path pmw-r3, paid ε=0.00055)
	// COUNT WHERE age=1-17 -> 0.1984 (path pmw-r3, paid ε=0.00055)
	// COUNT WHERE positive=positive AND age=1-17 -> 0.0226 (path pmw-r3, paid ε=0.00055)
	// repeat of the first query -> 0.1276 (path exact-hit, paid ε=0)
	// consumed budget: 0.0017 of ε_G=10
}
