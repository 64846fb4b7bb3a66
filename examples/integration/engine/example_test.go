package engine_test

import (
	"fmt"
	"log"

	"repro/examples/integration/engine"
	"repro/internal/heuristic"
	"repro/internal/pmw"
	"repro/internal/query"
	"repro/internal/workload"
)

// The §5 turbo-tumult pattern: a host DP engine gains Turbo caching
// through a wrapper session that implements the Turbo API over the
// engine's own measurement primitives, with no engine code changed. Two
// identical engines run one correlated workload, one plain and one
// wrapped.
func ExampleNewTurboSession() {
	ds, err := workload.BuildCovid(workload.CovidConfig{
		Rows: 1_000_000, Weeks: 1, Seed: 4,
	})
	if err != nil {
		log.Fatal(err)
	}

	plainCore := engine.NewCore(ds, 10, 1)
	plain, err := engine.NewSession(plainCore, 0.05, 0.001)
	if err != nil {
		log.Fatal(err)
	}
	turboCore := engine.NewCore(ds, 10, 1)
	inner, err := engine.NewSession(turboCore, 0.05, 0.001)
	if err != nil {
		log.Fatal(err)
	}
	turbo, err := engine.NewTurboSession(inner,
		heuristic.NewAdaptivePerBin(20, 2),
		pmw.ExpDecay{Start: 0.25, End: 0.025, HalfLife: 300},
		0.05, 2)
	if err != nil {
		log.Fatal(err)
	}

	// Every pairwise predicate over the outcome and age attributes.
	dom := ds.Domain()
	var qs []*query.Query
	for p := 0; p < 2; p++ {
		for a := 0; a < 4; a++ {
			qs = append(qs, query.MustNew(dom, map[int][]int{0: {p}, 1: {a}}))
			qs = append(qs, query.MustNew(dom, map[int][]int{0: {p}, 1: {a, (a + 1) % 4}}))
		}
	}
	for round := 0; round < 20; round++ {
		for _, q := range qs {
			if _, err := plain.Evaluate(q); err != nil {
				log.Fatal(err)
			}
			if _, err := turbo.Evaluate(q); err != nil {
				log.Fatal(err)
			}
		}
	}

	turboN, failed := turbo.Stats()
	st := turbo.PMW().Stats()
	fmt.Printf("workload: %d evaluations of %d distinct correlated queries\n", 20*len(qs), len(qs))
	fmt.Printf("plain engine consumed:        ε = %.4f\n", plainCore.Spent())
	fmt.Printf("turbo-wrapped engine consumed: ε = %.4f  (%.1fx less)\n",
		turboCore.Spent(), plainCore.Spent()/turboCore.Spent())
	fmt.Printf("turbo paths: free-histogram=%d  pmw-miss=%d  bypass=%d  (answered=%d, failed-over=%d)\n",
		st.R1, st.R2, st.R3, turboN, failed)

	// Output:
	// workload: 320 evaluations of 16 distinct correlated queries
	// plain engine consumed:        ε = 0.1768
	// turbo-wrapped engine consumed: ε = 0.0796  (2.2x less)
	// turbo paths: free-histogram=179  pmw-miss=0  bypass=141  (answered=320, failed-over=0)
}
