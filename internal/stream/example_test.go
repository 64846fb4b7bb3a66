package stream_test

import (
	"errors"
	"fmt"
	"log"
	"slices"

	"repro/internal/accountant"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/heuristic"
	"repro/internal/noise"
	"repro/internal/pmw"
	"repro/internal/stream"
	"repro/internal/workload"
)

// A CitiBike-style rental stream partitioned by week, with new weeks
// arriving over time while analysts query recent windows (§4.5, use case
// 3). Each week is submitted as a batched arrival, applied in order
// (accountants → dataset → data) before Submit returns, and its tree leaf
// is warm-started from the previous week's learning at ingestion time
// rather than on the first query.
func ExampleIngestor() {
	const weeks, perWeek = 12, 400

	// Generate the full history up front, then replay it week by week.
	full, err := workload.BuildCitiBike(workload.CitiBikeConfig{
		Rows: 2_000_000, Weeks: weeks, Small: true, Seed: 8,
	})
	if err != nil {
		log.Fatal(err)
	}
	pool := workload.CitiBikePool(full.Domain())
	fmt.Printf("CitiBike stream: %s, %d weeks, pool of %d primitive queries\n",
		full.Domain(), weeks, len(pool))

	// The live database starts with week 0 only.
	live := dataset.New(full.Domain(), 1)
	if err := live.BulkLoad(0, full.PartitionCounts(0)); err != nil {
		log.Fatal(err)
	}
	sess, err := core.NewSession(core.Config{
		Mode:          core.Streaming, // tree-structured PMW-Bypass + warm-start
		Alpha:         0.05,
		Beta:          0.001,
		EpsilonGlobal: 10,
		Tau:           0.01, // CitiBike defaults from §6.1/§6.3
		Heuristic:     func() heuristic.Heuristic { return heuristic.NewAdaptivePerBin(1, 1) },
		LR:            func() pmw.Schedule { return pmw.Constant(0.5) },
		Seed:          5,
	}, live)
	if err != nil {
		log.Fatal(err)
	}
	ing, err := stream.NewIngestor(sess)
	if err != nil {
		log.Fatal(err)
	}

	z, err := workload.NewZipf(pool, 0, noise.NewRng(11))
	if err != nil {
		log.Fatal(err)
	}
	wins := workload.NewWindows(noise.NewRng(12))

	answered, exhausted := 0, 0
	for w := 0; w < weeks; w++ {
		if w > 0 {
			if _, err := ing.Submit(stream.Arrival{Counts: full.PartitionCounts(w)}); err != nil {
				log.Fatal(err)
			}
		}
		for i := 0; i < perWeek; i++ {
			s, e := wins.LatestWindow(sess.Dataset().Partitions())
			if _, err := sess.Answer(z.Sample().WithWindow(s, e)); err != nil {
				if errors.Is(err, accountant.ErrBudgetExhausted) {
					exhausted++
					continue
				}
				log.Fatal(err)
			}
			answered++
		}
		fmt.Printf("week %2d: partitions=%2d  avg-budget=%.4f  max-budget=%.4f  tree-nodes=%d\n",
			w, sess.Dataset().Partitions(), sess.AverageSpent(), slices.Max(sess.Accountant().SpentVector()), sess.Tree().Nodes())
	}

	st := sess.Tree().Stats()
	is := ing.Stats()
	fmt.Printf("answered %d queries (%d refused after exhaustion)\n", answered, exhausted)
	fmt.Printf("tree activity: sv-passes=%d sv-failures=%d laplace-subqueries=%d node-updates=%d\n",
		st.SVPasses, st.SVFailures, st.LaplaceSubs, st.NodeUpdates)
	fmt.Printf("ingestion: batches=%d epochs=%d partitions=%d rows=%d warm-started-leaves=%d\n",
		is.Batches, is.Epochs, is.Partitions, is.Rows, is.WarmStarted)
	fmt.Printf("caching state: %.2f MB\n", float64(sess.MemoryBytes())/1e6)

	// Output:
	// CitiBike stream: start(10)xend(10)xgender(3)xage(4) N=1200, 12 weeks, pool of 1473 primitive queries
	// week  0: partitions= 1  avg-budget=0.3075  max-budget=0.3075  tree-nodes=1
	// week  1: partitions= 2  avg-budget=0.2222  max-budget=0.3426  tree-nodes=3
	// week  2: partitions= 3  avg-budget=0.2075  max-budget=0.3582  tree-nodes=4
	// week  3: partitions= 4  avg-budget=0.1870  max-budget=0.3614  tree-nodes=7
	// week  4: partitions= 5  avg-budget=0.1695  max-budget=0.3638  tree-nodes=8
	// week  5: partitions= 6  avg-budget=0.1604  max-budget=0.3658  tree-nodes=10
	// week  6: partitions= 7  avg-budget=0.1531  max-budget=0.3700  tree-nodes=11
	// week  7: partitions= 8  avg-budget=0.1545  max-budget=0.3717  tree-nodes=15
	// week  8: partitions= 9  avg-budget=0.1579  max-budget=0.3731  tree-nodes=16
	// week  9: partitions=10  avg-budget=0.1542  max-budget=0.3744  tree-nodes=18
	// week 10: partitions=11  avg-budget=0.1581  max-budget=0.3755  tree-nodes=19
	// week 11: partitions=12  avg-budget=0.1590  max-budget=0.3766  tree-nodes=22
	// answered 4800 queries (0 refused after exhaustion)
	// tree activity: sv-passes=4336 sv-failures=39 laplace-subqueries=237 node-updates=294
	// ingestion: batches=11 epochs=11 partitions=11 rows=1622423 warm-started-leaves=11
	// caching state: 0.40 MB
}
