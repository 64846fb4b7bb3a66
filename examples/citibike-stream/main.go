// Streaming timeseries example: a CitiBike-style rental stream partitioned
// by week, with new weeks arriving over time. Analysts continuously query
// recent windows; Turbo's tree-structured PMW-Bypass exploits parallel
// composition, and warm-starting lets each new week's histograms begin
// from the previous week's learning (§4.5, use case 3).
//
// Arrivals flow through the streaming ingestion pipeline
// (internal/stream): each week is submitted as a batched arrival, applied
// as an ordered epoch (accountants → dataset → data), and its tree leaf is
// warm-started eagerly at ingestion time rather than on the first query.
//
//	go run ./examples/citibike-stream [-weeks 12]
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"

	"repro/internal/accountant"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/heuristic"
	"repro/internal/noise"
	"repro/internal/pmw"
	"repro/internal/stream"
	"repro/internal/workload"
)

func main() {
	weeks := flag.Int("weeks", 12, "stream length in weekly partitions")
	perWeek := flag.Int("queries-per-week", 400, "analyst queries between arrivals")
	flag.Parse()

	// Generate the full history up front, then replay it week by week.
	full, err := workload.BuildCitiBike(workload.CitiBikeConfig{
		Rows: 2_000_000, Weeks: *weeks, Small: true, Seed: 8,
	})
	if err != nil {
		log.Fatal(err)
	}
	pool := workload.CitiBikePool(full.Domain())
	fmt.Printf("CitiBike stream: %s, %d weeks, pool of %d primitive queries\n\n",
		full.Domain(), *weeks, len(pool))

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
	defer ing.Close()

	z, err := workload.NewZipf(pool, 0, noise.NewRng(11))
	if err != nil {
		log.Fatal(err)
	}
	wins := workload.NewWindows(noise.NewRng(12))

	answered, exhausted := 0, 0
	for w := 0; w < *weeks; w++ {
		if w > 0 {
			if _, _, err := ing.Append(stream.Arrival{Counts: full.PartitionCounts(w)}); err != nil {
				log.Fatal(err)
			}
		}
		for i := 0; i < *perWeek; i++ {
			s, e := wins.LatestWindow(sess.Dataset().Partitions())
			q := z.Sample().WithWindow(s, e)
			if _, err := sess.Answer(q); err != nil {
				if errors.Is(err, accountant.ErrBudgetExhausted) {
					exhausted++
					continue
				}
				log.Fatal(err)
			}
			answered++
		}
		fmt.Printf("week %2d: partitions=%2d  avg-budget=%.4f  max-budget=%.4f  tree-nodes=%d\n",
			w, sess.Dataset().Partitions(), sess.AverageSpent(), sess.MaxSpent(), sess.Tree().Nodes())
	}

	st := sess.Tree().Stats()
	is := ing.Stats()
	fmt.Printf("\nanswered %d queries (%d refused after exhaustion)\n", answered, exhausted)
	fmt.Printf("tree activity: sv-passes=%d sv-failures=%d laplace-subqueries=%d node-updates=%d\n",
		st.SVPasses, st.SVFailures, st.LaplaceSubs, st.NodeUpdates)
	fmt.Printf("ingestion: batches=%d epochs=%d partitions=%d rows=%d warm-started-leaves=%d\n",
		is.Batches, is.Epochs, is.Partitions, is.Rows, is.WarmStarted)
	fmt.Printf("caching state: %.2f MB\n", float64(sess.MemoryBytes())/1e6)
}
