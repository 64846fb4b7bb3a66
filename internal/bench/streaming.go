// Streaming ingestion experiment: partition arrivals interleaved with
// analyst queries at configurable ratios, driving the internal/stream
// pipeline (batched async AppendPartition epochs + eager warm-start)
// against the sharded query path. Reported per rung: sustained answer
// throughput, mean answer latency, and ingestion throughput — the
// arrivals-vs-queries stress surface the paper's streaming use case (§4.5)
// puts in production.

package bench

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/accountant"
	"repro/internal/core"
	"repro/internal/stream"
	"repro/internal/tree"
	"repro/internal/workload"
)

// DefaultArrivalRatios is the queries-per-arrival ladder the streaming
// experiment sweeps when the Scale does not override it (turbo-bench
// -arrivals): from sparse arrivals to an ingestion-heavy regime.
var DefaultArrivalRatios = []int{400, 100, 25}

// streamingWorkers is the analyst goroutine count per rung.
const streamingWorkers = 4

// Streaming measures the arrivals-vs-queries interleaving: each rung runs
// the full query workload with one partition arrival per R answered
// queries, submitted through the streaming ingestor while analysts keep
// querying the latest windows.
func Streaming(sc Scale) (Result, error) {
	ratios := sc.ArrivalRatios
	if len(ratios) == 0 {
		ratios = DefaultArrivalRatios
	}

	var qps, latency, ingest Series
	qps.Name, latency.Name, ingest.Name = "answers-per-sec", "mean-latency-us", "ingest-parts-per-sec"
	var notes []string
	for _, ratio := range ratios {
		if ratio <= 0 {
			return Result{}, fmt.Errorf("bench: bad arrival ratio %d", ratio)
		}
		m, err := streamingRun(sc, ratio)
		if err != nil {
			return Result{}, err
		}
		x := float64(ratio)
		qps.Points = append(qps.Points, Point{X: x, Y: m.qps})
		latency.Points = append(latency.Points, Point{X: x, Y: m.latencyUS})
		ingest.Points = append(ingest.Points, Point{X: x, Y: m.ingestPPS})
		notes = append(notes, fmt.Sprintf(
			"ratio=%d: %d answers (%d refused), %d partitions in %d epochs, %d warm leaves, %d flight-deduped",
			ratio, m.answered, m.refused, m.partitions, m.epochs, m.warmed, m.deduped))
	}

	return Result{
		Name:   "streaming",
		XLabel: "queries-per-arrival",
		YLabel: "throughput / latency",
		Series: []Series{qps, latency, ingest},
		Notes: append([]string{
			fmt.Sprintf("%d analyst goroutines, %d queries per rung, latest-window traffic, GOMAXPROCS=%d",
				streamingWorkers, sc.PartitionedQueries, runtime.GOMAXPROCS(0)),
			"arrivals flow through internal/stream: batched epochs, accountants before dataset, eager warm-start",
		}, notes...),
	}, nil
}

// streamingMetrics is one rung's outcome.
type streamingMetrics struct {
	qps, latencyUS, ingestPPS  float64
	answered, refused          int
	partitions, epochs, warmed int64
	deduped                    int
}

// streamingRun drives one ratio rung on a fresh streaming session.
func streamingRun(sc Scale, ratio int) (streamingMetrics, error) {
	env, err := NewCovidEnv(sc, 131)
	if err != nil {
		return streamingMetrics{}, err
	}
	env.streaming()
	sess, err := core.NewSession(core.Config{
		Mode:  core.Streaming,
		Alpha: env.Alpha, Beta: env.Beta, EpsilonGlobal: 50,
		Tau:            env.Tau,
		Structure:      tree.Binary,
		NodeExactCache: true,
		Seed:           131,
		Shards:         runtime.NumCPU(),
	}, env.DS)
	if err != nil {
		return streamingMetrics{}, err
	}
	ing, err := stream.NewIngestor(sess)
	if err != nil {
		return streamingMetrics{}, err
	}
	defer ing.Close()

	total := sc.PartitionedQueries
	var (
		answered, refused atomic.Int64
		latencyNS         atomic.Int64
		analysts, feeder  sync.WaitGroup
		errOnce           sync.Mutex
		firstErr          error
	)
	fail := func(err error) {
		errOnce.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errOnce.Unlock()
	}
	done := make(chan struct{})

	// Feeder: submit week w once the analysts have served w*ratio
	// queries, until the history is exhausted or the workload ends.
	feeder.Add(1)
	go func() {
		defer feeder.Done()
		next := 1 // week 0 is pre-loaded
		for next < sc.Weeks {
			select {
			case <-done:
				return
			default:
			}
			target := int(answered.Load()+refused.Load()) / ratio
			for next <= target && next < sc.Weeks {
				if _, _, err := ing.Append(stream.Arrival{Counts: env.week(next)}); err != nil {
					fail(fmt.Errorf("bench: arrival %d: %w", next, err))
					return
				}
				next++
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()

	start := time.Now()
	per := total / streamingWorkers
	for g := 0; g < streamingWorkers; g++ {
		analysts.Add(1)
		go func(g int) {
			defer analysts.Done()
			z, err := workload.NewZipf(env.Pool, 1, env.Rng.Fork())
			if err != nil {
				fail(err)
				return
			}
			wins := workload.NewWindows(env.Rng.Fork())
			for i := 0; i < per; i++ {
				s, e := wins.LatestWindow(sess.Dataset().Partitions())
				q := z.Sample().WithWindow(s, e)
				t0 := time.Now()
				_, err := sess.Answer(q)
				latencyNS.Add(time.Since(t0).Nanoseconds())
				switch {
				case errors.Is(err, accountant.ErrBudgetExhausted):
					refused.Add(1)
				case err != nil:
					fail(fmt.Errorf("bench: worker %d: %w", g, err))
					return
				default:
					answered.Add(1)
				}
			}
		}(g)
	}
	analysts.Wait()
	close(done)
	feeder.Wait()
	elapsed := time.Since(start)

	if firstErr != nil {
		return streamingMetrics{}, firstErr
	}
	st := ing.Stats()
	n := int(answered.Load())
	m := streamingMetrics{
		qps:        float64(n) / elapsed.Seconds(),
		ingestPPS:  float64(st.Partitions) / elapsed.Seconds(),
		answered:   n,
		refused:    int(refused.Load()),
		partitions: st.Partitions,
		epochs:     st.Epochs,
		warmed:     st.WarmStarted,
		deduped:    sess.Deduped(),
	}
	if served := n + m.refused; served > 0 {
		m.latencyUS = float64(latencyNS.Load()) / float64(served) / 1e3
	}
	return m, nil
}
