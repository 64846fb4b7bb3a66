// Concurrency experiment: read-path throughput of the sharded query
// pipeline as analyst goroutines scale, against the seed's architecture —
// one global mutex around the whole session (the exact serialization the
// pre-pipeline server used). Both systems run the same warmed, partitioned
// session shape, so the measured gap is the locking architecture, not the
// cache contents.

package bench

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/tree"
)

// DefaultWorkers is the goroutine ladder the scaling experiment climbs
// when the Scale does not override it (turbo-bench -parallel).
var DefaultWorkers = []int{1, 2, 4, 8}

// scalingQueries bounds the measured work per ladder rung.
const scalingQueries = 60000

// scalingReps re-measures each rung and keeps the best run, damping
// scheduler noise (the experiment often shares its host).
const scalingReps = 3

// distinctScalingQueries is the size of the repeated query set; repeats
// land in the exact caches, which is the steady state the paper's runtime
// evaluation (Fig. 11d) shows dominating skewed workloads.
const distinctScalingQueries = 192

// Scaling measures queries/second over goroutine counts for the sharded
// pipeline and for a globally-locked session, reporting both curves plus
// the sharded-over-global speedup.
func Scaling(sc Scale) (Result, error) {
	workers := sc.Workers
	if len(workers) == 0 {
		workers = DefaultWorkers
	}
	env, err := NewCovidEnv(sc, 31)
	if err != nil {
		return Result{}, err
	}
	queries, err := env.windowed(distinctScalingQueries, 1)
	if err != nil {
		return Result{}, err
	}

	maxShards := runtime.NumCPU()
	for _, w := range workers {
		if w > maxShards {
			maxShards = w
		}
	}
	sharded, err := scalingSession(env, maxShards)
	if err != nil {
		return Result{}, err
	}
	locked, err := scalingSession(env, 1)
	if err != nil {
		return Result{}, err
	}
	// The global-mutex baseline reproduces the seed server: one lock
	// around every Answer call.
	var gmu sync.Mutex
	globalAnswer := func(q *query.Query) error {
		gmu.Lock()
		defer gmu.Unlock()
		_, err := locked.Answer(q)
		return err
	}
	shardedAnswer := func(q *query.Query) error {
		_, err := sharded.Answer(q)
		return err
	}

	// Warm both sessions serially so the measured phase is the steady
	// state: exact hits plus occasional histogram work.
	for _, q := range queries {
		if err := shardedAnswer(q); err != nil {
			return Result{}, fmt.Errorf("warm sharded: %w", err)
		}
		if err := globalAnswer(q); err != nil {
			return Result{}, fmt.Errorf("warm global: %w", err)
		}
	}

	var shardedQPS, globalQPS, speedup Series
	shardedQPS.Name, globalQPS.Name, speedup.Name = "sharded-qps", "global-mutex-qps", "speedup-x"
	for _, w := range workers {
		sq, err := bestThroughput(shardedAnswer, queries, w)
		if err != nil {
			return Result{}, err
		}
		gq, err := bestThroughput(globalAnswer, queries, w)
		if err != nil {
			return Result{}, err
		}
		x := float64(w)
		shardedQPS.Points = append(shardedQPS.Points, Point{X: x, Y: sq})
		globalQPS.Points = append(globalQPS.Points, Point{X: x, Y: gq})
		speedup.Points = append(speedup.Points, Point{X: x, Y: sq / gq})
	}

	return Result{
		Name:   "scaling",
		XLabel: "goroutines",
		YLabel: "queries/sec",
		Series: []Series{shardedQPS, globalQPS, speedup},
		Notes: []string{
			fmt.Sprintf("%d-partition Covid, %d distinct windowed queries, %d measured per rung",
				env.DS.Partitions(), distinctScalingQueries, scalingQueries),
			fmt.Sprintf("sharded session: %d shards; baseline: one mutex around the session (seed architecture)", maxShards),
			fmt.Sprintf("GOMAXPROCS=%d", runtime.GOMAXPROCS(0)),
		},
	}, nil
}

// scalingSession builds the partitioned session the scaling study drives.
func scalingSession(env *Env, shards int) (*core.Session, error) {
	return core.NewSession(core.Config{
		Mode:  core.Partitioned,
		Alpha: env.Alpha, Beta: env.Beta, EpsilonGlobal: 50,
		Tau:            env.Tau,
		Structure:      tree.Binary,
		NodeExactCache: true,
		Seed:           71,
		Shards:         shards,
	}, env.DS)
}

// bestThroughput measures a rung scalingReps times and keeps the best.
func bestThroughput(answer func(*query.Query) error, pool []*query.Query, w int) (float64, error) {
	best := 0.0
	for r := 0; r < scalingReps; r++ {
		q, err := throughput(answer, pool, w, scalingQueries)
		if err != nil {
			return 0, err
		}
		if q > best {
			best = q
		}
	}
	return best, nil
}

// throughput fires total queries from the pool across w goroutines and
// returns queries per second.
func throughput(answer func(*query.Query) error, pool []*query.Query, w, total int) (float64, error) {
	per := total / w
	var wg sync.WaitGroup
	errs := make(chan error, w)
	start := time.Now()
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := answer(pool[(g*per+i)%len(pool)]); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	if err := <-errs; err != nil {
		return 0, err
	}
	return float64(per*w) / elapsed.Seconds(), nil
}
