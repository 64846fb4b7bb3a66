// The miss-path microbenchmark (-exp=misspath): throughput and allocation
// cost of the three execution paths a query can take — exact-cache hit,
// exact-cache miss into the DP executor, and a full tree-session miss —
// at the covid domain size and a ladder of synthetically larger domains.
//
// The checked-in BENCH_misspath.json records are the perf trajectory. The
// engine's own before/after against the pre-engine per-partition walk is
// BenchmarkTrueFraction vs BenchmarkTrueFractionWalk in internal/dataset.
//
// The experiment doubles as the allocation regression gate CI runs: it
// FAILS (returns an error) if the exact-hit path allocates, so a
// regression that re-introduces per-hit garbage breaks the build, not
// just a dashboard. Race builds report the allocation series but skip
// its gates: the instrumentation itself allocates.

package bench

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/accountant"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/domain"
	"repro/internal/noise"
	"repro/internal/query"
)

// opsPerSec times iters sequential calls of f.
func opsPerSec(iters int, f func() error) (float64, error) {
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		if err := f(); err != nil {
			return 0, err
		}
	}
	elapsed := time.Since(t0).Seconds()
	if elapsed <= 0 {
		elapsed = 1e-9
	}
	return float64(iters) / elapsed, nil
}

// allocsPerOp reports the average heap allocations one call of f costs.
// The harness cannot use testing.AllocsPerRun outside a test binary, so it
// reproduces the same recipe: pin to one P, settle the heap, and diff
// runtime.MemStats mallocs around the loop.
func allocsPerOp(iters int, f func() error) (float64, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	// One warm-up call after the pin and the settle GC, mirroring
	// testing.AllocsPerRun: pool-backed paths re-home their scratch
	// (the GC moved it to the victim cache, and the GOMAXPROCS change
	// may have stranded it on another P), and that one-time allocation
	// is not a per-op cost.
	if err := f(); err != nil {
		return 0, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < iters; i++ {
		if err := f(); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(iters), nil
}

// synthDomain builds a domain of roughly the requested size from
// cardinality-8 attributes (plus one card-2 tail), covid-like in shape but
// scalable: 1024 = 8³·2, 8192 = 8⁴·2, 65536 = 8⁵·2.
func synthDomain(bins int) *domain.Domain {
	var attrs []domain.Attribute
	size := 1
	for size*8*2 <= bins {
		attrs = append(attrs, domain.Attribute{Name: fmt.Sprintf("a%d", len(attrs)), Card: 8})
		size *= 8
	}
	attrs = append(attrs, domain.Attribute{Name: "tail", Card: 2})
	return domain.MustNew(attrs...)
}

// synthPool draws n random conjunctive predicates over dom: each attribute
// is restricted (to a random proper value subset) with probability 1/2,
// and at least one always is.
func synthPool(dom *domain.Domain, n int, rng *noise.Rng) []*query.Query {
	pool := make([]*query.Query, n)
	for i := range pool {
		allowed := map[int][]int{}
		for a := 0; a < dom.NumAttrs(); a++ {
			if rng.IntN(2) == 1 {
				continue
			}
			card := dom.Card(a)
			k := 1 + rng.IntN(card)
			if k == card && card > 1 {
				k--
			}
			allowed[a] = rng.Perm(card)[:k]
		}
		if len(allowed) == 0 {
			a := rng.IntN(dom.NumAttrs())
			allowed[a] = []int{rng.IntN(dom.Card(a))}
		}
		pool[i] = query.MustNew(dom, allowed)
	}
	return pool
}

// missPathEnv is one ladder point: a loaded multi-partition dataset and a
// predicate pool over it.
type missPathEnv struct {
	ds   *dataset.Dataset
	pool []*query.Query
}

// newMissPathEnv loads every partition of a synthetic dataset with random
// counts.
func newMissPathEnv(dom *domain.Domain, parts int, rng *noise.Rng) (*missPathEnv, error) {
	ds := dataset.New(dom, parts)
	counts := make([]int, dom.Size())
	for p := 0; p < parts; p++ {
		for b := range counts {
			counts[b] = rng.IntN(10)
		}
		counts[rng.IntN(len(counts))]++ // never an empty partition
		if err := ds.BulkLoad(p, counts); err != nil {
			return nil, err
		}
	}
	return &missPathEnv{ds: ds, pool: synthPool(dom, 64, rng)}, nil
}

// MissPath is the execution-path microbenchmark. X is the domain size in
// bins; the series are per-path throughput (q/s) and allocs/op on the hit
// and executor-miss paths.
func MissPath(sc Scale) (Result, error) {
	rng := noise.NewRng(0x715e)
	covid, err := NewCovidEnv(sc, 121)
	if err != nil {
		return Result{}, err
	}
	// Each ladder point cycles a fixed 64-predicate pool: the steady
	// state being measured is a worked-in miss path (supports resolved
	// and memoized on the queries), not first-touch support resolution.
	covidPool := covid.Pool
	if len(covidPool) > 64 {
		covidPool = covidPool[:64]
	}
	ladder := []*missPathEnv{
		{ds: covid.DS, pool: covidPool}, // the paper's covid domain (128 bins)
	}
	for _, bins := range []int{1024, 8192, 65536} {
		env, err := newMissPathEnv(synthDomain(bins), sc.Weeks, rng.Fork())
		if err != nil {
			return Result{}, err
		}
		ladder = append(ladder, env)
	}

	ordered := []string{
		"hit-qps", "hit-allocs",
		"miss-vec-qps", "miss-vec-allocs",
		"treemiss-qps",
	}
	series := map[string]*Series{}
	for _, name := range ordered {
		series[name] = &Series{Name: name}
	}
	record := func(name string, x, y float64) {
		s := series[name]
		s.Points = append(s.Points, Point{X: x, Y: y})
	}

	for _, env := range ladder {
		size := float64(env.ds.Domain().Size())
		parts := env.ds.Partitions()

		// Executor-level exact miss: ExecuteDP with no prior true result,
		// over the full window, cycling the predicate pool.
		exec := dataset.NewExecutor(env.ds, rng.Fork())
		iters := 2_000_000 / env.ds.Domain().Size()
		if iters < 50 {
			iters = 50
		}
		i := 0
		missOp := func() error {
			q := env.pool[i%len(env.pool)]
			i++
			_, err := exec.ExecuteDP(q, 0, parts-1, 0.1, math.NaN())
			return err
		}
		for w := 0; w < len(env.pool); w++ { // resolve the pool's supports
			if err := missOp(); err != nil {
				return Result{}, err
			}
		}
		vecQPS, err := opsPerSec(iters, missOp)
		if err != nil {
			return Result{}, err
		}
		vecAllocs, err := allocsPerOp(iters, missOp)
		if err != nil {
			return Result{}, err
		}
		record("miss-vec-qps", size, vecQPS)
		record("miss-vec-allocs", size, vecAllocs)

		// Session-level paths. A generous global budget keeps the tree-miss
		// measurement from exhausting mid-loop.
		sess, err := core.NewSession(core.Config{
			Mode:  core.Partitioned,
			Alpha: 0.05, Beta: 0.001, EpsilonGlobal: 1000,
			Tau:  0.05,
			Seed: 122,
		}, env.ds)
		if err != nil {
			return Result{}, err
		}

		// Exact hit: one paid fill, then the steady-state probe. This is
		// the allocation gate: any per-hit garbage fails the experiment.
		hitQ := env.pool[0].WithWindow(0, parts-1)
		if _, err := sess.Answer(hitQ); err != nil {
			return Result{}, err
		}
		hitOp := func() error {
			_, err := sess.Answer(hitQ)
			return err
		}
		hitQPS, err := opsPerSec(50_000, hitOp)
		if err != nil {
			return Result{}, err
		}
		hitAllocs, err := allocsPerOp(10_000, hitOp)
		if err != nil {
			return Result{}, err
		}
		if hitAllocs > 0 && !raceEnabled {
			return Result{}, fmt.Errorf(
				"bench: exact-hit path allocates %.2f/op at %d bins (regression: must be 0)",
				hitAllocs, int(size))
		}
		record("hit-qps", size, hitQPS)
		record("hit-allocs", size, hitAllocs)

		// Tree miss: distinct (predicate, window) pairs so every answer
		// runs the full tree machinery. Throughput over completed misses;
		// budget exhaustion just ends the loop early. The workload fits in
		// tens of milliseconds, so a single pass is scheduler-noise bound:
		// the recorded figure is the best of three passes, each on a fresh
		// session (cold caches and trees) with the GC pinned off, the same
		// isolation the allocation probes use.
		tmQPS := 0.0
		for pass := 0; pass < 3; pass++ {
			tmSess, err := core.NewSession(core.Config{
				Mode:  core.Partitioned,
				Alpha: 0.05, Beta: 0.001, EpsilonGlobal: 1000,
				Tau:  0.05,
				Seed: 122,
			}, env.ds)
			if err != nil {
				return Result{}, err
			}
			runtime.GC()
			gcPct := debug.SetGCPercent(-1)
			done, t0 := 0, time.Now()
			for w := 0; w < 6 && done < 300; w++ {
				for _, q := range env.pool {
					wq := q.WithWindow(w%parts, parts-1)
					if _, err := tmSess.Answer(wq); err != nil {
						if errors.Is(err, accountant.ErrBudgetExhausted) {
							break
						}
						debug.SetGCPercent(gcPct)
						return Result{}, err
					}
					done++
				}
			}
			elapsed := time.Since(t0).Seconds()
			debug.SetGCPercent(gcPct)
			if done == 0 {
				return Result{}, errors.New("bench: no tree misses completed")
			}
			if qps := float64(done) / elapsed; qps > tmQPS {
				tmQPS = qps
			}
		}
		record("treemiss-qps", size, tmQPS)
		if base, ok := sc.TreeMissBaseline[size]; ok && base > 0 && tmQPS < 10*base {
			return Result{}, fmt.Errorf(
				"bench: tree-miss throughput %.1f q/s at %d bins is below the 10x gate vs baseline %.1f q/s (need >= %.1f)",
				tmQPS, int(size), base, 10*base)
		}
	}

	out := make([]Series, 0, len(ordered))
	for _, n := range ordered {
		out = append(out, *series[n])
	}
	return Result{
		Name:   "misspath-execution-paths",
		XLabel: "domain size (bins)",
		YLabel: "q/s (qps series), allocs/op (allocs series)",
		Series: out,
		Notes: []string{
			fmt.Sprintf("window: all %d partitions; miss = ExecuteDP with no cached true result", sc.Weeks),
			"gate: the experiment errors if the exact-hit path allocates (not in race builds, whose instrumentation allocates)",
			"gate: with -baseline, the experiment errors if treemiss-qps is below 10x the committed baseline at any domain size",
		},
	}, nil
}
