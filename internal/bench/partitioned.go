// Partitioned-database experiments: the static Fig. 10 comparison, the
// §6.3 Q6 tree-vs-flat study, the streaming Fig. 11(a-c) comparison with
// warm-start, the Fig. 11(d) runtime breakdown, the §6.5 memory
// evaluation, and the Appendix C Laplace-Histogram crossover.

package bench

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/noise"
	"repro/internal/query"
	"repro/internal/tree"
	"repro/internal/workload"
)

// fig10 is the partitioned-static comparison — Turbo (tree) vs flat
// Exact-Cache vs Tree Exact-Cache, average per-partition budget — on the
// env mk builds, sampling Zipf(zipf) over uniform windows.
func fig10(mk envFn, name string, zipf float64) func(Scale) (Result, error) {
	return func(sc Scale) (Result, error) {
		env, err := mk(sc)
		if err != nil {
			return Result{}, err
		}
		queries, err := env.windowed(sc.PartitionedQueries, zipf)
		if err != nil {
			return Result{}, err
		}
		sess, err := env.session(core.Partitioned, tree.Binary, 61)
		if err != nil {
			return Result{}, err
		}
		arms := []arm{env.baselineArm("exact-cache", 62), env.baselineArm("tree-exact-cache", 63), sessionArm("turbo", sess)}
		series, err := drive(arms, len(queries), sc.Checkpoints, false, from(queries))
		return Result{
			Name:   name,
			XLabel: "queries",
			YLabel: "avg cumulative budget",
			Series: series,
			Notes:  []string{fmt.Sprintf("%d partitions, uniform windows, kzipf=%g", env.DS.Partitions(), zipf)},
		}, err
	}
}

// Q6TreeVsFlat compares the binary-tree histogram structure against one
// histogram per partition as the mean requested window grows (§6.3 Q6).
func Q6TreeVsFlat(sc Scale) (Result, error) {
	series := []Series{{Name: "tree"}, {Name: "flat"}}
	for i, frac := range []float64{0.1, 0.25, 0.5, 0.75, 0.95} {
		mean := frac * float64(sc.Weeks)
		for j, structure := range []tree.Structure{tree.Binary, tree.Flat} {
			env, err := NewCovidEnv(sc, 111) // fresh state per cell
			if err != nil {
				return Result{}, err
			}
			sess, err := env.session(core.Partitioned, structure, 70+uint64(i*2+j))
			if err != nil {
				return Result{}, err
			}
			z, err := workload.NewZipf(env.Pool, 1, env.Rng.Fork())
			if err != nil {
				return Result{}, err
			}
			wins := workload.NewWindows(env.Rng.Fork())
			next := func() *query.Query {
				return z.Sample().WithWindow(wins.GaussianSize(sc.Weeks, mean, 5))
			}
			spent, err := final(sessionArm("", sess), sc.PartitionedQueries, false, next)
			if err != nil {
				return Result{}, err
			}
			series[j].Points = append(series[j].Points, Point{X: mean, Y: spent})
		}
	}
	return Result{
		Name:   "q6-tree-vs-flat",
		XLabel: "mean window size (partitions)",
		YLabel: "final avg budget",
		Series: series,
		Notes:  []string{"expected: flat wins for small windows, tree wins for large ones"},
	}, nil
}

// fig11 is the streaming comparison — Turbo with and without warm-start
// vs the exact-cache baselines — with partitions of the env mk builds
// arriving over time and Zipf(zipf) queries over the latest-P windows.
func fig11(mk envFn, name string, zipf float64) func(Scale) (Result, error) {
	return func(sc Scale) (Result, error) {
		var arms []arm
		for i, mode := range []core.Mode{core.Partitioned, core.Streaming} {
			env, err := mk(sc)
			if err != nil {
				return Result{}, err
			}
			env = env.streaming()
			sess, err := env.session(mode, tree.Binary, 80+uint64(i))
			if err != nil {
				return Result{}, err
			}
			a := sessionArm([]string{"turbo-cold", "turbo-warm"}[i], sess)
			a.grow = func() {
				if _, err := sess.AppendPartitions(core.Arrival{Counts: env.next()}); err != nil {
					panic(fmt.Sprintf("bench: stream append: %v", err))
				}
			}
			arms = append(arms, a)
		}
		for _, kind := range []string{"exact-cache", "tree-exact-cache"} {
			env, err := mk(sc)
			if err != nil {
				return Result{}, err
			}
			arms = append(arms, env.streaming().baselineArm(kind, 90))
		}

		// Shared arrival process and query windows: queries arrive between
		// partition arrivals; each requests the latest P partitions.
		arrivalRng := noise.NewRng(777)
		wins := workload.NewWindows(arrivalRng.Fork())
		poolEnv, err := mk(sc)
		if err != nil {
			return Result{}, err
		}
		z, err := workload.NewZipf(poolEnv.Pool, zipf, arrivalRng.Fork())
		if err != nil {
			return Result{}, err
		}
		total := sc.PartitionedQueries
		arrivals := wins.PoissonArrivals(total, float64(total)/float64(sc.Weeks-1))
		qi, available := 0, 1
		next := func() *query.Query {
			for a := 0; a < arrivals[qi] && available < sc.Weeks; a++ {
				for _, s := range arms {
					s.grow()
				}
				available++
			}
			qi++
			return z.Sample().WithWindow(wins.LatestWindow(available))
		}
		series, err := drive(arms, total, sc.Checkpoints, false, next)
		return Result{
			Name:   name,
			XLabel: "queries",
			YLabel: "avg cumulative budget",
			Series: series,
			Notes:  []string{"streaming arrivals (Poisson), queries over latest-P windows"},
		}, err
	}
}

// namedEnv is one of the two datasets a per-dataset experiment covers.
type namedEnv struct {
	name string
	mk   envFn
}

// bothDatasets is Covid then CitiBike, each bound to its seed.
func bothDatasets(covidSeed, citibikeSeed uint64) []namedEnv {
	return []namedEnv{{"covid", covid(covidSeed)}, {"citibike", citibike(citibikeSeed)}}
}

// Fig11d measures the average runtime of each execution path (exact hit,
// R1, R2, R3) in the non-partitioned setting, for Covid and CitiBike.
func Fig11d(sc Scale) (Result, error) {
	var series []Series
	for _, d := range bothDatasets(115, 116) {
		env, err := d.mk(sc)
		if err != nil {
			return Result{}, err
		}
		sess, err := env.session(core.NonPartitioned, tree.Binary, 117)
		if err != nil {
			return Result{}, err
		}
		queries, err := env.sample(1, sc.Queries)
		if err != nil {
			return Result{}, err
		}
		totals := map[core.Source]time.Duration{}
		counts := map[core.Source]int{}
		timed := arm{answer: func(q *query.Query) error {
			t0 := time.Now()
			a, err := sess.Answer(q)
			if err == nil {
				totals[a.Source] += time.Since(t0)
				counts[a.Source]++
			}
			return err
		}}
		if _, err := drive([]arm{timed}, len(queries), 0, true, from(queries)); err != nil {
			return Result{}, err
		}
		s := Series{Name: d.name}
		for xi, src := range []core.Source{core.SourceExactHit, core.SourceR1, core.SourceR2, core.SourceR3} {
			if counts[src] == 0 {
				continue
			}
			avgMs := totals[src].Seconds() * 1000 / float64(counts[src])
			s.Points = append(s.Points, Point{X: float64(xi), Y: avgMs})
		}
		series = append(series, s)
	}
	return Result{
		Name:   "fig11d-runtime-per-path",
		XLabel: "path (0=exact-hit 1=R1 2=R2 3=R3)",
		YLabel: "avg runtime (ms)",
		Series: series,
		Notes:  []string{"expected: exact-hit cheapest; R2 (SV failure) costliest"},
	}, nil
}

// Memory reports the caching-state footprint of a partitioned Turbo
// session after the full workload, for Covid and CitiBike (§6.5).
func Memory(sc Scale) (Result, error) {
	s := Series{Name: "memory-bytes"}
	var notes []string
	for xi, d := range bothDatasets(118, 119) {
		env, err := d.mk(sc)
		if err != nil {
			return Result{}, err
		}
		sess, err := env.session(core.Partitioned, tree.Binary, 120)
		if err != nil {
			return Result{}, err
		}
		queries, err := env.windowed(sc.PartitionedQueries/2, 0)
		if err != nil {
			return Result{}, err
		}
		if _, err := drive([]arm{sessionArm("", sess)}, len(queries), 0, false, from(queries)); err != nil {
			return Result{}, err
		}
		s.Points = append(s.Points, Point{X: float64(xi), Y: float64(sess.MemoryBytes())})
		notes = append(notes, fmt.Sprintf("%s: %d tree nodes, domain %d, ≈2TN scalars bound = %d bytes",
			d.name, sess.Tree().Nodes(), env.DS.Domain().Size(), 2*env.DS.Partitions()*env.DS.Domain().Size()*16))
	}
	return Result{
		Name:   "mem-tree-footprint",
		XLabel: "dataset (0=covid 1=citibike)",
		YLabel: "caching state bytes",
		Series: []Series{s},
		Notes:  notes,
	}, nil
}

// AppendixC computes the Direct-Laplace vs Laplace-Histogram crossover
// analytically and verifies it on a simulated workload.
func AppendixC(sc Scale) (Result, error) {
	alpha, beta := 0.05, 0.001
	analytic := Series{Name: "analytic-crossover"}
	for xi, domainSize := range []int{128, 1200, 604800} {
		direct := noise.DirectLaplaceEpsilon(alpha, beta, 1000)
		hist := noise.LaplaceHistogramEpsilon(alpha, beta, 1000, domainSize)
		analytic.Points = append(analytic.Points, Point{X: float64(xi), Y: hist / direct})
	}

	// Simulation on the small Covid dataset: the histogram's one-shot
	// spend against what direct Laplace would have spent by query i —
	// Appendix C's calibration ln(1/β)/αn (cheaper than the system-wide 4×
	// rule, for a like-for-like comparison of the two appendix baselines)
	// on every partition, i·directEps on average.
	env, err := NewCovidEnv(sc, 121)
	if err != nil {
		return Result{}, err
	}
	queries, err := env.sample(0, 2000)
	if err != nil {
		return Result{}, err
	}
	directEps := noise.DirectLaplaceEpsilon(alpha, beta, env.DS.NRowsAll())
	lh := env.baselineArm("laplace-histogram", 2)
	run, answered, crossover := lh.answer, 0, -1
	lh.answer = func(q *query.Query) error {
		if err := run(q); err != nil {
			return err
		}
		answered++
		if float64(answered)*directEps > lh.y() {
			crossover = answered
			return errDone
		}
		return nil
	}
	if _, err := drive([]arm{lh}, len(queries), 0, true, from(queries)); err != nil {
		return Result{}, err
	}
	sim := Series{Name: "simulated-crossover-n128", Points: []Point{{X: 0, Y: float64(crossover)}}}

	expect := 2 * math.Sqrt(2*128/beta) / math.Log(1/beta)
	return Result{
		Name:   "appendix-c-crossover",
		XLabel: "domain (0=covid128 1=citibike-small 2=citibike-full)",
		YLabel: "queries for histogram to win",
		Series: []Series{analytic, sim},
		Notes: []string{
			fmt.Sprintf("paper: ≈146 for |X|=128 (our analytic: %.0f), >10069 for CitiBike", expect),
		},
	}, nil
}
