// Partitioned-database experiments: the static Fig. 10 comparison, the
// §6.3 Q6 tree-vs-flat study, the streaming Fig. 11(a-c) comparison with
// warm-start, the Fig. 11(d) runtime breakdown, the §6.5 memory
// evaluation, and the Appendix C Laplace-Histogram crossover.

package bench

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/accountant"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/heuristic"
	"repro/internal/noise"
	"repro/internal/pmw"
	"repro/internal/query"
	"repro/internal/tree"
	"repro/internal/workload"
)

// partitionedSession builds a Turbo session in the given partitioned mode
// with the dataset's §6.3 heuristic settings (Covid (50,1), CitiBike
// (1,1)).
func partitionedSession(env *Env, mode core.Mode, structure tree.Structure, seed uint64) (*core.Session, error) {
	c0, s0 := env.PC0, env.PS0
	return core.NewSession(core.Config{
		Mode:  mode,
		Alpha: env.Alpha, Beta: env.Beta, EpsilonGlobal: env.EpsG,
		Tau: env.Tau,
		LR:  func() pmw.Schedule { return env.lr() },
		Heuristic: func() heuristic.Heuristic {
			return heuristic.NewAdaptivePerBin(c0, s0)
		},
		Structure:      structure,
		NodeExactCache: true,
		Seed:           seed,
	}, env.DS)
}

// windowed samples queries from the pool and attaches uniform contiguous
// windows (Fig. 10 methodology).
func windowed(env *Env, n int, zipf float64) ([]*query.Query, error) {
	z, err := workload.NewZipf(env.Pool, zipf, env.Rng.Fork())
	if err != nil {
		return nil, err
	}
	wins := workload.NewWindows(env.Rng.Fork())
	out := make([]*query.Query, n)
	parts := env.DS.Partitions()
	for i := range out {
		s, e := wins.UniformContiguous(parts)
		out[i] = z.Sample().WithWindow(s, e)
	}
	return out, nil
}

// fig10 runs the partitioned-static comparison: Turbo (tree) vs flat
// Exact-Cache vs Tree Exact-Cache, reporting average per-partition budget.
func fig10(env *Env, sc Scale, name string, zipf float64) (Result, error) {
	queries, err := windowed(env, sc.PartitionedQueries, zipf)
	if err != nil {
		return Result{}, err
	}
	sess, err := partitionedSession(env, core.Partitioned, tree.Binary, 61)
	if err != nil {
		return Result{}, err
	}
	ecBlock := accountant.NewBlock(env.EpsG, env.DS.Partitions())
	ec := baseline.NewExactCache(env.Alpha, env.Beta,
		dataset.NewExecutor(env.DS, noise.NewRng(62)), ecBlock, nil)
	tcBlock := accountant.NewBlock(env.EpsG, env.DS.Partitions())
	tc := baseline.NewTreeExactCache(env.Alpha, env.Beta,
		dataset.NewExecutor(env.DS, noise.NewRng(63)), tcBlock, nil)

	systems := []sut{
		{"exact-cache", func(q *query.Query) error { _, err := ec.Run(q); return err }, ecBlock.AverageSpent},
		{"tree-exact-cache", func(q *query.Query) error { _, err := tc.Run(q); return err }, tcBlock.AverageSpent},
		{"turbo", func(q *query.Query) error { _, err := sess.Answer(q); return err }, sess.AverageSpent},
	}
	return Result{
		Name:   name,
		XLabel: "queries",
		YLabel: "avg cumulative budget",
		Series: runCumulative(systems, queries, sc.Checkpoints),
		Notes:  []string{fmt.Sprintf("%d partitions, uniform windows, kzipf=%g", env.DS.Partitions(), zipf)},
	}, nil
}

// Fig10a is the partitioned-static comparison on Covid, uniform sampling.
func Fig10a(sc Scale) (Result, error) {
	env, err := NewCovidEnv(sc, 108)
	if err != nil {
		return Result{}, err
	}
	return fig10(env, sc, "fig10a-covid-k0", 0)
}

// Fig10b is the partitioned-static comparison on Covid, Zipf(1).
func Fig10b(sc Scale) (Result, error) {
	env, err := NewCovidEnv(sc, 109)
	if err != nil {
		return Result{}, err
	}
	return fig10(env, sc, "fig10b-covid-k1", 1)
}

// Fig10c is the partitioned-static comparison on CitiBike.
func Fig10c(sc Scale) (Result, error) {
	env, err := NewCitiBikeEnv(sc, 110, true)
	if err != nil {
		return Result{}, err
	}
	return fig10(env, sc, "fig10c-citibike-k0", 0)
}

// Q6TreeVsFlat compares the binary-tree histogram structure against one
// histogram per partition as the mean requested window grows (§6.3 Q6).
func Q6TreeVsFlat(sc Scale) (Result, error) {
	env, err := NewCovidEnv(sc, 111)
	if err != nil {
		return Result{}, err
	}
	parts := env.DS.Partitions()
	meanFracs := []float64{0.1, 0.25, 0.5, 0.75, 0.95}
	treeSeries := Series{Name: "tree"}
	flatSeries := Series{Name: "flat"}
	for i, frac := range meanFracs {
		mean := frac * float64(parts)
		for j, structure := range []tree.Structure{tree.Binary, tree.Flat} {
			envI, err := NewCovidEnv(sc, 111) // fresh state per cell
			if err != nil {
				return Result{}, err
			}
			sess, err := partitionedSession(envI, core.Partitioned, structure, 70+uint64(i*2+j))
			if err != nil {
				return Result{}, err
			}
			z, err := workload.NewZipf(envI.Pool, 1, envI.Rng.Fork())
			if err != nil {
				return Result{}, err
			}
			wins := workload.NewWindows(envI.Rng.Fork())
			for k := 0; k < sc.PartitionedQueries; k++ {
				s, e := wins.GaussianSize(parts, mean, 5)
				if _, err := sess.Answer(z.Sample().WithWindow(s, e)); err != nil &&
					!errors.Is(err, accountant.ErrBudgetExhausted) {
					return Result{}, err
				}
			}
			p := Point{X: mean, Y: sess.AverageSpent()}
			if structure == tree.Binary {
				treeSeries.Points = append(treeSeries.Points, p)
			} else {
				flatSeries.Points = append(flatSeries.Points, p)
			}
		}
	}
	return Result{
		Name:   "q6-tree-vs-flat",
		XLabel: "mean window size (partitions)",
		YLabel: "final avg budget",
		Series: []Series{treeSeries, flatSeries},
		Notes:  []string{"expected: flat wins for small windows, tree wins for large ones"},
	}, nil
}

// streamEnv rebuilds a dataset that starts with one partition and yields
// the remaining ones for streaming arrival, replaying the same synthetic
// data week by week.
type streamEnv struct {
	*Env
	full *dataset.Dataset // the complete data to replay
}

// feed copies week w of the full dataset into partition w of the live one.
func (s *streamEnv) feed(w int) {
	dom := s.DS.Domain()
	counts := make([]int, dom.Size())
	for bin := 0; bin < dom.Size(); bin++ {
		counts[bin] = int(s.full.Partition(w).Count(bin))
	}
	_ = s.DS.BulkLoad(w, counts)
}

// fig11 runs the streaming comparison: Turbo with and without warm-start
// vs the exact-cache baselines, with partitions arriving over time and
// queries over the latest-P windows.
func fig11(mkEnv func() (*Env, error), sc Scale, name string) (Result, error) {
	type system struct {
		name  string
		run   func(q *query.Query) error
		spent func() float64
		grow  func()
	}
	var systems []system

	mkTurbo := func(warm bool, seed uint64) (*system, error) {
		env, err := mkEnv()
		if err != nil {
			return nil, err
		}
		streamed, err := newStreamingPair(env)
		if err != nil {
			return nil, err
		}
		mode := core.Partitioned
		if warm {
			mode = core.Streaming
		}
		sess, err := partitionedSession(streamed.Env, mode, tree.Binary, seed)
		if err != nil {
			return nil, err
		}
		name := "turbo-cold"
		if warm {
			name = "turbo-warm"
		}
		return &system{
			name:  name,
			run:   func(q *query.Query) error { _, err := sess.Answer(q); return err },
			spent: sess.AverageSpent,
			grow: func() {
				w, err := sess.AppendPartition()
				if err != nil {
					panic(fmt.Sprintf("bench: stream append: %v", err))
				}
				streamed.feed(w)
			},
		}, nil
	}
	for _, warm := range []bool{false, true} {
		s, err := mkTurbo(warm, 80+boolTo(warm))
		if err != nil {
			return Result{}, err
		}
		systems = append(systems, *s)
	}
	for _, kind := range []string{"exact-cache", "tree-exact-cache"} {
		env, err := mkEnv()
		if err != nil {
			return Result{}, err
		}
		streamed, err := newStreamingPair(env)
		if err != nil {
			return Result{}, err
		}
		block := accountant.NewBlock(env.EpsG, streamed.DS.Partitions())
		exec := dataset.NewExecutor(streamed.DS, noise.NewRng(90))
		var bl baseline.System
		if kind == "exact-cache" {
			bl = baseline.NewExactCache(env.Alpha, env.Beta, exec, block, nil)
		} else {
			bl = baseline.NewTreeExactCache(env.Alpha, env.Beta, exec, block, nil)
		}
		ds := streamed.DS
		fe := streamed.feed
		systems = append(systems, system{
			name:  kind,
			run:   func(q *query.Query) error { _, err := bl.Run(q); return err },
			spent: block.AverageSpent,
			grow: func() {
				// Accountant before dataset, like Session.AppendPartitions:
				// a racing query must never name a partition whose budget
				// does not exist yet.
				block.AddPartition()
				w := ds.AppendPartition()
				fe(w)
			},
		})
	}

	// Shared arrival process and query windows: queries arrive between
	// partition arrivals; each requests the latest P partitions.
	arrivalRng := noise.NewRng(777)
	wins := workload.NewWindows(arrivalRng.Fork())
	poolEnv, err := mkEnv()
	if err != nil {
		return Result{}, err
	}
	z, err := workload.NewZipf(poolEnv.Pool, 0, arrivalRng.Fork())
	if err != nil {
		return Result{}, err
	}
	total := sc.PartitionedQueries
	queriesPerWeek := float64(total) / float64(sc.Weeks-1)
	arrivals := wins.PoissonArrivals(total, queriesPerWeek)

	series := make([]Series, len(systems))
	for i := range systems {
		series[i].Name = systems[i].name
	}
	available := 1
	every := total / sc.Checkpoints
	if every == 0 {
		every = 1
	}
	for qi := 0; qi < total; qi++ {
		for a := 0; a < arrivals[qi] && available < sc.Weeks; a++ {
			for i := range systems {
				systems[i].grow()
			}
			available++
		}
		s, e := wins.LatestWindow(available)
		q := z.Sample().WithWindow(s, e)
		for i := range systems {
			if err := systems[i].run(q); err != nil && !errors.Is(err, accountant.ErrBudgetExhausted) {
				return Result{}, err
			}
			if (qi+1)%every == 0 || qi == total-1 {
				series[i].Points = append(series[i].Points, Point{X: float64(qi + 1), Y: systems[i].spent()})
			}
		}
	}
	return Result{
		Name:   name,
		XLabel: "queries",
		YLabel: "avg cumulative budget",
		Series: series,
		Notes:  []string{"streaming arrivals (Poisson), queries over latest-P windows"},
	}, nil
}

func boolTo(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// newStreamingPair converts an env built with all weeks present into a
// live dataset holding only week 0, plus the full data for replay.
func newStreamingPair(env *Env) (*streamEnv, error) {
	full := env.DS
	live := dataset.New(full.Domain(), 1)
	se := &streamEnv{Env: env, full: full}
	env.DS = live
	se.feed(0)
	return se, nil
}

// Fig11a is the streaming comparison on Covid, uniform sampling.
func Fig11a(sc Scale) (Result, error) {
	return fig11(func() (*Env, error) { return NewCovidEnv(sc, 112) }, sc, "fig11a-covid-k0")
}

// Fig11b is the streaming comparison on Covid, Zipf(1) sampling of the
// pool order (the window process keeps queries mostly recent).
func Fig11b(sc Scale) (Result, error) {
	return fig11(func() (*Env, error) { return NewCovidEnv(sc, 113) }, sc, "fig11b-covid-k1")
}

// Fig11c is the streaming comparison on CitiBike.
func Fig11c(sc Scale) (Result, error) {
	return fig11(func() (*Env, error) { return NewCitiBikeEnv(sc, 114, true) }, sc, "fig11c-citibike-k0")
}

// Fig11d measures the average runtime of each execution path (exact hit,
// R1, R2, R3) in the non-partitioned setting, for Covid and CitiBike.
func Fig11d(sc Scale) (Result, error) {
	datasets := []struct {
		name string
		mk   func() (*Env, error)
	}{
		{"covid", func() (*Env, error) { return NewCovidEnv(sc, 115) }},
		{"citibike", func() (*Env, error) { return NewCitiBikeEnv(sc, 116, true) }},
	}
	var series []Series
	for _, d := range datasets {
		env, err := d.mk()
		if err != nil {
			return Result{}, err
		}
		sess, err := core.NewSession(core.Config{
			Mode:  core.NonPartitioned,
			Alpha: env.Alpha, Beta: env.Beta, EpsilonGlobal: env.EpsG,
			Tau: env.Tau,
			LR:  func() pmw.Schedule { return env.lr() },
			Heuristic: func() heuristic.Heuristic {
				return heuristic.NewAdaptivePerBin(env.C0, env.S0)
			},
			Seed: 117,
		}, env.DS)
		if err != nil {
			return Result{}, err
		}
		z, err := workload.NewZipf(env.Pool, 1, env.Rng.Fork())
		if err != nil {
			return Result{}, err
		}
		totals := map[core.Source]time.Duration{}
		counts := map[core.Source]int{}
		for i := 0; i < sc.Queries; i++ {
			q := z.Sample()
			t0 := time.Now()
			a, err := sess.Answer(q)
			if err != nil {
				if errors.Is(err, accountant.ErrBudgetExhausted) {
					break
				}
				return Result{}, err
			}
			totals[a.Source] += time.Since(t0)
			counts[a.Source]++
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

// Memory reports the caching-state footprint of a streaming Turbo session
// after the full workload, for Covid and CitiBike (§6.5).
func Memory(sc Scale) (Result, error) {
	datasets := []struct {
		name string
		mk   func() (*Env, error)
	}{
		{"covid", func() (*Env, error) { return NewCovidEnv(sc, 118) }},
		{"citibike", func() (*Env, error) { return NewCitiBikeEnv(sc, 119, true) }},
	}
	s := Series{Name: "memory-bytes"}
	var notes []string
	for xi, d := range datasets {
		env, err := d.mk()
		if err != nil {
			return Result{}, err
		}
		sess, err := partitionedSession(env, core.Partitioned, tree.Binary, 120)
		if err != nil {
			return Result{}, err
		}
		queries, err := windowed(env, sc.PartitionedQueries/2, 0)
		if err != nil {
			return Result{}, err
		}
		for _, q := range queries {
			if _, err := sess.Answer(q); err != nil && !errors.Is(err, accountant.ErrBudgetExhausted) {
				return Result{}, err
			}
		}
		s.Points = append(s.Points, Point{X: float64(xi), Y: float64(sess.MemoryBytes())})
		nodes := sess.Tree().Nodes()
		notes = append(notes, fmt.Sprintf("%s: %d tree nodes, domain %d, ≈2TN scalars bound = %d bytes",
			d.name, nodes, env.DS.Domain().Size(), 2*env.DS.Partitions()*env.DS.Domain().Size()*16))
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

	// Simulation on the small Covid dataset: cumulative budgets cross
	// near the analytic count.
	env, err := NewCovidEnv(sc, 121)
	if err != nil {
		return Result{}, err
	}
	lapBlock := accountant.NewBlock(env.EpsG, env.DS.Partitions())
	lhBlock := accountant.NewBlock(env.EpsG, env.DS.Partitions())
	lh := baseline.NewLaplaceHistogram(alpha, beta, dataset.NewExecutor(env.DS, noise.NewRng(2)), lhBlock, noise.NewRng(3))
	// Use Appendix C's Direct-Laplace calibration (ln(1/β)/αn, cheaper
	// than the system-wide 4× rule) for a like-for-like comparison of the
	// two appendix baselines.
	z, _ := workload.NewZipf(env.Pool, 0, env.Rng.Fork())
	crossover := -1
	n := env.DS.NRowsAll()
	directEps := noise.DirectLaplaceEpsilon(alpha, beta, n)
	for i := 1; i <= 2000; i++ {
		q := z.Sample()
		// Private mirror accountant tracking what direct Laplace would
		// spend; the real charge happens inside lh.Run.
		_ = lapBlock.PayRange(0, env.DS.Partitions()-1, accountant.Laplace(directEps)) //turbo:allow(chargepath)
		if _, err := lh.Run(q); err != nil {
			return Result{}, err
		}
		if crossover < 0 && lapBlock.AverageSpent() > lhBlock.AverageSpent() {
			crossover = i
		}
	}
	sim := Series{Name: "simulated-crossover-n128"}
	sim.Points = append(sim.Points, Point{X: 0, Y: float64(crossover)})

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
