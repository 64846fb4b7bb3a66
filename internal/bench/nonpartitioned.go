// Non-partitioned database experiments: the Fig. 3 demo, the system-wide
// Fig. 8(a-c) comparison, the Fig. 8(d) convergence study, the Fig. 9
// parameter sweeps, and the §6.2 Q4 heuristic ablation.

package bench

import (
	"errors"
	"fmt"

	"repro/internal/accountant"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/heuristic"
	"repro/internal/noise"
	"repro/internal/pmw"
	"repro/internal/query"
	"repro/internal/workload"
)

// sut is one system under test: an answer function plus a budget probe.
type sut struct {
	name  string
	run   func(q *query.Query) error
	spent func() float64
}

// runCumulative drives every system through the same query stream and
// samples each one's consumed budget at checkpoints.
func runCumulative(systems []sut, queries []*query.Query, checkpoints int) []Series {
	if checkpoints < 1 {
		checkpoints = 1
	}
	every := len(queries) / checkpoints
	if every == 0 {
		every = 1
	}
	series := make([]Series, len(systems))
	for i, s := range systems {
		series[i].Name = s.name
	}
	for qi, q := range queries {
		for si, s := range systems {
			if err := s.run(q); err != nil && !errors.Is(err, accountant.ErrBudgetExhausted) {
				panic(fmt.Sprintf("bench: system %s failed: %v", s.name, err))
			}
			if (qi+1)%every == 0 || qi == len(queries)-1 {
				series[si].Points = append(series[si].Points, Point{
					X: float64(qi + 1), Y: systems[si].spent(),
				})
			}
		}
	}
	return series
}

// lr returns the dataset's default learning-rate schedule (§6.1).
func (e *Env) lr() pmw.Schedule {
	if e.LRStart == e.LREnd {
		return pmw.Constant(e.LRStart)
	}
	return pmw.ExpDecay{Start: e.LRStart, End: e.LREnd, HalfLife: 300}
}

// fullRange returns the whole-store window.
func fullRange(ds *dataset.Dataset) (int, int) { return 0, ds.Partitions() - 1 }

// newStandalonePMW wires a PMW (vanilla or bypass) over the full store
// with its own accountant, for the baseline curves.
func (e *Env) newStandalonePMW(vanilla bool, lrSched pmw.Schedule, heur heuristic.Heuristic, seed uint64) (*pmw.PMW, *accountant.Block, error) {
	start, end := fullRange(e.DS)
	block := accountant.NewBlock(e.EpsG, e.DS.Partitions())
	exec := dataset.NewExecutor(e.DS, noise.NewRng(seed))
	n := e.DS.NRowsAll()
	cfg := pmw.Config{
		Alpha: e.Alpha, Beta: e.Beta, N: n,
		DomainSize: e.DS.Domain().Size(),
		Tau:        e.Tau,
		LR:         lrSched,
		Heuristic:  heur,
	}
	payer := pmw.LaplacePayer(accountant.Window{Block: block, Start: start, End: end},
		noise.EpsilonForAccuracy(e.Alpha, e.Beta, n))
	var p *pmw.PMW
	var err error
	if vanilla {
		p, err = pmw.NewVanilla(cfg, pmw.RangeExecutor{Exec: exec, Start: start, End: end}, payer, noise.NewRng(seed+1))
	} else {
		p, err = pmw.New(cfg, pmw.RangeExecutor{Exec: exec, Start: start, End: end}, payer, noise.NewRng(seed+1))
	}
	return p, block, err
}

// Fig3 reproduces the §4.3 demo experiment on Covid: cumulative budget of
// vanilla PMW, direct Laplace, Exact-Cache, and PMW-Bypass under a uniform
// workload from the exhaustive pool.
func Fig3(sc Scale) (Result, error) {
	env, err := NewCovidEnv(sc, 101)
	if err != nil {
		return Result{}, err
	}
	z, err := workload.NewZipf(env.Pool, 0, env.Rng.Fork())
	if err != nil {
		return Result{}, err
	}
	queries := z.SampleN(sc.Queries)

	// Vanilla PMW is the prior-work baseline: it ships with the
	// theoretical lr = α/8 hard-coded (§4.3, [58]).
	vanilla, vanillaBlock, err := env.newStandalonePMW(true,
		pmw.Constant(pmw.TheoreticalLR(env.Alpha)), nil, 11)
	if err != nil {
		return Result{}, err
	}
	bypass, bypassBlock, err := env.newStandalonePMW(false, env.lr(),
		heuristic.NewAdaptivePerBin(env.C0, env.S0), 12)
	if err != nil {
		return Result{}, err
	}
	lapBlock := accountant.NewBlock(env.EpsG, env.DS.Partitions())
	lap := baseline.NewDirectLaplace(env.Alpha, env.Beta,
		dataset.NewExecutor(env.DS, noise.NewRng(13)), lapBlock)
	ecBlock := accountant.NewBlock(env.EpsG, env.DS.Partitions())
	ec := baseline.NewExactCache(env.Alpha, env.Beta,
		dataset.NewExecutor(env.DS, noise.NewRng(14)), ecBlock, nil)

	systems := []sut{
		{"pmw", func(q *query.Query) error { _, err := vanilla.Run(q); return err }, vanillaBlock.AverageSpent},
		{"laplace", func(q *query.Query) error { _, err := lap.Run(q); return err }, lapBlock.AverageSpent},
		{"exact-cache", func(q *query.Query) error { _, err := ec.Run(q); return err }, ecBlock.AverageSpent},
		{"pmw-bypass", func(q *query.Query) error { _, err := bypass.Run(q); return err }, bypassBlock.AverageSpent},
	}
	return Result{
		Name:   "fig3-demo",
		XLabel: "queries",
		YLabel: "cumulative budget",
		Series: runCumulative(systems, queries, sc.Checkpoints),
		Notes: []string{
			"Covid, kzipf=0, uniform sampling from the exhaustive pool",
			"expected shape: pmw spikes early; pmw-bypass tracks laplace then flattens below exact-cache",
		},
	}, nil
}

// fig8 runs the system-wide non-partitioned comparison: Turbo (session)
// vs vanilla PMW vs Exact-Cache.
func fig8(env *Env, sc Scale, name string, zipf float64) (Result, error) {
	z, err := workload.NewZipf(env.Pool, zipf, env.Rng.Fork())
	if err != nil {
		return Result{}, err
	}
	queries := z.SampleN(sc.Queries)

	sess, err := core.NewSession(core.Config{
		Mode:  core.NonPartitioned,
		Alpha: env.Alpha, Beta: env.Beta, EpsilonGlobal: env.EpsG,
		Tau: env.Tau,
		LR:  func() pmw.Schedule { return env.lr() },
		Heuristic: func() heuristic.Heuristic {
			return heuristic.NewAdaptivePerBin(env.C0, env.S0)
		},
		Seed: 21,
	}, env.DS)
	if err != nil {
		return Result{}, err
	}
	vanilla, vanillaBlock, err := env.newStandalonePMW(true,
		pmw.Constant(pmw.TheoreticalLR(env.Alpha)), nil, 22)
	if err != nil {
		return Result{}, err
	}
	ecBlock := accountant.NewBlock(env.EpsG, env.DS.Partitions())
	ec := baseline.NewExactCache(env.Alpha, env.Beta,
		dataset.NewExecutor(env.DS, noise.NewRng(23)), ecBlock, nil)

	systems := []sut{
		{"pmw", func(q *query.Query) error { _, err := vanilla.Run(q); return err }, vanillaBlock.AverageSpent},
		{"exact-cache", func(q *query.Query) error { _, err := ec.Run(q); return err }, ecBlock.AverageSpent},
		{"turbo", func(q *query.Query) error { _, err := sess.Answer(q); return err }, sess.AverageSpent},
	}
	return Result{
		Name:   name,
		XLabel: "queries",
		YLabel: "cumulative budget",
		Series: runCumulative(systems, queries, sc.Checkpoints),
		Notes:  []string{fmt.Sprintf("kzipf=%g", zipf)},
	}, nil
}

// Fig8a is Turbo vs baselines on Covid with uniform sampling.
func Fig8a(sc Scale) (Result, error) {
	env, err := NewCovidEnv(sc, 102)
	if err != nil {
		return Result{}, err
	}
	return fig8(env, sc, "fig8a-covid-k0", 0)
}

// Fig8b is Turbo vs baselines on Covid with Zipf(1) sampling.
func Fig8b(sc Scale) (Result, error) {
	env, err := NewCovidEnv(sc, 103)
	if err != nil {
		return Result{}, err
	}
	return fig8(env, sc, "fig8b-covid-k1", 1)
}

// Fig8c is Turbo vs baselines on CitiBike with uniform sampling.
func Fig8c(sc Scale) (Result, error) {
	env, err := NewCitiBikeEnv(sc, 104, true)
	if err != nil {
		return Result{}, err
	}
	return fig8(env, sc, "fig8c-citibike-k0", 0)
}

// convergenceUpdates runs one PMW (vanilla or bypass) at learning rate lr
// until its histogram reaches 90% validation accuracy, returning the
// number of purposeful updates needed (the §6.1 empirical-convergence
// metric), or maxQueries' update count if it never converges.
func convergenceUpdates(env *Env, sc Scale, vanilla bool, lr float64, seed uint64) (int, error) {
	p, _, err := env.newStandalonePMW(vanilla, pmw.Constant(lr),
		heuristic.NewAdaptivePerBin(env.C0, env.S0), seed)
	if err != nil {
		return 0, err
	}
	z, err := workload.NewZipf(env.Pool, 1, env.Rng.Fork())
	if err != nil {
		return 0, err
	}
	start, end := fullRange(env.DS)
	validator, err := workload.NewValidator(env.Pool, 300, env.Alpha, env.DS, start, end, env.Rng.Fork())
	if err != nil {
		return 0, err
	}
	maxQueries := sc.Queries * 4
	checkEvery := 25
	lastChecked := 0
	for i := 0; i < maxQueries; i++ {
		if _, err := p.Run(z.Sample()); err != nil {
			if errors.Is(err, accountant.ErrBudgetExhausted) {
				break
			}
			return 0, err
		}
		u := p.Histogram().Updates()
		if u >= lastChecked+checkEvery {
			lastChecked = u
			if validator.Converged(p.Histogram()) {
				return u, nil
			}
		}
	}
	return p.Histogram().Updates(), nil
}

// Fig8d sweeps the learning rate and reports empirical convergence
// (updates to 90% validation accuracy) for vanilla PMW and PMW-Bypass.
func Fig8d(sc Scale) (Result, error) {
	env, err := NewCovidEnv(sc, 105)
	if err != nil {
		return Result{}, err
	}
	lrs := []float64{0.00625, 0.0125, 0.025, 0.05, 0.1, 0.2, 0.4, 0.8}
	var pmwSeries, bypassSeries Series
	pmwSeries.Name = "pmw"
	bypassSeries.Name = "pmw-bypass"
	for i, lr := range lrs {
		uv, err := convergenceUpdates(env, sc, true, lr, 200+uint64(i))
		if err != nil {
			return Result{}, err
		}
		ub, err := convergenceUpdates(env, sc, false, lr, 300+uint64(i))
		if err != nil {
			return Result{}, err
		}
		pmwSeries.Points = append(pmwSeries.Points, Point{X: lr, Y: float64(uv)})
		bypassSeries.Points = append(bypassSeries.Points, Point{X: lr, Y: float64(ub)})
	}
	return Result{
		Name:   "fig8d-convergence-vs-lr",
		XLabel: "lr",
		YLabel: "updates to 90% validation accuracy",
		Series: []Series{pmwSeries, bypassSeries},
		Notes: []string{
			"Covid kzipf=1",
			"expected shape: U-curve; optimum ≫ theoretical α/8 = " + fmt.Sprint(env.Alpha/8),
		},
	}, nil
}

// fig9 sweeps one PMW-Bypass parameter and returns cumulative-budget
// curves per setting, with an Exact-Cache reference.
func fig9(sc Scale, name string, configure func(v float64, env *Env) (heuristic.Heuristic, pmw.Schedule), values []float64, label string) (Result, error) {
	env, err := NewCovidEnv(sc, 106)
	if err != nil {
		return Result{}, err
	}
	z, err := workload.NewZipf(env.Pool, 1, env.Rng.Fork())
	if err != nil {
		return Result{}, err
	}
	queries := z.SampleN(sc.Queries)

	var systems []sut
	ecBlock := accountant.NewBlock(env.EpsG, env.DS.Partitions())
	ec := baseline.NewExactCache(env.Alpha, env.Beta,
		dataset.NewExecutor(env.DS, noise.NewRng(31)), ecBlock, nil)
	systems = append(systems, sut{
		"exact-cache",
		func(q *query.Query) error { _, err := ec.Run(q); return err },
		ecBlock.AverageSpent,
	})
	for i, v := range values {
		heur, sched := configure(v, env)
		p, block, err := env.newStandalonePMW(false, sched, heur, 40+uint64(i))
		if err != nil {
			return Result{}, err
		}
		systems = append(systems, sut{
			fmt.Sprintf("%s=%g", label, v),
			func(q *query.Query) error { _, err := p.Run(q); return err },
			block.AverageSpent,
		})
	}
	return Result{
		Name:   name,
		XLabel: "queries",
		YLabel: "cumulative budget",
		Series: runCumulative(systems, queries, sc.Checkpoints),
		Notes:  []string{"Covid kzipf=1"},
	}, nil
}

// Fig9a sweeps the heuristic's initial threshold C0 (S0=1).
func Fig9a(sc Scale) (Result, error) {
	return fig9(sc, "fig9a-heuristic-c0",
		func(v float64, env *Env) (heuristic.Heuristic, pmw.Schedule) {
			return heuristic.NewAdaptivePerBin(v, 1), env.lr()
		},
		[]float64{1, 10, 100, 1000}, "C0")
}

// Fig9b sweeps a constant learning rate.
func Fig9b(sc Scale) (Result, error) {
	return fig9(sc, "fig9b-learning-rate",
		func(v float64, env *Env) (heuristic.Heuristic, pmw.Schedule) {
			return heuristic.NewAdaptivePerBin(env.C0, env.S0), pmw.Constant(v)
		},
		[]float64{0.00625, 0.0125, 0.025, 0.05, 0.125}, "lr")
}

// Q4Heuristics reproduces the §6.2 Question 4 ablation: final consumed
// budget for the four ISHISTOGRAMREADY designs across a C0 grid, on the
// skewed workloads where coarse heuristics suffer most.
func Q4Heuristics(sc Scale, zipf float64) (Result, error) {
	env, err := NewCovidEnv(sc, 107)
	if err != nil {
		return Result{}, err
	}
	z, err := workload.NewZipf(env.Pool, zipf, env.Rng.Fork())
	if err != nil {
		return Result{}, err
	}
	queries := z.SampleN(sc.Queries)

	designs := []struct {
		name string
		mk   func(c0 float64) heuristic.Heuristic
	}{
		{"adaptive-per-bin", func(c0 float64) heuristic.Heuristic { return heuristic.NewAdaptivePerBin(c0, env.S0) }},
		{"static-per-bin", func(c0 float64) heuristic.Heuristic { return heuristic.NewStaticPerBin(c0) }},
		{"adaptive-global", func(c0 float64) heuristic.Heuristic { return heuristic.NewAdaptiveGlobal(c0*20, env.S0) }},
		{"static-global", func(c0 float64) heuristic.Heuristic { return heuristic.NewStaticGlobal(c0 * 20) }},
	}
	c0s := []float64{5, 20, 50, 100, 200}
	var series []Series
	for di, d := range designs {
		s := Series{Name: d.name}
		for ci, c0 := range c0s {
			p, block, err := env.newStandalonePMW(false, env.lr(), d.mk(c0), 500+uint64(di*10+ci))
			if err != nil {
				return Result{}, err
			}
			for _, q := range queries {
				if _, err := p.Run(q); err != nil {
					if errors.Is(err, accountant.ErrBudgetExhausted) {
						break
					}
					return Result{}, err
				}
			}
			s.Points = append(s.Points, Point{X: c0, Y: block.AverageSpent()})
		}
		series = append(series, s)
	}
	return Result{
		Name:   fmt.Sprintf("q4-heuristics-k%g", zipf),
		XLabel: "C0",
		YLabel: "final consumed budget",
		Series: series,
		Notes: []string{
			"global designs use threshold 20·C0 (histogram-level counts run ~|support| times higher)",
			"expected: per-bin < global at optimum; adaptive flattest across C0",
		},
	}, nil
}
