// Non-partitioned database experiments: the Fig. 3 demo, the system-wide
// Fig. 8(a-c) comparison, the Fig. 8(d) convergence study, the Fig. 9
// parameter sweeps, and the §6.2 Q4 heuristic ablation.

package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/heuristic"
	"repro/internal/pmw"
	"repro/internal/query"
	"repro/internal/tree"
	"repro/internal/workload"
)

// Fig3 reproduces the §4.3 demo experiment on Covid: cumulative budget of
// vanilla PMW, direct Laplace, Exact-Cache, and PMW-Bypass under a uniform
// workload from the exhaustive pool.
func Fig3(sc Scale) (Result, error) {
	env, err := NewCovidEnv(sc, 101)
	if err != nil {
		return Result{}, err
	}
	queries, err := env.sample(0, sc.Queries)
	if err != nil {
		return Result{}, err
	}
	// Vanilla PMW is the prior-work baseline: it ships with the
	// theoretical lr = α/8 hard-coded (§4.3, [58]).
	vanilla, _, err := env.pmwArm("pmw", true, pmw.Constant(pmw.TheoreticalLR(env.Alpha)), nil, 11)
	if err != nil {
		return Result{}, err
	}
	bypass, _, err := env.pmwArm("pmw-bypass", false, env.lr(), heuristic.NewAdaptivePerBin(env.C0, env.S0), 12)
	if err != nil {
		return Result{}, err
	}
	arms := []arm{vanilla, env.baselineArm("laplace", 13), env.baselineArm("exact-cache", 14), bypass}
	series, err := drive(arms, len(queries), sc.Checkpoints, false, from(queries))
	return Result{
		Name:   "fig3-demo",
		XLabel: "queries",
		YLabel: "cumulative budget",
		Series: series,
		Notes: []string{
			"Covid, kzipf=0, uniform sampling from the exhaustive pool",
			"expected shape: pmw spikes early; pmw-bypass tracks laplace then flattens below exact-cache",
		},
	}, err
}

// fig8 is the system-wide non-partitioned comparison — Turbo (session) vs
// vanilla PMW vs Exact-Cache — on the env mk builds, sampling Zipf(zipf).
func fig8(mk envFn, name string, zipf float64) func(Scale) (Result, error) {
	return func(sc Scale) (Result, error) {
		env, err := mk(sc)
		if err != nil {
			return Result{}, err
		}
		queries, err := env.sample(zipf, sc.Queries)
		if err != nil {
			return Result{}, err
		}
		sess, err := env.session(core.NonPartitioned, tree.Binary, 21)
		if err != nil {
			return Result{}, err
		}
		vanilla, _, err := env.pmwArm("pmw", true, pmw.Constant(pmw.TheoreticalLR(env.Alpha)), nil, 22)
		if err != nil {
			return Result{}, err
		}
		arms := []arm{vanilla, env.baselineArm("exact-cache", 23), sessionArm("turbo", sess)}
		series, err := drive(arms, len(queries), sc.Checkpoints, false, from(queries))
		return Result{
			Name:   name,
			XLabel: "queries",
			YLabel: "cumulative budget",
			Series: series,
			Notes:  []string{fmt.Sprintf("kzipf=%g", zipf)},
		}, err
	}
}

// converging makes a PMW arm retire once p's histogram passes validation
// v, checked after an answered query whenever due says so; its y becomes
// p's purposeful update count (the §6.1 empirical-convergence metric).
func converging(a arm, p *pmw.PMW, v *workload.Validator, due func() bool) arm {
	run := a.answer
	a.answer = func(q *query.Query) error {
		if err := run(q); err != nil {
			return err
		}
		if due() && v.Converged(p.Histogram()) {
			return errDone
		}
		return nil
	}
	a.y = func() float64 { return float64(p.Histogram().Updates()) }
	return a
}

// convergenceUpdates runs one PMW (vanilla or bypass) at learning rate lr
// until its histogram reaches 90% validation accuracy, returning the
// purposeful updates that took, or its update count when 4·Queries
// queries or the budget run out first.
func convergenceUpdates(env *Env, sc Scale, vanilla bool, lr float64, seed uint64) (float64, error) {
	a, p, err := env.pmwArm("", vanilla, pmw.Constant(lr), heuristic.NewAdaptivePerBin(env.C0, env.S0), seed)
	if err != nil {
		return 0, err
	}
	queries, err := env.sample(1, sc.Queries*4)
	if err != nil {
		return 0, err
	}
	v, err := workload.NewValidator(env.Pool, 300, env.Alpha, env.DS, 0, env.DS.Partitions()-1, env.Rng.Fork())
	if err != nil {
		return 0, err
	}
	checked := 0
	a = converging(a, p, v, func() bool {
		u := p.Histogram().Updates()
		if u < checked+25 {
			return false
		}
		checked = u
		return true
	})
	return final(a, len(queries), true, from(queries))
}

// Fig8d sweeps the learning rate and reports empirical convergence
// (updates to 90% validation accuracy) for vanilla PMW and PMW-Bypass.
func Fig8d(sc Scale) (Result, error) {
	env, err := NewCovidEnv(sc, 105)
	if err != nil {
		return Result{}, err
	}
	series := []Series{{Name: "pmw"}, {Name: "pmw-bypass"}}
	for i, lr := range []float64{0.00625, 0.0125, 0.025, 0.05, 0.1, 0.2, 0.4, 0.8} {
		for j := range series {
			u, err := convergenceUpdates(env, sc, j == 0, lr, uint64(200+100*j+i))
			if err != nil {
				return Result{}, err
			}
			series[j].Points = append(series[j].Points, Point{X: lr, Y: u})
		}
	}
	return Result{
		Name:   "fig8d-convergence-vs-lr",
		XLabel: "lr",
		YLabel: "updates to 90% validation accuracy",
		Series: series,
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
	queries, err := env.sample(1, sc.Queries)
	if err != nil {
		return Result{}, err
	}
	arms := []arm{env.baselineArm("exact-cache", 31)}
	for i, v := range values {
		heur, sched := configure(v, env)
		a, _, err := env.pmwArm(fmt.Sprintf("%s=%g", label, v), false, sched, heur, 40+uint64(i))
		if err != nil {
			return Result{}, err
		}
		arms = append(arms, a)
	}
	series, err := drive(arms, len(queries), sc.Checkpoints, false, from(queries))
	return Result{
		Name:   name,
		XLabel: "queries",
		YLabel: "cumulative budget",
		Series: series,
		Notes:  []string{"Covid kzipf=1"},
	}, err
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

// q4 reproduces the §6.2 Question 4 ablation: final consumed budget for
// the four ISHISTOGRAMREADY designs across a C0 grid, on the skewed
// workloads where coarse heuristics suffer most.
func q4(zipf float64) func(Scale) (Result, error) {
	return func(sc Scale) (Result, error) {
		env, err := NewCovidEnv(sc, 107)
		if err != nil {
			return Result{}, err
		}
		queries, err := env.sample(zipf, sc.Queries)
		if err != nil {
			return Result{}, err
		}
		designs := []struct {
			name string
			mk   func(c0 float64) heuristic.Heuristic
		}{
			{"adaptive-per-bin", func(c0 float64) heuristic.Heuristic { return heuristic.NewAdaptivePerBin(c0, env.S0) }},
			{"static-per-bin", func(c0 float64) heuristic.Heuristic { return heuristic.NewStaticPerBin(c0) }},
			{"adaptive-global", func(c0 float64) heuristic.Heuristic { return heuristic.NewAdaptiveGlobal(c0*20, env.S0) }},
			{"static-global", func(c0 float64) heuristic.Heuristic { return heuristic.NewStaticGlobal(c0 * 20) }},
		}
		var series []Series
		for di, d := range designs {
			s := Series{Name: d.name}
			for ci, c0 := range []float64{5, 20, 50, 100, 200} {
				a, _, err := env.pmwArm(d.name, false, env.lr(), d.mk(c0), 500+uint64(di*10+ci))
				if err != nil {
					return Result{}, err
				}
				spent, err := final(a, len(queries), true, from(queries))
				if err != nil {
					return Result{}, err
				}
				s.Points = append(s.Points, Point{X: c0, Y: spent})
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
}
