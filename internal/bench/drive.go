// The one workload loop every figure runs through, and the systems it
// drives: standalone PMWs, the paper's baselines and Turbo sessions.

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
)

// arm is one system under test: an answer function, the y value a sample
// reads, and, in streaming runs, a hook that grows its dataset by one
// partition.
type arm struct {
	name   string
	answer func(*query.Query) error
	y      func() float64
	grow   func()
}

// errDone retires an arm from a drive without failing it (a convergence
// study that has converged).
var errDone = errors.New("bench: arm done")

// drive offers n queries to every arm in turn — query i, drawn once by
// next, goes to each live arm before query i+1 is drawn — and samples
// each arm's y every max(n/checkpoints, 1) queries and after the last;
// checkpoints 0 samples nothing. A refusal for lack of
// budget is absorbed unless stop is set, in which case it retires the arm
// unsampled, as errDone does. The drive ends once every arm has retired.
func drive(arms []arm, n, checkpoints int, stop bool, next func() *query.Query) ([]Series, error) {
	every := 0
	if checkpoints > 0 {
		every = max(n/checkpoints, 1)
	}
	series := make([]Series, len(arms))
	retired := make([]bool, len(arms))
	for i, a := range arms {
		series[i].Name = a.name
	}
	for i, live := 0, len(arms); i < n && live > 0; i++ {
		q := next()
		for ai, a := range arms {
			if retired[ai] {
				continue
			}
			err := a.answer(q)
			exhausted := errors.Is(err, accountant.ErrBudgetExhausted)
			switch {
			case err == nil || (exhausted && !stop):
			case exhausted || errors.Is(err, errDone):
				retired[ai] = true
				live--
				continue
			default:
				return nil, fmt.Errorf("bench: %s: %w", a.name, err)
			}
			if every > 0 && ((i+1)%every == 0 || i == n-1) {
				series[ai].Points = append(series[ai].Points, Point{X: float64(i + 1), Y: a.y()})
			}
		}
	}
	return series, nil
}

// final drives a alone over n queries and returns its y at the end.
func final(a arm, n int, stop bool, next func() *query.Query) (float64, error) {
	if _, err := drive([]arm{a}, n, 0, stop, next); err != nil {
		return 0, err
	}
	return a.y(), nil
}

// from draws a pre-sampled workload in order.
func from(qs []*query.Query) func() *query.Query {
	i := -1
	return func() *query.Query { i++; return qs[i] }
}

// sessionArm drives a Turbo session; y is its average consumed budget.
func sessionArm(name string, sess *core.Session) arm {
	return arm{
		name:   name,
		answer: func(q *query.Query) error { _, err := sess.Answer(q); return err },
		y:      sess.AverageSpent,
	}
}

// pmwArm wires a standalone PMW (vanilla or bypass) over the full store
// with its own accountant; y is that accountant's average spend.
func (e *Env) pmwArm(name string, vanilla bool, lr pmw.Schedule, heur heuristic.Heuristic, seed uint64) (arm, *pmw.PMW, error) {
	start, end := 0, e.DS.Partitions()-1
	block := accountant.NewBlock(e.EpsG, e.DS.Partitions())
	n := e.DS.NRowsAll()
	cfg := pmw.Config{
		Alpha: e.Alpha, Beta: e.Beta, N: n,
		DomainSize: e.DS.Domain().Size(),
		Tau:        e.Tau,
		LR:         lr,
		Heuristic:  heur,
	}
	payer := pmw.LaplacePayer(accountant.Window{Block: block, Start: start, End: end},
		noise.EpsilonForAccuracy(e.Alpha, e.Beta, n))
	exec := pmw.RangeExecutor{Exec: dataset.NewExecutor(e.DS, noise.NewRng(seed)), Start: start, End: end}
	mk := pmw.New
	if vanilla {
		mk = pmw.NewVanilla
	}
	p, err := mk(cfg, exec, payer, noise.NewRng(seed+1))
	if err != nil {
		return arm{}, nil, err
	}
	return arm{
		name:   name,
		answer: func(q *query.Query) error { _, err := p.Run(q); return err },
		y:      block.AverageSpent,
	}, p, nil
}

// baselineArm builds one of the paper's baselines over the env's live
// dataset — "laplace", "exact-cache", "tree-exact-cache" or
// "laplace-histogram" — with its own accountant and executor noise (seed;
// the histogram's draws use seed+1). y is the accountant's average spend;
// grow appends a partition to the accountant, then to the dataset, like
// Session.AppendPartitions: a racing query must never name a partition
// whose budget does not exist yet.
func (e *Env) baselineArm(kind string, seed uint64) arm {
	block := accountant.NewBlock(e.EpsG, e.DS.Partitions())
	exec := dataset.NewExecutor(e.DS, noise.NewRng(seed))
	var sys baseline.System
	switch kind {
	case "laplace":
		sys = baseline.NewDirectLaplace(e.Alpha, e.Beta, exec, block)
	case "exact-cache":
		sys = baseline.NewExactCache(e.Alpha, e.Beta, exec, block)
	case "tree-exact-cache":
		sys = baseline.NewTreeExactCache(e.Alpha, e.Beta, exec, block)
	case "laplace-histogram":
		sys = baseline.NewLaplaceHistogram(e.Alpha, e.Beta, exec, block, noise.NewRng(seed+1))
	default:
		panic("bench: unknown baseline " + kind)
	}
	return arm{
		name:   kind,
		answer: func(q *query.Query) error { _, err := sys.Run(q); return err },
		y:      block.AverageSpent,
		grow:   func() { block.AddPartition(); _, _ = e.DS.Append(nil, e.next()) },
	}
}
