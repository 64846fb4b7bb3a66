// Admission-capacity experiment for the concurrent RDP filter (App. B,
// Thm B.2): how many queries a partitioned session answers before the
// stopping rule first refuses, under pure-ε block composition versus
// Rényi admission converted at δ_G.

package bench

import (
	"errors"
	"fmt"

	"repro/internal/accountant"
	"repro/internal/core"
	"repro/internal/heuristic"
	"repro/internal/pmw"
	"repro/internal/query"
	"repro/internal/tree"
)

// RDPCapacity drives two identical partitioned CitiBike sessions — one
// accounting with the scalar block (pure-ε parallel composition), one
// admitting every mechanism through the concurrent RDP filter — over the
// same windowed query stream, with a pessimistic heuristic so every query
// pays (the adversarial-capacity regime: free cache paths would mask the
// composition difference). It reports cumulative answered queries per
// system; the curve that flattens first hit its filter's stopping rule
// earlier.
func RDPCapacity(sc Scale) (Result, error) {
	env, err := NewCitiBikeEnv(sc, 140, true)
	if err != nil {
		return Result{}, err
	}
	// A tight guarantee so exhaustion is reachable within the stream
	// (the capacity comparison needs the stopping rules to bind), yet
	// comfortably above ln(1/δ_G)/(α_max−1) ≈ 0.054 so the Rényi
	// budgets are non-degenerate; δ_G is the §A.6 default. Shrink -rows
	// or grow -queries to push both systems to refusal faster.
	const deltaG = 1e-6
	env.EpsG = 0.5
	queries, err := env.windowed(sc.PartitionedQueries, 0)
	if err != nil {
		return Result{}, err
	}

	type system struct {
		name                            string
		answered, refused, firstRefusal int
	}
	var systems []*system
	var arms []arm
	for _, gaussian := range []bool{false, true} {
		cfg := core.Config{
			Mode:  core.Partitioned,
			Alpha: env.Alpha, Beta: env.Beta, EpsilonGlobal: env.EpsG,
			Tau: env.Tau,
			LR:  func() pmw.Schedule { return env.lr() },
			// Pessimistic heuristic: bins never reach readiness, so
			// every query runs the paid Laplace branch and the two
			// systems pay identical mechanism streams — only the
			// composition arithmetic differs.
			Heuristic: func() heuristic.Heuristic {
				return heuristic.NewAdaptivePerBin(1e9, 1)
			},
			Structure: tree.Binary,
			Seed:      141,
		}
		s := &system{name: "pure", firstRefusal: -1}
		if gaussian {
			cfg.Gaussian = true
			cfg.DeltaGlobal = deltaG
			s.name = "rdp"
		}
		sess, err := core.NewSession(cfg, env.DS)
		if err != nil {
			return Result{}, err
		}
		offered := 0
		systems = append(systems, s)
		arms = append(arms, arm{
			name: s.name,
			answer: func(q *query.Query) error {
				offered++
				_, err := sess.Answer(q)
				switch {
				case err == nil:
					s.answered++
				case errors.Is(err, accountant.ErrBudgetExhausted):
					s.refused++
					if s.firstRefusal < 0 {
						s.firstRefusal = offered
					}
				}
				return err
			},
			y: func() float64 { return float64(s.answered) },
		})
	}
	series, err := drive(arms, len(queries), sc.Checkpoints, false, from(queries))
	if err != nil {
		return Result{}, err
	}

	notes := []string{
		fmt.Sprintf("CitiBike, %d partitions, uniform windows, ε_G=%g, δ_G=%g, pessimistic heuristic",
			env.DS.Partitions(), env.EpsG, deltaG),
		"expected: rdp answers strictly more before its stopping rule binds (Thm B.2 composition is tighter)",
	}
	for _, s := range systems {
		fr := "never"
		if s.firstRefusal >= 0 {
			fr = fmt.Sprint(s.firstRefusal)
		}
		notes = append(notes, fmt.Sprintf("%s: answered %d, refused %d, first refusal at query %s",
			s.name, s.answered, s.refused, fr))
	}
	return Result{
		Name:   "rdp-capacity",
		XLabel: "queries",
		YLabel: "cumulative answered",
		Series: series,
		Notes:  notes,
	}, nil
}
