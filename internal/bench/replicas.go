// Replica experiment: a fleet of Turbo sessions sharing one persistent
// store.File against the same fleet running unreplicated. Every analyst
// query hits all replicas near-simultaneously — the worst case for a
// fleet, since each replica sees every query as a first-timer. Without
// replication each replica executes and pays its own miss (fleet cost
// R×); with the cross-replica single-flight and shared budget ownership
// (core/replicated.go, accountant/shared.go) the fleet executes and pays
// exactly once per distinct query, and the loser replicas observe the
// leader's fill through the shared exact cache for free.
//
// The pay-once and zero-double-spend properties are the experiment's
// contract, not data points: a fleet that executes more than once per
// distinct query, or whose replicas disagree on the shared per-partition
// spend, fails the run.

package bench

import (
	"fmt"
	"os"
	"sync"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/tree"
)

// replicasSeed keeps the experiment deterministic.
const replicasSeed = 167

// replicasEps is roomy enough that the comparison measures caching and
// sharing, not exhaustion.
const replicasEps = 200.0

// replicaFleetSize is the number of replica sessions in the fleet.
const replicaFleetSize = 3

// Replicas runs the fleet workload unreplicated and replicated over one
// shared store.File, reporting executions, paid budget, and the
// cross-replica hit-rate lift.
func Replicas(sc Scale) (Result, error) {
	env, err := NewCovidEnv(sc, replicasSeed)
	if err != nil {
		return Result{}, err
	}
	pairs, err := replicasPairs(env, sc)
	if err != nil {
		return Result{}, err
	}

	unrepl, err := replicasRun(sc, pairs, false)
	if err != nil {
		return Result{}, fmt.Errorf("bench: replicas unreplicated: %w", err)
	}
	repl, err := replicasRun(sc, pairs, true)
	if err != nil {
		return Result{}, fmt.Errorf("bench: replicas replicated: %w", err)
	}

	// Contract: the replicated fleet pays each distinct query's miss once
	// globally — never more (and never less: every pair is first-time).
	if repl.executions != len(pairs) {
		return Result{}, fmt.Errorf("bench: replicas: replicated fleet executed %d times for %d distinct queries",
			repl.executions, len(pairs))
	}
	if unrepl.executions != replicaFleetSize*len(pairs) {
		return Result{}, fmt.Errorf("bench: replicas: unreplicated fleet executed %d times, want %d",
			unrepl.executions, replicaFleetSize*len(pairs))
	}

	total := replicaFleetSize * len(pairs)
	mk := func(name string, u, r float64) Series {
		return Series{Name: name, Points: []Point{{X: 0, Y: u}, {X: 1, Y: r}}}
	}
	return Result{
		Name:   "replicas",
		XLabel: "fleet (0=unreplicated, 1=replicated over shared file store)",
		YLabel: "executions / free answers / avg spend",
		Series: []Series{
			mk("executions", float64(unrepl.executions), float64(repl.executions)),
			mk("free-answers", float64(unrepl.free), float64(repl.free)),
			mk("free-rate", float64(unrepl.free)/float64(total), float64(repl.free)/float64(total)),
			mk("avg-spent-per-replica", unrepl.avgSpent, repl.avgSpent),
			mk("remote-shared", 0, float64(repl.remoteShared)),
		},
		Notes: []string{
			fmt.Sprintf("%d replicas × %d distinct first-time queries, each query fired at every replica concurrently",
				replicaFleetSize, len(pairs)),
			fmt.Sprintf("global pay-once: %d executions replicated vs %d unreplicated (zero double-spend verified per partition)",
				repl.executions, unrepl.executions),
			fmt.Sprintf("cross-replica hit-rate lift: %.3f free replicated vs %.3f unreplicated; every replicated free answer is a peer's fill read through the shared store (%d observed while the peer's flight lease was still held, the rest after it completed)",
				float64(repl.free)/float64(total), float64(unrepl.free)/float64(total), repl.remoteShared),
			fmt.Sprintf("avg spend per replica's books: %.4g replicated (shared, merged) vs %.4g unreplicated (each pays alone) of ε_G=%g",
				repl.avgSpent, unrepl.avgSpent, replicasEps),
		},
	}, nil
}

// replicasPairs builds the distinct (predicate, window) workload.
func replicasPairs(env *Env, sc Scale) ([]*query.Query, error) {
	w := sc.PartitionedQueries / 16
	if w < 24 {
		w = 24
	}
	if w > 96 {
		w = 96 // every pair runs the PMW machinery once; keep the fleet honest but quick
	}
	parts := env.DS.Partitions()
	seen := make(map[string]bool, w)
	out := make([]*query.Query, 0, w)
	for i := 0; len(out) < w; i++ {
		q := env.Pool[i%len(env.Pool)]
		s := i % parts
		e := s + (i/parts)%(parts-s)
		wq := q.WithWindow(s, e)
		key := wq.KeyWithWindow()
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, wq)
	}
	return out, nil
}

// replicasMetrics is one fleet's outcome.
type replicasMetrics struct {
	executions   int
	free         int
	remoteShared int
	avgSpent     float64
}

// replicasRun fires every pair at every replica of a fresh fleet
// concurrently. shared=true builds the fleet over one store.File with
// replica identities; shared=false gives each replica its own private
// backend (today's deployment: N independent servers).
func replicasRun(sc Scale, pairs []*query.Query, shared bool) (replicasMetrics, error) {
	var m replicasMetrics

	var be store.Backend
	if shared {
		dir, err := os.MkdirTemp("", "turbo-replicas-")
		if err != nil {
			return m, err
		}
		defer os.RemoveAll(dir)
		f, err := store.NewFile(store.FileConfig{Dir: dir})
		if err != nil {
			return m, err
		}
		defer f.Close()
		be = f
	}

	fleet := make([]*core.Session, replicaFleetSize)
	for r := range fleet {
		// Fresh dataset per replica: identical content (same scale and
		// seed), so replicas agree on cache keys and data versions.
		envRun, err := NewCovidEnv(sc, replicasSeed)
		if err != nil {
			return m, err
		}
		cfg := core.Config{
			Mode:  core.Partitioned,
			Alpha: envRun.Alpha, Beta: envRun.Beta, EpsilonGlobal: replicasEps,
			Tau:       envRun.Tau,
			Structure: tree.Binary,
			Seed:      replicasSeed,
			Shards:    2,
		}
		if shared {
			cfg.Backend = be
			cfg.ReplicaID = fmt.Sprintf("replica-%d", r)
		}
		sess, err := core.NewSession(cfg, envRun.DS)
		if err != nil {
			return m, err
		}
		fleet[r] = sess
	}

	for _, q := range pairs {
		var wg sync.WaitGroup
		start := make(chan struct{})
		errs := make([]error, len(fleet))
		for r, sess := range fleet {
			wg.Add(1)
			go func(r int, sess *core.Session) {
				defer wg.Done()
				<-start
				_, errs[r] = sess.Answer(q)
			}(r, sess)
		}
		close(start)
		wg.Wait()
		for r, err := range errs {
			if err != nil {
				return m, fmt.Errorf("replica %d: %w", r, err)
			}
		}
	}

	spent := 0.0
	for _, sess := range fleet {
		m.executions += sess.Tree().Stats().Queries
		m.remoteShared += sess.RemoteShared()
		counts := sess.SourceCounts()
		m.free += counts[core.SourceExactHit] + sess.Deduped()
		if shared {
			if err := sess.Accountant().SyncShared(); err != nil {
				return m, err
			}
		}
		spent += sess.Accountant().AverageSpent()
	}
	m.avgSpent = spent / float64(len(fleet))

	if shared {
		// Zero double-spend: after a sync, every replica's merged view of
		// every partition agrees exactly and stays within ε_G.
		parts := fleet[0].Accountant().Partitions()
		for p := 0; p < parts; p++ {
			want := fleet[0].Accountant().SpentAt(p)
			if want > replicasEps {
				return m, fmt.Errorf("partition %d over ε_G: %g", p, want)
			}
			for r := 1; r < len(fleet); r++ {
				if got := fleet[r].Accountant().SpentAt(p); got != want {
					return m, fmt.Errorf("partition %d: replica %d sees %g, replica 0 sees %g", p, r, got, want)
				}
			}
		}
	}
	return m, nil
}
