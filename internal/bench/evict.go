// Eviction experiment: what capping the cache store costs in the paper's
// metric. The partitioned Covid and CitiBike Zipf(1) streams (Fig. 10's
// methodology) run first over an uncapped store, whose final payload bytes
// are the working set, then over the segmented LRU capped at 1/4, 1/2 and
// 1x of it. Each run reports its final average cumulative budget and its
// re-executions: answers, other than exact hits, to a (predicate, window)
// answered before — releases the store evicted and the session derived
// again. At 1x nothing is evicted, and the capped run repeats the uncapped
// one bit for bit.
//
// The store's eviction order is one list, not a function of the
// per-process hash seed, and every exact hit is a store read, so the runs
// are deterministic and the capped store is the cache: nothing in front
// of it goes on serving what it evicted.

package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/tree"
)

// evictCaps are the store caps, as fractions of the uncapped working set.
var evictCaps = []float64{0.25, 0.5, 1}

// Evict runs the eviction experiment on both datasets.
func Evict(sc Scale) (Result, error) {
	res := Result{
		Name:   "evict",
		XLabel: "store cap (fraction of the uncapped working set)",
		YLabel: "final avg budget / re-executions",
	}
	for _, d := range bothDatasets(122, 123) {
		env, err := d.mk(sc)
		if err != nil {
			return Result{}, err
		}
		queries, err := env.windowed(sc.PartitionedQueries, 1)
		if err != nil {
			return Result{}, err
		}
		uncapped, err := evictRun(env, queries, store.MemConfig{})
		if err != nil {
			return Result{}, err
		}
		slru := Series{Name: d.name + "/slru"}
		whole := Series{Name: d.name + "/uncapped"}
		reexec := Series{Name: d.name + "/slru re-executions"}
		for _, frac := range evictCaps {
			capped, err := evictRun(env, queries, store.MemConfig{MaxBytes: int(frac * float64(uncapped.bytes))})
			if err != nil {
				return Result{}, err
			}
			slru.Points = append(slru.Points, Point{X: frac, Y: capped.spent})
			whole.Points = append(whole.Points, Point{X: frac, Y: uncapped.spent})
			reexec.Points = append(reexec.Points, Point{X: frac, Y: float64(capped.reexec)})
		}
		res.Series = append(res.Series, slru, whole, reexec)
		res.Notes = append(res.Notes, fmt.Sprintf("%s: %d queries, Zipf(1) over uniform windows; working set %d entries, %d bytes; %d re-executions uncapped",
			d.name, len(queries), uncapped.entries, uncapped.bytes, uncapped.reexec))
	}
	return res, nil
}

// evictOutcome is one run's end state.
type evictOutcome struct {
	spent          float64
	reexec         int
	entries, bytes int
}

// evictRun drives the queries through a fresh partitioned session over a
// store built from mem.
func evictRun(env *Env, queries []*query.Query, mem store.MemConfig) (evictOutcome, error) {
	cfg := env.config(core.Partitioned, tree.Binary, 124)
	cfg.Backend = store.NewMem(mem)
	sess, err := core.NewSession(cfg, env.DS)
	if err != nil {
		return evictOutcome{}, err
	}
	var out evictOutcome
	answered := make(map[string]bool, len(queries))
	a := arm{
		answer: func(q *query.Query) error {
			ans, err := sess.Answer(q)
			if err != nil {
				return err
			}
			key := q.KeyWithWindow()
			if ans.Source != core.SourceExactHit && answered[key] {
				out.reexec++
			}
			answered[key] = true
			return nil
		},
		y: sess.AverageSpent,
	}
	if out.spent, err = final(a, len(queries), false, from(queries)); err != nil {
		return evictOutcome{}, err
	}
	st := sess.StoreStats()
	out.entries, out.bytes = st.Entries, st.Bytes
	return out, nil
}
