// Cache-pressure experiment: the in-memory store built with a byte cap
// (segmented-LRU eviction) against the same store built without one,
// under a replaying zipf workload whose working set is ~2x the cap. The question a
// long-lived deployment asks: how much exact-cache hit rate does bounding
// resident cache state cost, and does the bound actually hold? With
// privacy-cost-aware eviction the answer should be "little": the zipf
// head stays resident, the cold tail re-pays on the rare re-reference,
// and entry count/bytes never exceed the cap.

package bench

import (
	"fmt"
	"runtime"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/tree"
	"repro/internal/workload"
)

// cachePressureSeed keeps the experiment deterministic.
const cachePressureSeed = 131

// CachePressure replays a skewed workload over an unbounded and a
// byte-capped session (cap = half the unbounded working set) and reports
// hit rate, resident entries/bytes vs cap, evictions, and budget spend.
func CachePressure(sc Scale) (Result, error) {
	env, err := NewCovidEnv(sc, cachePressureSeed)
	if err != nil {
		return Result{}, err
	}

	// Working set: distinct (predicate, window) pairs, zipf-replayed.
	pairs, err := cachePressurePairs(env, sc)
	if err != nil {
		return Result{}, err
	}
	replayZ, err := workload.NewZipf(pairs, 1, env.Rng.Fork())
	if err != nil {
		return Result{}, err
	}
	n := sc.PartitionedQueries
	if n < 4*len(pairs) {
		n = 4 * len(pairs) // enough draws to cycle the working set
	}
	replay := replayZ.SampleN(n)

	// Unbounded baseline fixes the working-set size in bytes.
	unb, err := cachePressureRun(env, sc, nil, replay)
	if err != nil {
		return Result{}, fmt.Errorf("bench: cache-pressure unbounded: %w", err)
	}
	capBytes := unb.bytes / 2
	if capBytes <= 0 {
		return Result{}, fmt.Errorf("bench: cache-pressure: empty unbounded working set")
	}
	bounded, err := cachePressureRun(env, sc, func() store.Backend {
		return store.NewMem(store.MemConfig{MaxBytes: capBytes})
	}, replay)
	if err != nil {
		return Result{}, fmt.Errorf("bench: cache-pressure bounded: %w", err)
	}
	// The bound is the experiment's contract: a breach is a bug, not a
	// data point.
	if bounded.bytes > capBytes {
		return Result{}, fmt.Errorf("bench: cache-pressure: bounded backend holds %d bytes over the %d cap",
			bounded.bytes, capBytes)
	}

	mk := func(name string, u, b float64) Series {
		return Series{Name: name, Points: []Point{{X: 0, Y: u}, {X: 1, Y: b}}}
	}
	return Result{
		Name:   "cache-pressure",
		XLabel: "backend (0=unbounded, 1=bounded)",
		YLabel: "hit-rate / bytes / entries",
		Series: []Series{
			mk("hit-rate", unb.hitRate, bounded.hitRate),
			mk("store-bytes", float64(unb.bytes), float64(bounded.bytes)),
			mk("store-entries", float64(unb.entries), float64(bounded.entries)),
			mk("evictions", float64(unb.evictions), float64(bounded.evictions)),
			mk("heap-mb", unb.heapMB, bounded.heapMB),
		},
		Notes: []string{
			fmt.Sprintf("partitioned Covid, %d partitions, %d-pair working set replayed %d times zipf(k=1); cap = %d bytes (working set ≈ 2x cap)",
				sc.Weeks, len(pairs), n, capBytes),
			fmt.Sprintf("steady-state hit rate: %.3f unbounded vs %.3f bounded (Δ %.1f%%)",
				unb.hitRate, bounded.hitRate, 100*(unb.hitRate-bounded.hitRate)/maxf(unb.hitRate, 1e-9)),
			fmt.Sprintf("bounded store: %d entries / %d bytes under cap %d; %d evictions re-payable for ε=%.4g",
				bounded.entries, bounded.bytes, capBytes, bounded.evictions, bounded.evictedCost),
			fmt.Sprintf("avg spend: %.4g unbounded vs %.4g bounded of ε_G=%g (evictions re-pay, never corrupt the books)",
				unb.spent, bounded.spent, cachePressureEps),
		},
	}, nil
}

// maxf avoids a 0/0 in the delta note.
func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// cachePressureEps is a roomy global budget so the comparison measures
// caching, not exhaustion.
const cachePressureEps = 200.0

// cachePressurePairs builds the distinct (predicate, window) working set.
func cachePressurePairs(env *Env, sc Scale) ([]*query.Query, error) {
	wins := workload.NewWindows(env.Rng.Fork())
	parts := env.DS.Partitions()
	w := sc.PartitionedQueries / 8
	if w < 64 {
		w = 64
	}
	if max := 4 * len(env.Pool); w > max {
		w = max
	}
	seen := make(map[string]bool, w)
	out := make([]*query.Query, 0, w)
	for len(out) < w {
		q := env.Pool[len(seen)%len(env.Pool)]
		s, e := wins.UniformContiguous(parts)
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

// cachePressureMetrics is one backend's outcome.
type cachePressureMetrics struct {
	hitRate     float64
	bytes       int
	entries     int
	evictions   int64
	evictedCost float64
	spent       float64
	heapMB      float64
}

// cachePressureRun replays the workload on a fresh session over backend
// be (nil = default unbounded map), measuring the steady-state exact-hit
// rate over the second half of the replay.
func cachePressureRun(env *Env, sc Scale, be func() store.Backend, replay []*query.Query) (cachePressureMetrics, error) {
	var m cachePressureMetrics
	cfg := core.Config{
		Mode:  core.Partitioned,
		Alpha: env.Alpha, Beta: env.Beta, EpsilonGlobal: cachePressureEps,
		Tau:            env.Tau,
		Structure:      tree.Binary,
		NodeExactCache: true,
		Seed:           cachePressureSeed,
		Shards:         runtime.NumCPU(),
	}
	if be != nil {
		cfg.Backend = be()
	}
	// Fresh dataset per run: identical content (same scale and seed), so
	// both backends see byte-identical cache keys and versions.
	envRun, err := NewCovidEnv(sc, cachePressureSeed)
	if err != nil {
		return m, err
	}
	sess, err := core.NewSession(cfg, envRun.DS)
	if err != nil {
		return m, err
	}
	half := len(replay) / 2
	hits := 0
	for i, q := range replay {
		a, err := sess.Answer(q)
		if err != nil {
			return m, err
		}
		if i >= half && a.Source == core.SourceExactHit {
			hits++
		}
	}
	m.hitRate = float64(hits) / float64(len(replay)-half)
	st := sess.StoreStats()
	m.bytes = st.Bytes
	m.entries = st.Entries
	m.evictions = st.Evictions
	m.evictedCost = st.EvictedCost
	m.spent = sess.AverageSpent()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.heapMB = float64(ms.HeapAlloc) / (1 << 20)
	return m, nil
}
