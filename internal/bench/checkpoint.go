// Checkpoint/restore experiment: the operational cost and payoff of the
// durable-state subsystem (internal/persist). A warmed partitioned
// session snapshots to disk (atomic temp-file+rename), a fresh session
// restores it, and the same workload replays against the restored
// session and against a cold start. Reported per accounting mode
// (pure-ε and Rényi — the latter exercises the RDP curve sections):
// snapshot and restore latency, snapshot size, and the post-restore vs
// cold exact-cache hit rate — the cache warmth a restart used to forfeit.

package bench

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/tree"
	"repro/internal/workload"
)

// checkpointSeed keeps the experiment deterministic.
const checkpointSeed = 97

// Checkpoint measures snapshot/restore latency and post-restore cache
// hit-rate vs a cold start, for pure-ε and Rényi accounting.
func Checkpoint(sc Scale) (Result, error) {
	modes := []struct {
		name     string
		gaussian bool
	}{
		{"pure-eps", false},
		{"renyi", true},
	}

	var snapMS, restMS, sizeKB, warmHit, coldHit Series
	snapMS.Name, restMS.Name, sizeKB.Name = "snapshot-ms", "restore-ms", "snapshot-kb"
	warmHit.Name, coldHit.Name = "restored-hit-rate", "cold-hit-rate"
	var notes []string
	for i, m := range modes {
		c, err := checkpointRun(sc, m.gaussian)
		if err != nil {
			return Result{}, fmt.Errorf("bench: checkpoint %s: %w", m.name, err)
		}
		x := float64(i)
		snapMS.Points = append(snapMS.Points, Point{X: x, Y: c.snapMS})
		restMS.Points = append(restMS.Points, Point{X: x, Y: c.restMS})
		sizeKB.Points = append(sizeKB.Points, Point{X: x, Y: c.sizeKB})
		warmHit.Points = append(warmHit.Points, Point{X: x, Y: c.warmHitRate})
		coldHit.Points = append(coldHit.Points, Point{X: x, Y: c.coldHitRate})
		notes = append(notes, fmt.Sprintf(
			"%s: %d warm queries; snapshot %.1fms/%.0fKB, restore %.1fms; replay hit-rate %.3f restored vs %.3f cold; replay spend %.4g restored vs %.4g cold",
			m.name, c.warmQueries, c.snapMS, c.sizeKB, c.restMS,
			c.warmHitRate, c.coldHitRate, c.warmSpent, c.coldSpent))
	}

	return Result{
		Name:   "checkpoint",
		XLabel: "accounting (0=pure-eps, 1=renyi)",
		YLabel: "latency / size / hit-rate",
		Series: []Series{snapMS, restMS, sizeKB, warmHit, coldHit},
		Notes: append([]string{
			fmt.Sprintf("partitioned Covid, %d partitions, GOMAXPROCS=%d; snapshots via atomic temp-file+rename",
				sc.Weeks, runtime.GOMAXPROCS(0)),
			"restored-hit-rate is the exact-cache hit rate replaying the warm workload after restore; cold-hit-rate replays it on a fresh session",
		}, notes...),
	}, nil
}

// checkpointMetrics is one accounting mode's outcome.
type checkpointMetrics struct {
	warmQueries            int
	snapMS, restMS, sizeKB float64
	warmHitRate, warmSpent float64
	coldHitRate, coldSpent float64
}

// checkpointSession builds the experiment's partitioned session.
func checkpointSession(env *Env, gaussian bool) (*core.Session, error) {
	cfg := core.Config{
		Mode:  core.Partitioned,
		Alpha: env.Alpha, Beta: env.Beta, EpsilonGlobal: 50,
		Tau:            env.Tau,
		Structure:      tree.Binary,
		NodeExactCache: true,
		Seed:           checkpointSeed,
		Shards:         runtime.NumCPU(),
	}
	if gaussian {
		cfg.Gaussian = true
		cfg.DeltaGlobal = 1e-9
	}
	return core.NewSession(cfg, env.DS)
}

// runReplay answers n deterministic queries on sess, returning the
// exact-cache hit count.
func runReplay(sess *core.Session, env *Env, n int) (hits int, err error) {
	z, err := workload.NewZipf(env.Pool, 1, env.Rng.Fork())
	if err != nil {
		return 0, err
	}
	wins := workload.NewWindows(env.Rng.Fork())
	parts := sess.Dataset().Partitions()
	for i := 0; i < n; i++ {
		s, e := wins.UniformContiguous(parts)
		q := z.Sample().WithWindow(s, e)
		a, err := sess.Answer(q)
		if err != nil {
			return hits, err
		}
		if a.Source == core.SourceExactHit {
			hits++
		}
	}
	return hits, nil
}

// checkpointRun drives one accounting mode: warm, snapshot, restore,
// replay-restored, replay-cold.
func checkpointRun(sc Scale, gaussian bool) (checkpointMetrics, error) {
	var m checkpointMetrics
	warm := sc.PartitionedQueries / 4
	if warm < 200 {
		warm = 200
	}
	m.warmQueries = warm

	// Deterministic environments: envs built from the same scale and seed
	// are identical datasets (same content, same version counter), which
	// is exactly the "same database, new process" restore contract.
	envWarm, err := NewCovidEnv(sc, checkpointSeed)
	if err != nil {
		return m, err
	}
	s1, err := checkpointSession(envWarm, gaussian)
	if err != nil {
		return m, err
	}
	if _, err := runReplay(s1, envWarm, warm); err != nil {
		return m, err
	}

	// Snapshot to disk, atomically.
	dir, err := os.MkdirTemp("", "turbo-checkpoint-*")
	if err != nil {
		return m, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "state.snap")
	t0 := time.Now()
	if err := persist.WriteFileAtomic(path, func(w io.Writer) error {
		return s1.SaveState(w)
	}); err != nil {
		return m, err
	}
	m.snapMS = float64(time.Since(t0).Microseconds()) / 1e3
	if fi, err := os.Stat(path); err == nil {
		m.sizeKB = float64(fi.Size()) / 1024
	}

	// Restore into a fresh session over an identical dataset.
	envRest, err := NewCovidEnv(sc, checkpointSeed)
	if err != nil {
		return m, err
	}
	s2, err := checkpointSession(envRest, gaussian)
	if err != nil {
		return m, err
	}
	f, err := os.Open(path)
	if err != nil {
		return m, err
	}
	t0 = time.Now()
	loadErr := s2.LoadState(f)
	m.restMS = float64(time.Since(t0).Microseconds()) / 1e3
	f.Close()
	if loadErr != nil {
		return m, loadErr
	}

	// Replay the warm workload on the restored session...
	hits, err := runReplay(s2, envRest, warm)
	if err != nil {
		return m, err
	}
	m.warmHitRate = float64(hits) / float64(warm)
	m.warmSpent = s2.AverageSpent() - s1.AverageSpent()

	// ...and on a cold session over yet another identical dataset.
	envCold, err := NewCovidEnv(sc, checkpointSeed)
	if err != nil {
		return m, err
	}
	s3, err := checkpointSession(envCold, gaussian)
	if err != nil {
		return m, err
	}
	hits, err = runReplay(s3, envCold, warm)
	if err != nil {
		return m, err
	}
	m.coldHitRate = float64(hits) / float64(warm)
	m.coldSpent = s3.AverageSpent()
	return m, nil
}
