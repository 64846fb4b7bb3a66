// Memoized exact Laplace calibration: the tree plane prices each
// jointly-calibrated group of m per-node releases with a map probe.
//
// The calibrated ε depends on the row count n and on α only through the
// product ε·n·α: the tail constraint Pr[|S_m|/ε > n·α] ≤ β is the event
// |S_m| > (ε·n)·α, so ε = t*/(n·α) with t* = laplaceSumQuantile(β, m) a
// constant of (β, m) alone. LaplaceCalibrator memoizes t* under that key;
// one entry serves every window length and every accuracy target sharing
// the failure probability.

package noise

import "sync"

// calibKey identifies one memoized quantile.
type calibKey struct {
	beta float64
	m    int
}

// CalibratorStats reports memo telemetry.
type CalibratorStats struct {
	Hits, Misses int64
}

// LaplaceCalibrator memoizes laplaceSumQuantile. Safe for concurrent
// use. The memo needs no bound: β is fixed by the owner's configuration
// and m by how many nodes one window can decompose into.
type LaplaceCalibrator struct {
	mu    sync.Mutex
	memo  map[calibKey]float64
	stats CalibratorStats
}

// NewLaplaceCalibrator returns an empty calibrator.
func NewLaplaceCalibrator() *LaplaceCalibrator {
	return &LaplaceCalibrator{memo: make(map[calibKey]float64)}
}

// Epsilon returns the per-subquery ε for m jointly-calibrated Laplace
// releases over nLap total rows at accuracy (alpha, beta): the smallest
// ε whose n-weighted combination errs by more than alpha with
// probability at most beta. m = 1 is the plain Laplace tail,
// ε = ln(1/β)/(n·α), and bypasses the memo.
func (c *LaplaceCalibrator) Epsilon(alpha, beta float64, m, nLap int) float64 {
	validateAccuracy(alpha, beta, nLap)
	if m <= 0 || m > maxLaplaceSum {
		panic("noise: subquery count out of range")
	}
	scale := float64(nLap) * alpha
	if m == 1 {
		return laplaceSumQuantile(beta, 1) / scale
	}
	k := calibKey{beta: beta, m: m}
	// A miss solves under the lock: the bisection is microseconds, and
	// concurrent first-askers of one key then wait for a single solve
	// instead of each running their own.
	c.mu.Lock()
	t, ok := c.memo[k]
	if ok {
		c.stats.Hits++
	} else {
		t = laplaceSumQuantile(beta, m)
		c.memo[k] = t
		c.stats.Misses++
	}
	c.mu.Unlock()
	return t / scale
}

// Stats returns cumulative memo telemetry.
func (c *LaplaceCalibrator) Stats() CalibratorStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Len returns the number of memoized quantiles resident.
func (c *LaplaceCalibrator) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.memo)
}
