// Package heuristic implements the ISHISTOGRAMREADY designs of §4.3: the
// free (no raw data access) predicate PMW-Bypass consults to decide whether
// the histogram is likely ready to answer a query within α, or whether the
// bypass branch should run the query directly through Laplace.
//
// Turbo's production design is the adaptive per-bin threshold: each bin
// starts with threshold C0, the heuristic declares a query ready when every
// support bin has received at least its threshold's worth of purposeful
// updates, and every time the heuristic errs (SV test fails after it said
// "ready") the thresholds of the least-updated support bins grow by S0.
//
// The package also implements the three ablation alternatives evaluated in
// §6.2 Question 4 — non-adaptive per-bin, adaptive global, and static
// global — plus the trivial AlwaysReady (vanilla PMW) and NeverReady
// (always bypass) policies, and the §A.5 cutoff wrapper that bounds how
// many queries can take the bypass branch.
package heuristic

import (
	"fmt"

	"repro/internal/histogram"
	"repro/internal/query"
)

// Heuristic decides readiness from histogram state alone; it never sees the
// raw data, so consulting it is free in privacy terms.
type Heuristic interface {
	// IsReady reports whether the histogram is likely to answer q within
	// the accuracy target.
	IsReady(h *histogram.Histogram, q *query.Query) bool
	// Penalize records that IsReady returned true but the SV test failed
	// for q, so the heuristic becomes more conservative.
	Penalize(h *histogram.Histogram, q *query.Query)
	// Name identifies the design in experiment output.
	Name() string
}

// Factory builds a fresh heuristic instance; the tree-structured cache uses
// one instance per node.
type Factory func() Heuristic

// WarmStartable heuristics can transfer their learned thresholds when a new
// tree node is warm-started from existing ones (§4.5).
type WarmStartable interface {
	Heuristic
	// CloneState returns a copy carrying the learned thresholds.
	CloneState() Heuristic
	// AverageState replaces this heuristic's thresholds with the mean of
	// the others', used when an internal node warm-starts from children.
	AverageState(others []Heuristic) error
}

// AdaptivePerBin is Turbo's heuristic: per-bin adaptive thresholds with
// initial value C0 and additive penalty step S0.
type AdaptivePerBin struct {
	c0, s0     float64
	thresholds []float64 // lazily sized to the histogram's bin count
}

// NewAdaptivePerBin returns the Turbo heuristic with the given C0 and S0.
func NewAdaptivePerBin(c0, s0 float64) *AdaptivePerBin {
	if c0 < 0 || s0 < 0 {
		panic(fmt.Sprintf("heuristic: bad parameters C0=%g S0=%g", c0, s0))
	}
	return &AdaptivePerBin{c0: c0, s0: s0}
}

// ensure materializes the per-bin threshold vector. A nil vector means
// every bin still sits at C0 — the readiness probes compare against the
// scalar directly, so a node that has never been penalized pays neither
// the O(domain) fill nor a per-probe threshold gather. Only the penalty
// paths, which must raise individual bins, materialize.
func (a *AdaptivePerBin) ensure(size int) {
	if a.thresholds == nil {
		a.thresholds = make([]float64, size)
		if size > 0 {
			// Doubling copies fill at memmove speed.
			a.thresholds[0] = a.c0
			for i := 1; i < size; i *= 2 {
				copy(a.thresholds[i:], a.thresholds[:i])
			}
		}
		return
	}
	if len(a.thresholds) != size {
		panic(fmt.Sprintf("heuristic: histogram size changed %d -> %d", len(a.thresholds), size))
	}
}

// IsReady requires every support bin's update counter to meet its own
// threshold.
func (a *AdaptivePerBin) IsReady(h *histogram.Histogram, q *query.Query) bool {
	bins := q.ResolvedSupport().Bins()
	if a.thresholds == nil {
		c0 := a.c0
		for _, bin := range bins {
			if h.Count(int(bin)) < c0 {
				return false
			}
		}
		return true
	}
	a.ensure(h.Size())
	for _, bin := range bins {
		if h.Count(int(bin)) < a.thresholds[bin] {
			return false
		}
	}
	return true
}

// Penalize raises the thresholds of q's least-updated support bins (those
// whose counter is the support's minimum) by S0, so one cold bin cannot
// penalize queries that only touch trained bins (§4.3 "Heuristic
// ISHISTOGRAMREADY"). It walks the support in place and allocates nothing
// once the thresholds exist.
func (a *AdaptivePerBin) Penalize(h *histogram.Histogram, q *query.Query) {
	least := h.MinSupportCount(q)
	a.ensure(h.Size())
	for _, bin := range q.ResolvedSupport().Bins() {
		if h.Count(int(bin)) == least {
			a.thresholds[bin] += a.s0
		}
	}
}

// Name implements Heuristic.
func (a *AdaptivePerBin) Name() string {
	return fmt.Sprintf("adaptive-per-bin(C0=%g,S0=%g)", a.c0, a.s0)
}

// State exports the heuristic's serializable state for persistence.
func (a *AdaptivePerBin) State() (c0, s0 float64, thresholds []float64) {
	return a.c0, a.s0, append([]float64(nil), a.thresholds...)
}

// SetThresholds restores previously exported thresholds; nil resets to
// the lazy C0 initialization.
func (a *AdaptivePerBin) SetThresholds(thresholds []float64) {
	if len(thresholds) == 0 {
		a.thresholds = nil
		return
	}
	a.thresholds = append([]float64(nil), thresholds...)
}

// CloneState implements WarmStartable.
func (a *AdaptivePerBin) CloneState() Heuristic {
	c := NewAdaptivePerBin(a.c0, a.s0)
	if a.thresholds != nil {
		c.thresholds = append([]float64(nil), a.thresholds...)
	}
	return c
}

// AverageState implements WarmStartable: thresholds become the mean of the
// given heuristics' thresholds (which must all be AdaptivePerBin).
func (a *AdaptivePerBin) AverageState(others []Heuristic) error {
	if len(others) == 0 {
		return fmt.Errorf("heuristic: AverageState of nothing")
	}
	var size int
	for _, o := range others {
		p, ok := o.(*AdaptivePerBin)
		if !ok {
			return fmt.Errorf("heuristic: AverageState across designs (%s vs %s)", a.Name(), o.Name())
		}
		if p.thresholds != nil {
			size = len(p.thresholds)
		}
	}
	if size == 0 {
		a.thresholds = nil // all parents untouched: stay at C0
		return nil
	}
	sum := make([]float64, size)
	for _, o := range others {
		p := o.(*AdaptivePerBin)
		for i := range sum {
			if p.thresholds == nil {
				sum[i] += p.c0
			} else {
				sum[i] += p.thresholds[i]
			}
		}
	}
	inv := 1 / float64(len(others))
	for i := range sum {
		sum[i] *= inv
	}
	a.thresholds = sum
	return nil
}

// StaticPerBin is the non-adaptive per-bin ablation: fixed threshold C0 on
// every bin, no penalties.
type StaticPerBin struct {
	c0 float64
}

// NewStaticPerBin returns the non-adaptive per-bin design.
func NewStaticPerBin(c0 float64) *StaticPerBin { return &StaticPerBin{c0: c0} }

// IsReady requires every support bin counter to reach C0.
func (s *StaticPerBin) IsReady(h *histogram.Histogram, q *query.Query) bool {
	return h.MinSupportCount(q) >= s.c0
}

// Penalize is a no-op: the design is not adaptive.
func (s *StaticPerBin) Penalize(*histogram.Histogram, *query.Query) {}

// Name implements Heuristic.
func (s *StaticPerBin) Name() string { return fmt.Sprintf("static-per-bin(C0=%g)", s.c0) }

// AdaptiveGlobal is the coarse-grained ablation with adaptivity: one
// histogram-level threshold on the total update count, raised by S0 on each
// error.
type AdaptiveGlobal struct {
	c, s0 float64
}

// NewAdaptiveGlobal returns the adaptive global-count design.
func NewAdaptiveGlobal(c0, s0 float64) *AdaptiveGlobal { return &AdaptiveGlobal{c: c0, s0: s0} }

// IsReady compares the histogram's total update count against the
// threshold.
func (g *AdaptiveGlobal) IsReady(h *histogram.Histogram, _ *query.Query) bool {
	return float64(h.Updates()) >= g.c
}

// Penalize raises the global threshold.
func (g *AdaptiveGlobal) Penalize(*histogram.Histogram, *query.Query) { g.c += g.s0 }

// Name implements Heuristic.
func (g *AdaptiveGlobal) Name() string { return fmt.Sprintf("adaptive-global(C=%g,S0=%g)", g.c, g.s0) }

// StaticGlobal is the fully coarse ablation: fixed histogram-level update
// count threshold.
type StaticGlobal struct {
	c0 float64
}

// NewStaticGlobal returns the static global-count design.
func NewStaticGlobal(c0 float64) *StaticGlobal { return &StaticGlobal{c0: c0} }

// IsReady compares total updates against C0.
func (g *StaticGlobal) IsReady(h *histogram.Histogram, _ *query.Query) bool {
	return float64(h.Updates()) >= g.c0
}

// Penalize is a no-op.
func (g *StaticGlobal) Penalize(*histogram.Histogram, *query.Query) {}

// Name implements Heuristic.
func (g *StaticGlobal) Name() string { return fmt.Sprintf("static-global(C0=%g)", g.c0) }

// AlwaysReady turns PMW-Bypass into vanilla PMW: every query goes through
// the SV test.
type AlwaysReady struct{}

// IsReady always reports true.
func (AlwaysReady) IsReady(*histogram.Histogram, *query.Query) bool { return true }

// Penalize is a no-op.
func (AlwaysReady) Penalize(*histogram.Histogram, *query.Query) {}

// Name implements Heuristic.
func (AlwaysReady) Name() string { return "always-ready(vanilla-pmw)" }

// NeverReady sends every query through the bypass branch: direct Laplace
// with external updates only. Useful as a degenerate baseline in tests.
type NeverReady struct{}

// IsReady always reports false.
func (NeverReady) IsReady(*histogram.Histogram, *query.Query) bool { return false }

// Penalize is a no-op.
func (NeverReady) Penalize(*histogram.Histogram, *query.Query) {}

// Name implements Heuristic.
func (NeverReady) Name() string { return "never-ready(direct-laplace)" }

// Cutoff wraps another heuristic and forces readiness after the wrapped
// design has sent k queries through the bypass branch, implementing the
// §A.5 bound on adversarial budget drain: after the cutoff, every
// budget-consuming query also yields a histogram update, so Thm A.4 bounds
// total consumption.
type Cutoff struct {
	inner    Heuristic
	k        int
	bypassed int
}

// NewCutoff wraps inner with a bypass budget of k queries; k ≤ 0 disables
// the wrapper's effect.
func NewCutoff(inner Heuristic, k int) *Cutoff { return &Cutoff{inner: inner, k: k} }

// IsReady defers to the wrapped heuristic until the cutoff is reached.
func (c *Cutoff) IsReady(h *histogram.Histogram, q *query.Query) bool {
	if c.k > 0 && c.bypassed >= c.k {
		return true
	}
	ready := c.inner.IsReady(h, q)
	if !ready {
		c.bypassed++
	}
	return ready
}

// Penalize defers to the wrapped heuristic.
func (c *Cutoff) Penalize(h *histogram.Histogram, q *query.Query) { c.inner.Penalize(h, q) }

// Name implements Heuristic.
func (c *Cutoff) Name() string { return fmt.Sprintf("cutoff(%s,k=%d)", c.inner.Name(), c.k) }
