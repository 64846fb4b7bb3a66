// Package histogram implements the multiplicative-weights histogram at the
// heart of PMW and PMW-Bypass (Alg. 1 of the Turbo paper).
//
// A histogram is a probability distribution h over the data domain X,
// initialized uniform and updated multiplicatively from DP query results:
//
//	g(v) ← h(v)·exp(s·q(v))    for a signed step s = ±lr
//	h(v) ← g(v) / Σ_w g(w)     (renormalize)
//
// Since Turbo's queries are predicates (q(v) ∈ {0,1}), an update multiplies
// exactly the bins in the query's support by e^s and renormalizes. Every
// per-query operation (Eval, Update, UpdateMass, MinSupportCount) is one
// loop over the query's memoized support bins (query.ResolvedSupport); the
// single PMW-Bypass and every tree node run the same kernels.
//
// The histogram also tracks per-bin purposeful-update counters c (Fig. 2 and
// Fig. 5 in the paper), which Turbo's readiness heuristic consumes. They are
// fractional, as warm-starting internal tree nodes averages children (Fig. 5
// shows e.g. c=0.5), and float32: 4 bytes a bin beside 8 of weight. That is
// exact: an update adds 1, and the tree's warm start (tree.Tree.warmStart)
// averages at most two children, one fractional bit a level, so a counter
// equals its float64 computation while its integer bits plus the tree's
// height fit in float32's 24-bit significand. Past that a counter rounds,
// which can change only a readiness decision: whether a query takes the SV
// or the Laplace route. That choice is post-processing of DP releases, and
// both routes are (α, β)-accurate, so neither ε nor accuracy moves.
package histogram

import (
	"fmt"
	"math"
	"unsafe"

	"repro/internal/query"
)

// Histogram is a normalized distribution over domain bins with per-bin
// update counters. It is not safe for concurrent mutation.
//
// Renormalization is lazy: weights store un-renormalized values and scale
// carries the accumulated renormalization product, so the true weight of
// bin i is weights[i]·scale. An update therefore touches only the support
// bins plus one scalar, instead of sweeping the whole domain; the scale is
// folded back into the weights ("settled") on a deterministic cadence —
// every settleEvery updates, or when the scale leaves its safe magnitude
// range — which keeps the stored values inside float64 range. The cadence
// depends only on the update count and the scale value, so a histogram's
// bits are a function of its update sequence alone. Read paths never
// settle (they fold the scale into their result instead), so reads stay
// non-mutating.
type Histogram struct {
	weights []float64
	counts  []float32
	scale   float64
	updates int // total number of purposeful updates applied
}

// settleEvery is the lazy-renormalization folding cadence. Between
// settles a bin grows by at most e^|step| per update; steps are learning
// rates well below 1, so 512 updates stay far inside float64 range.
const settleEvery = 512

// settle folds the pending scale into the stored weights. Called only
// from the update paths (on their deterministic cadence), never from
// readers.
func (h *Histogram) settle() {
	if h.scale == 1 {
		return
	}
	scaleAll(h.weights, h.scale)
	h.scale = 1
}

// maybeSettle applies the deterministic settle cadence after an update.
func (h *Histogram) maybeSettle() {
	if h.updates%settleEvery == 0 || h.scale < 1e-250 || h.scale > 1e250 {
		h.settle()
	}
}

// NewUniform returns the uniform distribution over a domain of the given
// size, with all counters zero.
func NewUniform(size int) *Histogram {
	if size <= 0 {
		panic(fmt.Sprintf("histogram: bad size %d", size))
	}
	h := alloc(size)
	fillFloat64(h.weights, 1.0/float64(size))
	return h
}

// alloc returns a histogram of size zero weights and counters, scale 1,
// its two vectors one array: size float64 weights, then ⌈size/2⌉ float64
// slots whose bytes are viewed as the size float32 counters.
func alloc(size int) *Histogram {
	buf := make([]float64, size+(size+1)/2)
	counts := unsafe.Slice((*float32)(unsafe.Pointer(&buf[size])), size)
	return &Histogram{weights: buf[:size:size], counts: counts, scale: 1}
}

// fillFloat64 sets every element of s to v by doubling copies, so large
// fills run at memmove speed instead of one store per iteration.
func fillFloat64(s []float64, v float64) {
	if len(s) == 0 {
		return
	}
	s[0] = v
	for i := 1; i < len(s); i *= 2 {
		copy(s[i:], s[:i])
	}
}

// FromWeights builds a histogram from an arbitrary non-negative weight
// vector, normalizing it. At least one weight must be positive.
func FromWeights(w []float64) (*Histogram, error) {
	sum := 0.0
	for i, x := range w {
		if x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("histogram: bad weight %g at bin %d", x, i)
		}
		sum += x
	}
	if sum <= 0 {
		return nil, fmt.Errorf("histogram: all weights zero")
	}
	h := alloc(len(w))
	for i, x := range w {
		h.weights[i] = x / sum
	}
	return h, nil
}

// Size returns the number of bins.
func (h *Histogram) Size() int { return len(h.weights) }

// Count returns the purposeful-update counter of bin, widened exactly.
func (h *Histogram) Count(bin int) float64 { return float64(h.counts[bin]) }

// Updates returns the total number of purposeful updates applied to h,
// including those inherited through warm-start.
func (h *Histogram) Updates() int { return h.updates }

// supportBins returns q's memoized support — the ascending bin indices
// with q(v) = 1 — after checking q spans h's domain. The memo is one
// atomic load, shared by every windowed clone of q.
func (h *Histogram) supportBins(q *query.Query) []int32 {
	if q.Domain().Size() != len(h.weights) {
		panic(fmt.Sprintf("histogram: query over domain size %d for %d bins",
			q.Domain().Size(), len(h.weights)))
	}
	return q.ResolvedSupport().Bins()
}

// checkStep rejects a non-finite update step.
func checkStep(step float64) {
	if math.IsNaN(step) || math.IsInf(step, 0) {
		panic(fmt.Sprintf("histogram: bad step %g", step))
	}
}

// Eval returns the histogram's estimate q(h) = q·h for a linear query: a
// gather-sum over q's support bins.
//
// The reduction runs four interleaved accumulator lanes — the i-th
// support bin (ascending) feeds lane i mod 4, and the lanes combine as
// (s0+s1)+(s2+s3). Update's mass loop follows this exact spec, so the
// mass it derives equals Eval on the same state bit for bit while
// neither serializes on FP add latency. The spec is pinned against a
// closure-walk reference in oracle_test.go.
func (h *Histogram) Eval(q *query.Query) float64 {
	bins := h.supportBins(q)
	w := h.weights
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(bins); i += 4 {
		b := bins[i : i+4 : i+4]
		s0 += w[b[0]]
		s1 += w[b[1]]
		s2 += w[b[2]]
		s3 += w[b[3]]
	}
	switch len(bins) - i {
	case 3:
		s0 += w[bins[i]]
		s1 += w[bins[i+1]]
		s2 += w[bins[i+2]]
	case 2:
		s0 += w[bins[i]]
		s1 += w[bins[i+1]]
	case 1:
		s0 += w[bins[i]]
	}
	return ((s0 + s1) + (s2 + s3)) * h.scale
}

// Update applies one multiplicative-weights step of signed size step
// (s = ±lr in Alg. 1) for query q, renormalizes, and increments the support
// bins' counters — O(|support|), not O(domain). A step of 0 is a no-op (the
// external-update rule emits 0 when not confident; see Alg. 1 l.33).
func (h *Histogram) Update(q *query.Query, step float64) {
	if step == 0 {
		return
	}
	checkStep(step)
	bins := h.supportBins(q)
	factor := math.Exp(step)
	// Support mass before the update (in stored units); the new total is
	// 1 + (factor-1)·mass·scale, and the renormalization division folds
	// into the scale instead of sweeping the domain. The mass reduction
	// follows Eval's 4-lane spec.
	w, c := h.weights, h.counts
	var m0, m1, m2, m3 float64
	i := 0
	for ; i+4 <= len(bins); i += 4 {
		b := bins[i : i+4 : i+4]
		m0 += w[b[0]]
		m1 += w[b[1]]
		m2 += w[b[2]]
		m3 += w[b[3]]
		w[b[0]] *= factor
		w[b[1]] *= factor
		w[b[2]] *= factor
		w[b[3]] *= factor
		c[b[0]]++
		c[b[1]]++
		c[b[2]]++
		c[b[3]]++
	}
	for j := i; j < len(bins); j++ {
		bin := bins[j]
		switch j & 3 {
		case 0:
			m0 += w[bin]
		case 1:
			m1 += w[bin]
		default:
			m2 += w[bin]
		}
		w[bin] *= factor
		c[bin]++
	}
	h.finishUpdate(factor, ((m0+m1)+(m2+m3))*h.scale)
}

// UpdateMass is Update with the support's histogram estimate precomputed:
// est must equal h.Eval(q) on the current state. The tree's split-phase
// Run snapshots the estimate at claim time and only applies updates when
// the node's epoch is untouched, so est is exactly the mass·scale product
// Update would derive — same bits — and the update loop becomes a pure
// scatter with no reduction over the support.
func (h *Histogram) UpdateMass(q *query.Query, step, est float64) {
	if step == 0 {
		return
	}
	checkStep(step)
	bins := h.supportBins(q)
	factor := math.Exp(step)
	w, c := h.weights, h.counts
	i := 0
	for ; i+4 <= len(bins); i += 4 {
		b := bins[i : i+4 : i+4]
		w[b[0]] *= factor
		w[b[1]] *= factor
		w[b[2]] *= factor
		w[b[3]] *= factor
		c[b[0]]++
		c[b[1]]++
		c[b[2]]++
		c[b[3]]++
	}
	for ; i < len(bins); i++ {
		w[bins[i]] *= factor
		c[bins[i]]++
	}
	h.finishUpdate(factor, est)
}

// finishUpdate folds one update's renormalization into the scale. est is
// the pre-update histogram estimate of the support, i.e. mass·scale.
func (h *Histogram) finishUpdate(factor, est float64) {
	h.scale /= 1 + (factor-1)*est
	h.updates++
	h.maybeSettle()
}

// scaleAll multiplies every weight by inv. The multiplies are mutually
// independent, so the 8-way unroll changes no result bit — it only buys
// back the loop overhead on the O(domain) settle sweep.
func scaleAll(w []float64, inv float64) {
	i := 0
	for ; i+8 <= len(w); i += 8 {
		s := w[i : i+8 : i+8]
		s[0] *= inv
		s[1] *= inv
		s[2] *= inv
		s[3] *= inv
		s[4] *= inv
		s[5] *= inv
		s[6] *= inv
		s[7] *= inv
	}
	for ; i < len(w); i++ {
		w[i] *= inv
	}
}

// MinSupportCount returns the smallest per-bin counter among the bins in
// q's support — the quantity Turbo's per-bin readiness heuristic thresholds.
func (h *Histogram) MinSupportCount(q *query.Query) float64 {
	min := float32(math.Inf(1))
	for _, bin := range h.supportBins(q) {
		if h.counts[bin] < min {
			min = h.counts[bin]
		}
	}
	return float64(min)
}

// Clone returns a deep copy of h, counters included. Used by the warm-start
// leaf procedure (§4.5): a new leaf copies the previous partition's leaf.
func (h *Histogram) Clone() *Histogram {
	c := alloc(len(h.weights))
	copy(c.weights, h.weights)
	copy(c.counts, h.counts)
	c.scale, c.updates = h.scale, h.updates
	return c
}

// Average returns the bin-wise average of the given histograms, used by the
// warm-start procedure for non-leaf tree nodes (§4.5). Counters and the
// update total are averaged too (a counter in float64, rounded once: exact
// for the tree's one or two children). All inputs must share a size.
func Average(hs ...*Histogram) (*Histogram, error) {
	if len(hs) == 0 {
		return nil, fmt.Errorf("histogram: Average of nothing")
	}
	size := hs[0].Size()
	for _, h := range hs {
		if h.Size() != size {
			return nil, fmt.Errorf("histogram: Average size mismatch %d vs %d", h.Size(), size)
		}
	}
	out := alloc(size)
	totalUpdates := 0
	for _, h := range hs {
		for i := range out.weights {
			out.weights[i] += h.weights[i] * h.scale
		}
		totalUpdates += h.updates
	}
	inv := 1 / float64(len(hs))
	for i := range out.weights {
		out.weights[i] *= inv
		sum := 0.0
		for _, h := range hs {
			sum += float64(h.counts[i])
		}
		out.counts[i] = float32(sum * inv)
	}
	out.updates = totalUpdates / len(hs)
	return out, nil
}

// MinWeight returns the smallest bin weight. Warm-start convergence
// (Thm A.9) requires h0(x) ≥ 1/(λ|X|); λ = 1/(MinWeight·|X|).
func (h *Histogram) MinWeight() float64 {
	min := math.Inf(1)
	for _, w := range h.weights {
		if w < min {
			min = w
		}
	}
	return min * h.scale
}

// Lambda returns the warm-start prior-flatness parameter λ ≥ 1 such that
// h(x) ≥ 1/(λ|X|) for all x (Thm A.9).
func (h *Histogram) Lambda() float64 {
	mw := h.MinWeight()
	if mw <= 0 {
		return math.Inf(1)
	}
	return 1 / (mw * float64(len(h.weights)))
}

// Normalized reports whether the weights form a distribution within tol.
// It exists for tests and debug assertions.
func (h *Histogram) Normalized(tol float64) bool {
	if h.scale <= 0 || math.IsNaN(h.scale) || math.IsInf(h.scale, 0) {
		return false
	}
	sum := 0.0
	for _, w := range h.weights {
		if w < 0 || math.IsNaN(w) {
			return false
		}
		sum += w
	}
	return math.Abs(sum*h.scale-1) <= tol
}

// MemoryBytes estimates the resident size of the histogram state, a float64
// weight and a float32 counter per bin, for the §6.5 memory evaluation.
func (h *Histogram) MemoryBytes() int {
	return 12 * len(h.weights)
}

// State is the serializable form of a histogram, for persisting caching
// state the way the prototype keeps it in Redis (§5). Counts are float64
// on the wire, each the exact widening of a float32 counter.
type State struct {
	Weights []float64
	Counts  []float64
	Updates int
}

// State exports a copy of the histogram's state. Pending renormalization
// is folded into the exported weights, so the serialized form is always
// the true distribution and round-trips through old snapshots.
func (h *Histogram) State() State {
	w := make([]float64, len(h.weights))
	for i, x := range h.weights {
		w[i] = x * h.scale
	}
	c := make([]float64, len(h.counts))
	for i, x := range h.counts {
		c[i] = float64(x)
	}
	return State{Weights: w, Counts: c, Updates: h.updates}
}

// FromState reconstructs a histogram, validating normalization, that
// every count is a finite, non-negative float32 counter's value and that
// the update count is non-negative (State writes no other).
func FromState(s State) (*Histogram, error) {
	if len(s.Weights) == 0 || len(s.Weights) != len(s.Counts) {
		return nil, fmt.Errorf("histogram: bad state (%d weights, %d counts)", len(s.Weights), len(s.Counts))
	}
	if s.Updates < 0 {
		return nil, fmt.Errorf("histogram: %d updates", s.Updates)
	}
	h := alloc(len(s.Weights))
	copy(h.weights, s.Weights)
	for i, x := range s.Counts {
		if float64(float32(x)) != x || x < 0 || math.IsInf(x, 0) {
			return nil, fmt.Errorf("histogram: count %g at bin %d is not a float32 counter", x, i)
		}
		h.counts[i] = float32(x)
	}
	h.updates = s.Updates
	if !h.Normalized(1e-6) {
		return nil, fmt.Errorf("histogram: state not normalized")
	}
	return h, nil
}
