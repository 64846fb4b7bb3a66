// Package accountant implements Turbo's privacy budget accounting: one
// per-partition block ledger (§4.4 block composition) whose stopping
// rule is the Rényi privacy filter of App. B Thm B.2. Pure-ε accounting
// is that filter on the one-order grid α = ∞; (ε_G, δ_G) accounting is
// the same filter on a grid of finite orders (§A.6).
//
// The privacy budget is a system resource: every DP mechanism must pay
// before running, and the block refuses the payment that would exceed
// the global guarantee. Every charge in the system passes through
// Block.PayRange; there is no second set of books and no registry of
// live mechanisms. Alg. 3's rule for concurrently composed interactive
// mechanisms — admit a new mechanism
// iff the composition of all declared budgets stays within budget — is
// exactly the block's atomic range payment: a sparse vector declares its
// whole budget when it is initialized, so admitting it is paying for it,
// and nothing about it needs tracking afterwards (spend is irrevocable).
package accountant

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// ErrBudgetExhausted is returned by a payment that would exceed the
// global guarantee. The DP engine must stop answering (§3.3).
var ErrBudgetExhausted = errors.New("accountant: privacy budget exhausted")

// tol is the one floating-point tolerance of every budget comparison: a
// payment is accepted at an order iff spent + cost ≤ budget + tol, and a
// partition is reported open at an order iff spent < budget − tol.
const tol = 1e-12

// Block tracks per-partition budgets and realizes parallel composition
// (block composition, §4.4 and [41]): a mechanism touching partitions I
// pays its cost against each i ∈ I, and the global guarantee holds as
// long as every partition individually stays within budget. Parallel
// composition holds order by order for Rényi DP exactly as it does for
// pure DP (partitions are disjoint data), so the ledger is one flat
// vector of partitions × |grid| per-order spends: stride 1 on the pure
// grid, len(orders) on a Rényi grid. New partitions may arrive over time
// (streaming databases). Block is safe for concurrent use; its mutex is
// the package's only one, and a leaf: nothing is acquired under it.
type Block struct {
	mu     sync.Mutex
	epsG   float64
	deltaG float64 // 0 on the pure grid
	// orders is the Rényi order grid; nil is the pure grid, whose single
	// order is α = ∞. That case is tagged, never represented as an
	// infinite float: it differs from a finite order in pricing
	// (priceLocked) and in conversion to ε (convert, spentLocked), and
	// nowhere else.
	orders []float64
	// budget[j] is every partition's budget at order j: ε_G on the pure
	// grid, max(0, ε_G − offset[j]) on a Rényi grid, where offset[j] =
	// ln(1/δ_G)/(α_j − 1) is what converting order j's spend to
	// (ε, δ_G)-DP adds — so any accepted history converts to at most ε_G.
	budget, offset []float64
	// spent[p·stride + j] is partition p's composed spend at order j.
	spent []float64
	// cost is the per-order price of the charge being applied, and priced
	// the Cost it was computed from: scratch owned by mu, so a payment
	// allocates nothing and a run of identical charges prices once.
	cost   []float64
	priced Cost
	// locks counts admission-relevant mutex acquisitions (payments and
	// budget checks, not metric reads); see LockAcquisitions.
	locks atomic.Uint64
	// expect is the partition count a staged ledger must cover when a
	// restore grows the session (ExpectPartitions).
	expect int
}

// NewBlock creates a pure-ε block accountant with the given number of
// initial partitions, each with budget ε_G = global.
func NewBlock(global float64, partitions int) *Block {
	if global <= 0 || math.IsNaN(global) {
		panic(fmt.Sprintf("accountant: bad global budget %g", global))
	}
	if partitions < 0 {
		panic(fmt.Sprintf("accountant: bad partition count %d", partitions))
	}
	return &Block{
		epsG:   global,
		budget: []float64{global},
		spent:  make([]float64, partitions),
		cost:   make([]float64, 1),
	}
}

// NewBlockForDP creates a block accountant whose per-order budgets
// jointly enforce (epsG, deltaG)-DP on every partition over the given
// grid of Rényi orders (each > 1).
func NewBlockForDP(orders []float64, epsG, deltaG float64, partitions int) *Block {
	if !(epsG > 0) || !(deltaG > 0 && deltaG < 1) {
		panic(fmt.Sprintf("accountant: bad DP target (%g,%g)", epsG, deltaG))
	}
	if partitions < 0 {
		panic(fmt.Sprintf("accountant: bad partition count %d", partitions))
	}
	if len(orders) == 0 {
		panic("accountant: empty order grid")
	}
	k := len(orders)
	b := &Block{
		epsG: epsG, deltaG: deltaG,
		orders: append([]float64(nil), orders...),
		budget: make([]float64, k),
		offset: make([]float64, k),
		spent:  make([]float64, partitions*k),
		cost:   make([]float64, k),
	}
	for j, a := range orders {
		if !(a > 1) {
			panic(fmt.Sprintf("accountant: bad Rényi order %g", a))
		}
		b.offset[j] = math.Log(1/deltaG) / (a - 1)
		b.budget[j] = math.Max(0, epsG-b.offset[j])
	}
	return b
}

// Global returns the per-partition ε_G.
func (b *Block) Global() float64 { return b.epsG }

// Delta returns δ_G (0 on the pure grid).
func (b *Block) Delta() float64 { return b.deltaG }

// Orders returns the Rényi order grid (nil on the pure grid).
func (b *Block) Orders() []float64 { return b.orders }

// AddPartition registers a newly-arrived partition (streaming use case) and
// returns its index.
func (b *Block) AddPartition() int {
	return b.AddPartitions(1)
}

// AddPartitions registers k newly-arrived partitions in one atomic epoch
// (batched streaming ingestion) and returns the index of the first. Growing
// all k under one lock acquisition keeps a concurrent reader from observing
// a partially-grown batch.
func (b *Block) AddPartitions(k int) int {
	if k <= 0 {
		panic(fmt.Sprintf("accountant: bad partition batch %d", k))
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	first := b.partitionsLocked()
	b.spent = append(b.spent, make([]float64, k*len(b.budget))...)
	return first
}

// Partitions returns the number of registered partitions.
func (b *Block) Partitions() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.partitionsLocked()
}

func (b *Block) partitionsLocked() int { return len(b.spent) / len(b.budget) }

// checkRangeLocked validates an inclusive partition range.
func (b *Block) checkRangeLocked(start, end int) error {
	if n := b.partitionsLocked(); start < 0 || end >= n || start > end {
		return fmt.Errorf("accountant: bad partition range [%d,%d] of %d", start, end, n)
	}
	return nil
}

// PayRange charges c against every partition in [start, end] inclusive.
// Per Thm B.2 a partition accepts when at least one order stays within
// its budget (on the pure grid: when spent + ε ≤ ε_G). The charge is
// atomic: if any partition would exceed its budget at every order,
// nothing is deducted anywhere and ErrBudgetExhausted is returned.
// Different partitions may survive at different orders.
func (b *Block) PayRange(start, end int, c Cost) error {
	b.locks.Add(1)
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.priceLocked(c); err != nil {
		return err
	}
	if err := b.checkRangeLocked(start, end); err != nil {
		return err
	}
	k := len(b.budget)
	for p := start; p <= end; p++ {
		fits := false
		for j, g := range b.budget {
			if g > 0 && b.spent[p*k+j]+b.cost[j] <= g+tol {
				fits = true
				break
			}
		}
		if !fits {
			return fmt.Errorf("%w: partition %d at %.6g of %.6g has no order left for the charge",
				ErrBudgetExhausted, p, b.convertedLocked(p), b.epsG)
		}
	}
	for p := start; p <= end; p++ {
		for j, e := range b.cost {
			b.spent[p*k+j] += e
		}
	}
	return nil
}

// openLocked is HasBudgetRange's advisory predicate: partition p retains
// headroom at some order, so a sufficiently small payment would still be
// accepted.
func (b *Block) openLocked(p int) bool {
	k := len(b.budget)
	for j, g := range b.budget {
		if b.spent[p*k+j] < g-tol {
			return true
		}
	}
	return false
}

// HasBudgetRange reports whether all partitions of [start, end] retain some
// budget.
func (b *Block) HasBudgetRange(start, end int) bool {
	b.locks.Add(1)
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.checkRangeLocked(start, end) != nil {
		return false
	}
	for p := start; p <= end; p++ {
		if !b.openLocked(p) {
			return false
		}
	}
	return true
}

// LockAcquisitions returns the cumulative number of admission-relevant
// lock acquisitions (PayRange, HasBudgetRange) on the block. Pure metric
// reads (SpentVector, AverageSpent, ...) are observers, not admission
// traffic, and are not counted.
func (b *Block) LockAcquisitions() uint64 { return b.locks.Load() }

// convertedLocked returns partition p's spend as an ε.
func (b *Block) convertedLocked(p int) float64 {
	k := len(b.budget)
	return b.convert(b.spent[p*k : (p+1)*k])
}

// convert turns one partition's per-order spend into an ε: the spend
// itself on the pure grid, and on a Rényi grid the (ε, δ_G)-DP
// conversion min_j spent_j + ln(1/δ_G)/(α_j − 1). An empty history is
// 0-DP, so the conversion's floor only applies once any mechanism
// actually ran.
func (b *Block) convert(row []float64) float64 {
	if b.orders == nil {
		return row[0]
	}
	best, zero := math.Inf(1), true
	for j, e := range row {
		if e > 0 {
			zero = false
		}
		if eps := e + b.offset[j]; eps < best {
			best = eps
		}
	}
	if zero {
		return 0
	}
	return best
}

// spentLocked returns every partition's spend as an ε, for reading under
// the lock: on the pure grid the ledger itself, not a copy.
func (b *Block) spentLocked() []float64 {
	if b.orders == nil {
		return b.spent
	}
	out := make([]float64, b.partitionsLocked())
	for p := range out {
		out[p] = b.convertedLocked(p)
	}
	return out
}

// SpentVector returns the per-partition consumption under one lock
// acquisition — the only consistent way to read several partitions. On a
// Rényi grid each entry is the partition's curve converted to
// (ε, δ_G)-DP.
func (b *Block) SpentVector() []float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]float64(nil), b.spentLocked()...)
}

// AverageSpent returns the average consumed budget across all partitions —
// the "avg. cumulative budget" metric plotted throughout §6.3 and §6.4.
func (b *Block) AverageSpent() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	spent := b.spentLocked()
	if len(spent) == 0 {
		return 0
	}
	sum := 0.0
	for _, s := range spent {
		sum += s
	}
	return sum / float64(len(spent))
}

// MaxSpent returns the highest per-partition consumption: the binding
// constraint on the global guarantee under parallel composition.
func (b *Block) MaxSpent() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	max := 0.0
	for _, s := range b.spentLocked() {
		if s > max {
			max = s
		}
	}
	return max
}

// Window is a partition range of a Block: the budget view of one
// PMW-Bypass instance, which pays against "its" partitions without
// knowing about the tree.
type Window struct {
	Block      *Block
	Start, End int
}

// Pay charges c to every partition of the window.
func (w Window) Pay(c Cost) error { return w.Block.PayRange(w.Start, w.End, c) }

// HasBudget reports whether every partition of the window has budget left.
func (w Window) HasBudget() bool { return w.Block.HasBudgetRange(w.Start, w.End) }

// Spent returns the maximum spend across the window's partitions.
func (w Window) Spent() float64 {
	max := 0.0
	for _, s := range w.Block.SpentVector()[w.Start : w.End+1] {
		if s > max {
			max = s
		}
	}
	return max
}
