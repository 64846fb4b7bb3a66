package accountant

// The two sets of books this package kept before they became one —
// the scalar per-partition block, and the per-partition Rényi block that
// mirrored its converted spend into a scalar block — preserved here as
// reference models (single-threaded, no sharing, otherwise decision for
// decision), and TestModel, which drives random operation sequences
// through a model and today's Block side by side.

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// modelBlock is the old scalar Block.
type modelBlock struct {
	global float64
	spent  []float64
}

func newModelBlock(global float64, partitions int) *modelBlock {
	return &modelBlock{global: global, spent: make([]float64, partitions)}
}

func (b *modelBlock) addPartitions(k int) int {
	first := len(b.spent)
	b.spent = append(b.spent, make([]float64, k)...)
	return first
}

func (b *modelBlock) payRange(start, end int, eps float64) error {
	if eps < 0 || math.IsNaN(eps) {
		return fmt.Errorf("accountant: bad payment %g", eps)
	}
	if start < 0 || end >= len(b.spent) || start > end {
		return fmt.Errorf("accountant: bad partition range [%d,%d] of %d", start, end, len(b.spent))
	}
	for i := start; i <= end; i++ {
		if b.spent[i]+eps > b.global+1e-12 {
			return fmt.Errorf("%w: partition %d at %.6g + %.6g > %.6g",
				ErrBudgetExhausted, i, b.spent[i], eps, b.global)
		}
	}
	for i := start; i <= end; i++ {
		b.spent[i] += eps
	}
	return nil
}

func (b *modelBlock) averageSpent() float64 {
	if len(b.spent) == 0 {
		return 0
	}
	sum := 0.0
	for _, s := range b.spent {
		sum += s
	}
	return sum / float64(len(b.spent))
}

func (b *modelBlock) maxSpent() float64 {
	max := 0.0
	for _, s := range b.spent {
		if s > max {
			max = s
		}
	}
	return max
}

// modelCurve is the old Curve: an RDP privacy curve sampled at a fixed
// order grid, which payers used to build and hand over.
type modelCurve struct {
	Orders []float64
	Eps    []float64
}

func newModelCurve(orders []float64) modelCurve {
	return modelCurve{Orders: append([]float64(nil), orders...), Eps: make([]float64, len(orders))}
}

func modelLaplaceRDP(a, eps float64) float64 {
	if a <= 1 {
		return eps
	}
	t1 := math.Log(a/(2*a-1)) + eps*(a-1)
	t2 := math.Log((a-1)/(2*a-1)) - eps*a
	m := math.Max(t1, t2)
	return (math.Log(math.Exp(t1-m)+math.Exp(t2-m)) + m) / (a - 1)
}

func modelLaplaceCurve(orders []float64, eps float64) modelCurve {
	c := newModelCurve(orders)
	for i, a := range orders {
		c.Eps[i] = modelLaplaceRDP(a, eps)
	}
	return c
}

func modelGaussianCurve(orders []float64, sigma, delta2Sensitivity float64) modelCurve {
	c := newModelCurve(orders)
	for i, a := range orders {
		c.Eps[i] = a * delta2Sensitivity * delta2Sensitivity / (2 * sigma * sigma)
	}
	return c
}

func modelSVInitCurve(orders []float64, eps float64) modelCurve {
	c := newModelCurve(orders)
	for i, a := range orders {
		c.Eps[i] = modelLaplaceRDP(a, 2*eps) + 2*eps
	}
	return c
}

// modelRDPBlock is the old RDPBlock, mirror included.
type modelRDPBlock struct {
	orders   []float64
	global   modelCurve
	epsG     float64
	deltaG   float64
	spent    []modelCurve
	mirror   *modelBlock
	mirrored []float64
}

func newModelRDPBlock(orders []float64, epsG, deltaG float64, partitions int) *modelRDPBlock {
	g := newModelCurve(orders)
	for i, a := range orders {
		if a <= 1 {
			continue
		}
		b := epsG - math.Log(1/deltaG)/(a-1)
		if b < 0 {
			b = 0
		}
		g.Eps[i] = b
	}
	b := &modelRDPBlock{
		orders: append([]float64(nil), orders...),
		global: g, epsG: epsG, deltaG: deltaG,
		mirror: newModelBlock(epsG, partitions),
	}
	b.addPartitions(partitions)
	return b
}

// addPartitions grows the curves; as in the old session, the caller
// grows the mirror.
func (b *modelRDPBlock) addPartitions(k int) {
	for i := 0; i < k; i++ {
		b.spent = append(b.spent, newModelCurve(b.orders))
		b.mirrored = append(b.mirrored, 0)
	}
}

func (b *modelRDPBlock) payRange(start, end int, cost modelCurve) error {
	for _, e := range cost.Eps {
		if e < 0 || math.IsNaN(e) {
			return fmt.Errorf("accountant: bad curve payment %g", e)
		}
	}
	if start < 0 || end >= len(b.spent) || start > end {
		return fmt.Errorf("accountant: bad partition range [%d,%d] of %d", start, end, len(b.spent))
	}
	for p := start; p <= end; p++ {
		ok := false
		for i := range b.orders {
			if b.global.Eps[i] > 0 && b.spent[p].Eps[i]+cost.Eps[i] <= b.global.Eps[i]+1e-12 {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("%w: partition %d exceeded at every RDP order", ErrBudgetExhausted, p)
		}
	}
	for p := start; p <= end; p++ {
		for i := range b.orders {
			b.spent[p].Eps[i] += cost.Eps[i]
		}
	}
	b.mirrorRange(start, end)
	return nil
}

func (b *modelRDPBlock) mirrorRange(start, end int) {
	for p := start; p <= end; p++ {
		conv := b.convert(p)
		inc := conv - b.mirrored[p]
		if inc <= 0 {
			continue
		}
		if room := b.mirror.global - b.mirrored[p]; inc > room {
			inc = room
		}
		if inc <= 0 {
			continue
		}
		if err := b.mirror.payRange(p, p, inc); err == nil {
			b.mirrored[p] += inc
		}
	}
}

func (b *modelRDPBlock) convert(p int) float64 {
	zero := true
	for _, e := range b.spent[p].Eps {
		if e > 0 {
			zero = false
			break
		}
	}
	if zero {
		return 0
	}
	best := math.Inf(1)
	for i, a := range b.orders {
		if a <= 1 {
			continue
		}
		eps := b.spent[p].Eps[i] + math.Log(1/b.deltaG)/(a-1)
		if eps < best {
			best = eps
		}
	}
	return best
}

// books is what TestModel needs from a reference: the old pure block or
// the old Rényi block behind one face, so one driver exercises both
// grids.
type books interface {
	pay(start, end int, c Cost) error
	grow(k int)
	partitions() int
	// fits reports whether partition p alone would accept c, and near
	// whether that is decided within 1e-12 of the budget at some order.
	// Neither changes anything.
	fits(p int, c Cost) (fits, near bool)
	// compare checks got's ledger against the reference's.
	compare(t *testing.T, step int, got *Block)
}

type pureBooks struct{ m *modelBlock }

// pureEps is what the old callers handed the scalar block: ε for a
// Laplace release, 3·ε for a sparse-vector initialization.
func pureEps(c Cost) (float64, bool) {
	switch c.kind {
	case costLaplace:
		return c.x, true
	case costSVInit:
		return 3 * c.x, true
	}
	return 0, false
}

func (r pureBooks) pay(start, end int, c Cost) error {
	eps, ok := pureEps(c)
	if !ok {
		// The old pure books had no Gaussian payer at all; a mechanism
		// with no finite ε can only be a refusal.
		return fmt.Errorf("%w: no pure-ε price", ErrBudgetExhausted)
	}
	return r.m.payRange(start, end, eps)
}
func (r pureBooks) grow(k int)      { r.m.addPartitions(k) }
func (r pureBooks) partitions() int { return len(r.m.spent) }
func (r pureBooks) fits(p int, c Cost) (fits, near bool) {
	eps, ok := pureEps(c)
	if !ok {
		return false, false
	}
	return r.m.spent[p]+eps <= r.m.global+1e-12, math.Abs(r.m.spent[p]+eps-r.m.global) <= 1e-12
}
func (r pureBooks) compare(t *testing.T, step int, got *Block) {
	t.Helper()
	vec := got.SpentVector()
	if len(vec) != len(r.m.spent) {
		t.Fatalf("step %d: %d partitions, reference has %d", step, len(vec), len(r.m.spent))
	}
	for p, want := range r.m.spent {
		if vec[p] != want || got.SpentAt(p) != want || got.CurveAt(p)[0] != want {
			t.Fatalf("step %d: partition %d spent %v, reference %v (must be bit-identical)", step, p, vec[p], want)
		}
	}
	if got.AverageSpent() != r.m.averageSpent() || maxSpent(got) != r.m.maxSpent() {
		t.Fatalf("step %d: average/max %v/%v, reference %v/%v", step,
			got.AverageSpent(), maxSpent(got), r.m.averageSpent(), r.m.maxSpent())
	}
}

type renyiBooks struct{ m *modelRDPBlock }

func (r renyiBooks) curve(c Cost) modelCurve {
	switch c.kind {
	case costLaplace:
		return modelLaplaceCurve(r.m.orders, c.x)
	case costSVInit:
		return modelSVInitCurve(r.m.orders, c.x)
	default:
		return modelGaussianCurve(r.m.orders, c.x, c.d)
	}
}
func (r renyiBooks) pay(start, end int, c Cost) error {
	// The old curve constructors took any ε, and a negative one happens
	// to build a non-negative curve the old block would compose. No payer
	// ever passed one; today's block refuses it as malformed, as the
	// scalar block always did, so the reference checks it up front.
	if c.kind != costGaussian && (c.x < 0 || math.IsNaN(c.x)) {
		return fmt.Errorf("accountant: bad payment %g", c.x)
	}
	return r.m.payRange(start, end, r.curve(c))
}
func (r renyiBooks) grow(k int)      { r.m.mirror.addPartitions(k); r.m.addPartitions(k) }
func (r renyiBooks) partitions() int { return len(r.m.spent) }
func (r renyiBooks) fits(p int, c Cost) (fits, near bool) {
	cost := r.curve(c)
	for i, g := range r.m.global.Eps {
		if g > 0 && r.m.spent[p].Eps[i]+cost.Eps[i] <= g+1e-12 {
			fits = true
		}
		if g > 0 && math.Abs(r.m.spent[p].Eps[i]+cost.Eps[i]-g) <= 1e-12 {
			near = true
		}
	}
	return fits, near
}
func (r renyiBooks) compare(t *testing.T, step int, got *Block) {
	t.Helper()
	if n := len(got.SpentVector()); n != len(r.m.spent) {
		t.Fatalf("step %d: %d partitions, reference has %d", step, n, len(r.m.spent))
	}
	vec := got.SpentVector()
	for p := range r.m.spent {
		for i, want := range r.m.spent[p].Eps {
			if c := got.CurveAt(p)[i]; c != want {
				t.Fatalf("step %d: partition %d order %g spent %v, reference %v (must be bit-identical)",
					step, p, r.m.orders[i], c, want)
			}
		}
		// The old mirror faked in a second set of books what SpentAt now
		// derives: the partition's converted spend.
		if mir := r.m.mirror.spent[p]; math.Abs(vec[p]-mir) > 1e-12 || vec[p] != got.SpentAt(p) {
			t.Fatalf("step %d: partition %d converted spend %v, old mirror %v", step, p, vec[p], mir)
		}
	}
}

// sameVerdict compares two payment outcomes: accepted alike, and refused
// for the same kind of reason.
func sameVerdict(a, b error) bool {
	return (a == nil) == (b == nil) && errors.Is(a, ErrBudgetExhausted) == errors.Is(b, ErrBudgetExhausted)
}

func TestModel(t *testing.T) {
	const epsG, deltaG = 1.0, 1e-6
	grids := []struct {
		name string
		mk   func(parts int) (*Block, books)
		// fill builds a charge that lands partition p within off of its
		// budget — exactly on it for off = 0.
		fill func(b *Block, p int, off float64) Cost
	}{
		{"pure", func(parts int) (*Block, books) {
			return NewBlock(epsG, parts), pureBooks{newModelBlock(epsG, parts)}
		}, func(b *Block, p int, off float64) Cost {
			return Laplace(math.Max(0, epsG-b.CurveAt(p)[0]+off))
		}},
		{"renyi", func(parts int) (*Block, books) {
			return NewBlockForDP(DefaultOrders, epsG, deltaG, parts),
				renyiBooks{newModelRDPBlock(DefaultOrders, epsG, deltaG, parts)}
		}, func(b *Block, p int, off float64) Cost {
			// A Gaussian curve is α·s, so the order with the most room per
			// unit of α is the last to survive a growing s: putting that
			// order on its boundary puts the whole verdict there.
			spent, s := b.CurveAt(p), 1e-9
			for j, a := range b.orders {
				if b.budget[j] > 0 {
					s = math.Max(s, (b.budget[j]-spent[j]+off)/a)
				}
			}
			return Gaussian(1/math.Sqrt(2*s), 1)
		}},
	}
	for _, g := range grids {
		t.Run(g.name, func(t *testing.T) {
			var refused, straddled, boundary, grew int
			for seed := uint64(1); seed <= 6; seed++ {
				rng := rand.New(rand.NewPCG(seed, 18))
				got, ref := g.mk(3)
				pick := func() (int, int) {
					n := ref.partitions()
					start := rng.IntN(n+2) - 1 // occasionally out of range
					return start, start + rng.IntN(4) - (rng.IntN(8) / 7)
				}
				charge := func(start int) Cost {
					switch r := rng.IntN(16); {
					case r < 7:
						return Laplace(rng.Float64() * 0.2)
					case r < 10:
						return SVInit(rng.Float64() * 0.06)
					case r < 12:
						return Gaussian(0.5+4*rng.Float64(), 1)
					case r < 15 && start >= 0 && start < ref.partitions():
						return g.fill(got, start, []float64{0, 5e-13, -5e-13, 2e-12, -2e-12}[rng.IntN(5)])
					case r < 15:
						return Laplace(math.NaN())
					default:
						return Laplace(-0.1)
					}
				}
				// pay charges the reference, first noting what the charge
				// exercises: a refusal, one that straddles partitions that
				// would and would not take it, a boundary decision.
				pay := func(start, end int, c Cost) error {
					fit, bust := 0, 0
					for p := max(start, 0); p <= end && p < ref.partitions() && start <= end; p++ {
						f, near := ref.fits(p, c)
						if near {
							boundary++
						}
						if f {
							fit++
						} else {
							bust++
						}
					}
					err := ref.pay(start, end, c)
					if errors.Is(err, ErrBudgetExhausted) {
						refused++
						if fit > 0 && bust > 0 {
							straddled++
						}
					}
					return err
				}
				for step := 0; step < 1500; step++ {
					switch op := rng.IntN(20); {
					case op < 19:
						start, end := pick()
						c := charge(start)
						wantErr := pay(start, end, c)
						if err := got.PayRange(start, end, c); !sameVerdict(err, wantErr) {
							t.Fatalf("seed %d step %d: PayRange(%d,%d,%+v) = %v, reference %v", seed, step, start, end, c, err, wantErr)
						}
					default:
						if ref.partitions() < 14 {
							k := 1 + rng.IntN(2)
							ref.grow(k)
							if first := got.AddPartitions(k); first != ref.partitions()-k {
								t.Fatalf("seed %d step %d: AddPartitions(%d) = %d", seed, step, k, first)
							}
							grew++
						}
					}
					ref.compare(t, step, got)
				}
			}
			t.Logf("%s: refused %d (straddling %d), decided within 1e-12 of a budget %d, grew %d",
				g.name, refused, straddled, boundary, grew)
			if refused == 0 || straddled == 0 || boundary == 0 || grew == 0 {
				t.Fatalf("the run never refused (%d), never straddled an exhausted partition (%d), never hit a boundary (%d) or never grew (%d)",
					refused, straddled, boundary, grew)
			}
		})
	}
}
