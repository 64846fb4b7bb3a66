// Package accountant is a fixture stub mirroring the shape of the real
// internal/accountant API that chargepath keys on.
package accountant

// Cost names a mechanism; the block prices it.
type Cost struct{ eps float64 }

func Laplace(eps float64) Cost            { return Cost{eps} }
func Gaussian(sigma, delta2 float64) Cost { return Cost{sigma} }

type Block struct{ spent float64 }

func NewBlock(eps float64) *Block { return &Block{} }

func (b *Block) PayRange(lo, hi int, c Cost) error { b.spent += c.eps; return nil }
func (b *Block) HasBudgetRange(lo, hi int) bool    { return b.spent < 1 }
func (b *Block) ExpectPartitions(n int)            {}
func (b *Block) StagePayload(p []byte) (func(), error) {
	return func() {}, nil
}

// Window is a partition range of a block.
type Window struct{ Block *Block }

func (w Window) Pay(c Cost) error { return w.Block.PayRange(0, 0, c) }
