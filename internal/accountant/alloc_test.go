//go:build !race

package accountant

import "testing"

// TestPayRangeAllocs pins the payment hot path: pricing writes into
// scratch the block owns, so an accepted charge allocates nothing, and a
// refused one only its error — on the pure grid every answer of
// every partitioned session runs through, and on a Rényi grid too.
func TestPayRangeAllocs(t *testing.T) {
	for name, b := range map[string]*Block{
		"pure":  NewBlock(1e9, 8),
		"renyi": NewBlockForDP(DefaultOrders, 1e9, 1e-6, 8),
	} {
		i := 0
		pay := testing.AllocsPerRun(1000, func() {
			i++
			c := Laplace(1e-3 * float64(1+i%7)) // re-priced every time
			if i%3 == 0 {
				c = SVInit(1e-3)
			}
			if err := b.PayRange(i%4, 4+i%4, c); err != nil {
				t.Fatal(err)
			}
		})
		if pay != 0 {
			t.Errorf("%s: PayRange allocates %v per op, want 0", name, pay)
		}
	}
	// A refusal builds its error, and only that.
	full := NewBlock(1, 2)
	if err := full.PayRange(0, 1, Laplace(1)); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { _ = full.PayRange(0, 1, Laplace(0.5)) }); n > 4 {
		t.Errorf("a refused payment allocates %v per op", n)
	}
}
