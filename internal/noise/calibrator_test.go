package noise

import (
	"math"
	"sync"
	"testing"
)

// TestCalibratorEpsilonTimesRows: ε·n is one constant of (α, β, m) — the
// tail constraint sees n only through that product — and every n shares
// one memo entry.
func TestCalibratorEpsilonTimesRows(t *testing.T) {
	const alpha, beta = 0.05, 0.0005
	c := NewLaplaceCalibrator()
	ms := []int{2, 3, 5, 8}
	for _, m := range ms {
		want := laplaceSumQuantile(beta, m) / alpha
		for _, n := range []int{1, 1000, 1 << 20, 5_000_000} {
			got := c.Epsilon(alpha, beta, m, n) * float64(n)
			if diff := got/want - 1; diff > 1e-15 || diff < -1e-15 {
				t.Errorf("m=%d n=%d: ε·n = %v, want %v", m, n, got, want)
			}
		}
	}
	if len(c.memo) != len(ms) {
		t.Fatalf("memo holds %d entries for %d distinct m", len(c.memo), len(ms))
	}
	if st := c.Stats(); st.Misses != int64(len(ms)) || st.Hits != int64(3*len(ms)) {
		t.Fatalf("stats %+v, want %d misses and %d hits", st, len(ms), 3*len(ms))
	}
	// α only rescales: a second accuracy target reuses the entries.
	if got, want := c.Epsilon(0.1, beta, 5, 1000), c.Epsilon(alpha, beta, 5, 1000)/2; got != want {
		t.Errorf("α=0.1: ε=%v, want half of α=0.05's %v", got, want)
	}
	if len(c.memo) != len(ms) {
		t.Fatalf("a second α added memo entries: %d", len(c.memo))
	}
}

// TestCalibratorSingleQueryClosedForm: m = 1 bypasses the memo with the
// plain Laplace tail.
func TestCalibratorSingleQueryClosedForm(t *testing.T) {
	c := NewLaplaceCalibrator()
	if got, want := c.Epsilon(0.05, 0.001, 1, 5000), math.Log(1/0.001)/(5000*0.05); got != want {
		t.Fatalf("m=1: %v != closed form %v", got, want)
	}
	if len(c.memo) != 0 || c.Stats() != (CalibratorStats{}) {
		t.Fatalf("m=1 touched the memo: %d entries, %+v", len(c.memo), c.Stats())
	}
}

// TestCalibratorConcurrentFirstMiss: goroutines racing on one cold key
// solve it once and all observe the same ε.
func TestCalibratorConcurrentFirstMiss(t *testing.T) {
	c := NewLaplaceCalibrator()
	const callers = 8
	got := make([]float64, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = c.Epsilon(0.05, 0.0005, 6, 4096)
		}(i)
	}
	wg.Wait()
	for i, e := range got {
		if e != got[0] {
			t.Fatalf("caller %d observed ε=%v, caller 0 %v", i, e, got[0])
		}
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits != callers-1 {
		t.Fatalf("stats %+v, want 1 miss and %d hits", st, callers-1)
	}
}
