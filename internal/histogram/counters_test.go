package histogram

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/query"
)

// fracBits is the number of fractional bits of x: the least k with x·2^k
// an integer.
func fracBits(x float64) int {
	k := 0
	for ; x != math.Trunc(x); k++ {
		x *= 2
	}
	return k
}

// TestCountersMatchFloat64Oracle: counters that take integer increments
// and two-way averages across 20 levels, a chain of warm starts as deep
// as a tree over 2^20 partitions, equal a float64 oracle bit for bit. The
// chain reaches counts with at least 15 fractional bits, so the float32
// significand is what is tested, not only small integers.
func TestCountersMatchFloat64Oracle(t *testing.T) {
	d := dom()
	rng := rand.New(rand.NewSource(11))
	update := func(h *Histogram, want []float64, k int) {
		for range k {
			q := randomQuery(t, d, rng)
			h.Update(q, 0.05)
			q.ForEachBin(func(bin int) { want[bin]++ })
		}
	}
	h, want := NewUniform(d.Size()), make([]float64, d.Size())
	update(h, want, 3)
	deepest := 0
	for level := 1; level <= 20; level++ {
		sib, sibWant := NewUniform(d.Size()), make([]float64, d.Size())
		update(sib, sibWant, 1+rng.Intn(3))
		avg, err := Average(h, sib)
		if err != nil {
			t.Fatal(err)
		}
		for bin := range want {
			want[bin] = (want[bin] + sibWant[bin]) * 0.5
		}
		h = avg
		update(h, want, rng.Intn(3))
		for bin, w := range want {
			if got := h.Count(bin); math.Float64bits(got) != math.Float64bits(w) {
				t.Fatalf("level %d, bin %d: counter %v, float64 oracle %v", level, bin, got, w)
			}
			deepest = max(deepest, fracBits(w))
		}
	}
	if deepest < 15 {
		t.Fatalf("the deepest count has %d fractional bits, want >= 15", deepest)
	}
}

// TestFromStateRefusesNonFloat32Count: a state count that is not a
// float32 counter's value, such as 0.1, is refused naming its bin, and
// every count State writes, a warm start's 0.5 among them, restores.
func TestFromStateRefusesNonFloat32Count(t *testing.T) {
	d := dom()
	q := query.MustNew(d, map[int][]int{0: {2}, 1: {5}})
	bin := -1
	q.ForEachBin(func(b int) { bin = b })
	a, b := NewUniform(d.Size()), NewUniform(d.Size())
	a.Update(q, 0.2)
	h, err := Average(a, b)
	if err != nil {
		t.Fatal(err)
	}
	st := h.State()
	if _, err := FromState(st); err != nil || st.Counts[bin] != 0.5 {
		t.Fatalf("State's own counts (bin %d: %v): %v", bin, st.Counts[bin], err)
	}
	for _, bad := range []float64{0.1, math.NaN(), 1 + 1.0/(1<<30)} {
		st.Counts = append([]float64(nil), st.Counts...)
		st.Counts[bin] = bad
		if _, err := FromState(st); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("bin %d", bin)) {
			t.Fatalf("count %v: FromState = %v, want a refusal naming bin %d", bad, err, bin)
		}
	}
}
