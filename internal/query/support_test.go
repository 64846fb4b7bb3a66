package query

import (
	"math/rand"
	"testing"

	"repro/internal/domain"
)

func supportDom() *domain.Domain {
	return domain.MustNew(
		domain.Attribute{Name: "a", Card: 5},
		domain.Attribute{Name: "b", Card: 3},
		domain.Attribute{Name: "c", Card: 4},
	)
}

// TestResolveMatchesForEachBin: Resolve must emit exactly ForEachBin's
// bins, in the same (ascending) order.
func TestResolveMatchesForEachBin(t *testing.T) {
	d := supportDom()
	rng := rand.New(rand.NewSource(3))
	var sup Support
	for iter := 0; iter < 500; iter++ {
		allowed := map[int][]int{}
		for a := 0; a < d.NumAttrs(); a++ {
			if rng.Intn(2) == 0 {
				card := d.Card(a)
				k := 1 + rng.Intn(card)
				allowed[a] = rng.Perm(card)[:k]
			}
		}
		q, err := New(d, allowed)
		if err != nil {
			t.Fatal(err)
		}
		var want []int32
		q.ForEachBin(func(bin int) { want = append(want, int32(bin)) })
		q.Resolve(&sup)
		bins := sup.Bins()
		if len(bins) != len(want) {
			t.Fatalf("iter %d: Resolve emitted %d bins, ForEachBin %d", iter, len(bins), len(want))
		}
		for i := range bins {
			if bins[i] != want[i] {
				t.Fatalf("iter %d: bin %d: Resolve %d vs ForEachBin %d", iter, i, bins[i], want[i])
			}
			prev := int32(-1)
			if i > 0 {
				prev = bins[i-1]
			}
			if bins[i] <= prev {
				t.Fatalf("iter %d: bins not strictly ascending at %d: %v", iter, i, bins[:i+1])
			}
		}
		if len(bins) != q.SupportSize() {
			t.Fatalf("iter %d: %d bins, SupportSize %d", iter, len(bins), q.SupportSize())
		}
	}
}

// TestResolveReusesBuffers: a steady-state re-resolution over one domain
// must not allocate.
func TestResolveReusesBuffers(t *testing.T) {
	d := supportDom()
	q1 := MustNew(d, map[int][]int{0: {0, 2, 4}, 2: {1}})
	q2 := MustNew(d, map[int][]int{1: {0, 1}})
	var sup Support
	q1.Resolve(&sup) // size the buffers
	q2.Resolve(&sup)
	allocs := testing.AllocsPerRun(100, func() {
		q1.Resolve(&sup)
		q2.Resolve(&sup)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Resolve allocates %.1f/op, want 0", allocs)
	}
}
