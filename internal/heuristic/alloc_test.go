//go:build !race

package heuristic

import (
	"testing"

	"repro/internal/histogram"
	"repro/internal/query"
)

// TestPenalizeAllocs: once a heuristic's thresholds exist, the penalty a
// failing SV test applies allocates nothing: it walks the query's support
// bins in place. It read 3 while the least-updated bins were gathered
// into a slice first.
func TestPenalizeAllocs(t *testing.T) {
	d := dom()
	h := histogram.NewUniform(d.Size())
	train(h, query.MustNew(d, map[int][]int{0: {0}, 1: {0}}), 2)
	heur := NewAdaptivePerBin(1, 0.5)
	q := query.MustNew(d, map[int][]int{1: {0, 2}})
	heur.Penalize(h, q) // the thresholds, and q's resolved support
	if allocs := testing.AllocsPerRun(100, func() { heur.Penalize(h, q) }); allocs != 0 {
		t.Fatalf("Penalize allocates %v objects, want 0", allocs)
	}
	// AllocsPerRun calls it once more than it measures: 102 penalties.
	if got := heur.Threshold(d.Encode([]int{1, 2})); got != 1+102*0.5 {
		t.Fatalf("least-updated bin's threshold = %g after 102 penalties, want %g", got, 1+102*0.5)
	}
	if got := heur.Threshold(d.Encode([]int{0, 0})); got != 1 {
		t.Fatalf("trained bin's threshold = %g, want unchanged 1", got)
	}
}
