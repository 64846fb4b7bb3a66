package tree

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/heuristic"
	"repro/internal/histogram"
	"repro/internal/interval"
	"repro/internal/query"
)

// oracleNode is the node getNode made before a node's state was built
// once: a uniform histogram and a default heuristic first, then replaced
// by what the warm start copied or averaged from the neighbours.
func oracleNode(t *Tree, iv interval.Node) *node {
	n := &node{
		iv:    iv,
		hist:  histogram.NewUniform(t.exec.Dataset().Domain().Size()),
		heur:  t.cfg.Heuristic(),
		lr:    t.cfg.LR(),
		tau:   t.cfg.Tau,
		alpha: t.cfg.Alpha,
	}
	if !t.cfg.WarmStart {
		return n
	}
	if iv.IsLeaf() {
		if iv.Start == 0 {
			return n
		}
		prev, ok := t.lookupNode(interval.Node{Start: iv.Start - 1, End: iv.End - 1})
		if !ok {
			return n
		}
		n.hist = prev.hist.Clone()
		if ws, ok := prev.heur.(heuristic.WarmStartable); ok {
			n.heur = ws.CloneState()
		}
		return n
	}
	left, right := iv.Children()
	var parents []*node
	for _, c := range []interval.Node{left, right} {
		if cn, ok := t.lookupNode(c); ok {
			parents = append(parents, cn)
		}
	}
	if len(parents) == 0 {
		return n
	}
	hists := make([]*histogram.Histogram, len(parents))
	heurs := make([]heuristic.Heuristic, len(parents))
	for i, p := range parents {
		hists[i] = p.hist
		heurs[i] = p.heur
	}
	if avg, err := histogram.Average(hists...); err == nil {
		n.hist = avg
	}
	if ws, ok := n.heur.(heuristic.WarmStartable); ok {
		if err := ws.AverageState(heurs); err == nil {
			n.heur = ws
		}
	}
	return n
}

// oracleCreate makes, with oracleNode and in the order the tree would,
// the nodes a run over [start, end] creates: the split's nodes that hold
// rows.
func oracleCreate(t *testing.T, tr *Tree, start, end int) {
	t.Helper()
	for _, iv := range tr.appendSplit(nil, start, end) {
		ni, err := tr.exec.Dataset().NRows(iv.Start, iv.End)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := tr.nodes[iv]; !ok && ni > 0 {
			tr.nodes[iv] = oracleNode(tr, iv)
		}
	}
}

// TestWarmStartMatchesOracle: over a streaming sequence — partitions
// arriving and warm-started eagerly, queries over trailing and earlier
// windows training leaves, penalizing heuristics and creating internal
// nodes — every node of the tree is bit-identical to the node of a twin
// tree whose nodes oracleNode made: histogram weights, counters and
// update total, heuristic thresholds.
func TestWarmStartMatchesOracle(t *testing.T) {
	for _, st := range []Structure{Binary, Flat} {
		mut := func(c *Config) { c.WarmStart, c.Structure = true, st }
		got, want := newFix(t, mut, 1e6, 2), newFix(t, mut, 1e6, 2)
		rng := rand.New(rand.NewPCG(5, uint64(st)))
		for step := range 40 {
			for _, f := range []*fix{got, want} {
				p := f.ds.AppendPartition()
				f.block.AddPartitions(1)
				for bin := range f.dom.Size() {
					_ = addCount(f.ds, p, bin, 500+100*bin+37*step)
				}
			}
			p := got.ds.Partitions() - 1
			oracleCreate(t, want.tree, p, p)
			got.tree.EagerWarmStart(p)
			want.tree.EagerWarmStart(p)
			for range 6 {
				start := max(0, p-rng.IntN(6))
				if rng.IntN(4) == 0 {
					start = rng.IntN(p + 1)
				}
				end := start + rng.IntN(p-start+1)
				pred := map[int][]int{0: {rng.IntN(2)}, 1: {rng.IntN(3), 3}}
				oracleCreate(t, want.tree, start, end)
				for _, f := range []*fix{got, want} {
					if _, err := f.tree.Run(query.MustNew(f.dom, pred).WithWindow(start, end)); err != nil {
						t.Fatal(err)
					}
				}
			}
			sameNodes(t, st, step, got.tree, want.tree)
		}
	}
}

// sameNodes fails unless a and b hold the same nodes with bit-identical
// state.
func sameNodes(t *testing.T, st Structure, step int, a, b *Tree) {
	t.Helper()
	if len(a.nodes) != len(b.nodes) {
		t.Fatalf("%v step %d: %d nodes, oracle %d", st, step, len(a.nodes), len(b.nodes))
	}
	bits := func(fs []float64) []uint64 {
		out := make([]uint64, len(fs))
		for i, f := range fs {
			out[i] = math.Float64bits(f)
		}
		return out
	}
	penalized := 0
	for iv, n := range a.nodes {
		o, ok := b.nodes[iv]
		if !ok {
			t.Fatalf("%v step %d: node %v not in the oracle", st, step, iv)
		}
		hs, os := n.hist.State(), o.hist.State()
		if !slices.Equal(bits(hs.Weights), bits(os.Weights)) || !slices.Equal(bits(hs.Counts), bits(os.Counts)) || hs.Updates != os.Updates {
			t.Fatalf("%v step %d: node %v histogram %+v, oracle %+v", st, step, iv, hs, os)
		}
		_, _, th := n.heur.(*heuristic.AdaptivePerBin).State()
		_, _, oth := o.heur.(*heuristic.AdaptivePerBin).State()
		if !slices.Equal(bits(th), bits(oth)) {
			t.Fatalf("%v step %d: node %v thresholds %v, oracle %v", st, step, iv, th, oth)
		}
		if th != nil {
			penalized++
		}
	}
	if step == 39 && penalized == 0 {
		t.Errorf("%v: no node was penalized, so no thresholds were compared", st)
	}
}
