package tree

import (
	"errors"
	"maps"
	"math"
	"slices"
	"testing"

	"repro/internal/accountant"
	"repro/internal/dataset"
	"repro/internal/domain"
	"repro/internal/heuristic"
	"repro/internal/interval"
	"repro/internal/noise"
	"repro/internal/pmw"
	"repro/internal/query"
	"repro/internal/sparse"
)

// addCount loads count rows of the encoded value bin into partition p of
// ds: a one-hot BulkLoad.
func addCount(ds *dataset.Dataset, p, bin, count int) error {
	counts := make([]int, ds.Domain().Size())
	counts[bin] = count
	return ds.BulkLoad(p, counts)
}

// fix builds an 8-partition dataset with drifting positivity and a tree.
type fix struct {
	dom   *domain.Domain
	ds    *dataset.Dataset
	exec  *dataset.Executor
	block *accountant.Block
	tree  *Tree
}

func newFix(t *testing.T, mut func(*Config), global float64, partitions int) *fix {
	t.Helper()
	dom := domain.MustNew(
		domain.Attribute{Name: "p", Card: 2},
		domain.Attribute{Name: "a", Card: 4},
	)
	ds := dataset.New(dom, partitions)
	for w := 0; w < partitions; w++ {
		for a := 0; a < 4; a++ {
			pos := 1000 + 300*w + 100*a
			neg := 5000 - 200*a
			_ = addCount(ds, w, dom.Encode([]int{1, a}), pos)
			_ = addCount(ds, w, dom.Encode([]int{0, a}), neg)
		}
	}
	rng := noise.NewRng(23)
	exec := dataset.NewExecutor(ds, rng.Fork())
	block := accountant.NewBlock(global, partitions)
	cfg := Config{
		Alpha: 0.05, Beta: 0.001, Tau: 0.25,
		LR:        func() pmw.Schedule { return pmw.Constant(0.2) },
		Heuristic: func() heuristic.Heuristic { return heuristic.NewAdaptivePerBin(2, 1) },
	}
	if mut != nil {
		mut(&cfg)
	}
	tr, err := New(cfg, exec, block, rng.Fork())
	if err != nil {
		t.Fatal(err)
	}
	return &fix{dom: dom, ds: ds, exec: exec, block: block, tree: tr}
}

func TestConfigValidation(t *testing.T) {
	dom := domain.MustNew(domain.Attribute{Name: "x", Card: 2})
	ds := dataset.New(dom, 2)
	exec := dataset.NewExecutor(ds, noise.NewRng(1))
	block := accountant.NewBlock(1, 2)
	rng := noise.NewRng(1)
	bads := []Config{
		{Alpha: 0, Beta: 0.1, Tau: 0.2},
		{Alpha: 0.1, Beta: 0, Tau: 0.2},
		{Alpha: 0.1, Beta: 0.1, Tau: 0},
		{Alpha: 0.1, Beta: 0.1, Tau: 0.7},
	}
	for i, c := range bads {
		if _, err := New(c, exec, block, rng); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	good := Config{Alpha: 0.1, Beta: 0.1, Tau: 0.2}
	if _, err := New(good, nil, block, rng); err == nil {
		t.Error("nil executor accepted")
	}
	if _, err := New(good, exec, nil, rng); err == nil {
		t.Error("nil accountant accepted")
	}
	if _, err := New(good, exec, block, nil); err == nil {
		t.Error("nil rng accepted")
	}
}

func TestAnswerAccuracy(t *testing.T) {
	f := newFix(t, nil, 100, 8)
	q := query.MustNew(f.dom, map[int][]int{0: {1}}).WithWindow(1, 6)
	truth, _ := f.ds.TrueFraction(q, 1, 6)
	bad := 0
	const trials = 100
	for i := 0; i < trials; i++ {
		res, err := f.tree.Run(q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Value-truth) > 0.05 {
			bad++
		}
	}
	if bad > 2 {
		t.Fatalf("%d/%d tree answers outside α", bad, trials)
	}
}

func TestParallelCompositionChargesOnlyWindow(t *testing.T) {
	f := newFix(t, nil, 100, 8)
	q := query.MustNew(f.dom, map[int][]int{0: {1}}).WithWindow(2, 3)
	if _, err := f.tree.Run(q); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		spent := f.block.SpentVector()[i]
		if i >= 2 && i <= 3 {
			if spent == 0 {
				t.Fatalf("window partition %d not charged", i)
			}
		} else if spent != 0 {
			t.Fatalf("partition %d outside window charged %g", i, spent)
		}
	}
}

func TestFullWindowDefault(t *testing.T) {
	f := newFix(t, nil, 100, 8)
	q := query.MustNew(f.dom, map[int][]int{0: {1}}) // no window
	res, err := f.tree.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	truth, _ := f.ds.TrueFraction(q, 0, 7)
	if math.Abs(res.Value-truth) > 0.05 {
		t.Fatalf("full-window answer off: %g vs %g", res.Value, truth)
	}
}

func TestWindowValidation(t *testing.T) {
	f := newFix(t, nil, 100, 8)
	q := query.MustNew(f.dom, nil).WithWindow(5, 9)
	if _, err := f.tree.Run(q); err == nil {
		t.Fatal("out-of-range window accepted")
	}
}

func TestTrainingConvergesToSVPath(t *testing.T) {
	f := newFix(t, nil, 1000, 8)
	q := query.MustNew(f.dom, map[int][]int{0: {1}}).WithWindow(0, 7)
	for i := 0; i < 30; i++ {
		if _, err := f.tree.Run(q); err != nil {
			t.Fatal(err)
		}
	}
	st := f.tree.Stats()
	if st.SVPasses == 0 {
		t.Fatalf("tree never reached the free SV path: %+v", st)
	}
	// Once converged, repeated queries must stop consuming budget.
	spent := f.block.AverageSpent()
	for i := 0; i < 10; i++ {
		if _, err := f.tree.Run(q); err != nil {
			t.Fatal(err)
		}
	}
	if f.block.AverageSpent() > spent+1e-9 {
		t.Fatalf("converged tree still spending: %g -> %g", spent, f.block.AverageSpent())
	}
}

func TestLazyNodeCreation(t *testing.T) {
	f := newFix(t, nil, 100, 8)
	if f.tree.Nodes() != 0 {
		t.Fatal("nodes materialized before any query")
	}
	q := query.MustNew(f.dom, map[int][]int{0: {1}}).WithWindow(2, 3)
	if _, err := f.tree.Run(q); err != nil {
		t.Fatal(err)
	}
	// Window [2,3] is one dyadic node.
	if f.tree.Nodes() != 1 {
		t.Fatalf("Nodes = %d, want 1", f.tree.Nodes())
	}
	if f.tree.NodeHistogram(interval.Node{Start: 2, End: 3}) == nil {
		t.Fatal("node [2,3] missing")
	}
	if f.tree.NodeHistogram(interval.Node{Start: 0, End: 1}) != nil {
		t.Fatal("untouched node materialized")
	}
}

func TestFlatStructure(t *testing.T) {
	f := newFix(t, func(c *Config) { c.Structure = Flat }, 100, 8)
	q := query.MustNew(f.dom, map[int][]int{0: {1}}).WithWindow(0, 3)
	if _, err := f.tree.Run(q); err != nil {
		t.Fatal(err)
	}
	// Flat split materializes one node per partition.
	if f.tree.Nodes() != 4 {
		t.Fatalf("flat Nodes = %d, want 4", f.tree.Nodes())
	}
	if Flat.String() != "flat" || Binary.String() != "binary" {
		t.Fatal("structure names")
	}
}

func TestBudgetExhaustionAtomic(t *testing.T) {
	f := newFix(t, nil, 1e-9, 8)
	q := query.MustNew(f.dom, map[int][]int{0: {1}}).WithWindow(0, 7)
	_, err := f.tree.Run(q)
	if !errors.Is(err, accountant.ErrBudgetExhausted) {
		t.Fatalf("err = %v", err)
	}
}

func TestWarmStartLeafCopiesPrevious(t *testing.T) {
	f := newFix(t, func(c *Config) { c.WarmStart = true }, 1000, 8)
	// Train leaf [0,0] heavily.
	q := query.MustNew(f.dom, map[int][]int{0: {1}}).WithWindow(0, 0)
	for i := 0; i < 20; i++ {
		if _, err := f.tree.Run(q); err != nil {
			t.Fatal(err)
		}
	}
	h0 := f.tree.NodeHistogram(interval.Node{Start: 0, End: 0})
	if h0 == nil || h0.Updates() == 0 {
		t.Fatal("leaf 0 not trained")
	}
	// First touch of leaf [1,1] must clone leaf [0,0]'s state.
	q1 := query.MustNew(f.dom, map[int][]int{0: {1}}).WithWindow(1, 1)
	if _, err := f.tree.Run(q1); err != nil {
		t.Fatal(err)
	}
	h1 := f.tree.NodeHistogram(interval.Node{Start: 1, End: 1})
	if h1 == nil {
		t.Fatal("leaf 1 missing")
	}
	if h1.Updates() < h0.Updates() {
		t.Fatalf("leaf 1 did not inherit training: %d < %d", h1.Updates(), h0.Updates())
	}
}

func TestWarmStartInternalAveragesChildren(t *testing.T) {
	f := newFix(t, func(c *Config) { c.WarmStart = true }, 1000, 8)
	// Train leaves [0,0] and [1,1].
	for _, w := range [][2]int{{0, 0}, {1, 1}} {
		q := query.MustNew(f.dom, map[int][]int{0: {1}}).WithWindow(w[0], w[1])
		for i := 0; i < 10; i++ {
			if _, err := f.tree.Run(q); err != nil {
				t.Fatal(err)
			}
		}
	}
	// First touch of [0,1] should average the children.
	q := query.MustNew(f.dom, map[int][]int{0: {1}}).WithWindow(0, 1)
	if _, err := f.tree.Run(q); err != nil {
		t.Fatal(err)
	}
	h := f.tree.NodeHistogram(interval.Node{Start: 0, End: 1})
	if h == nil {
		t.Fatal("node [0,1] missing")
	}
	l := f.tree.NodeHistogram(interval.Node{Start: 0, End: 0})
	r := f.tree.NodeHistogram(interval.Node{Start: 1, End: 1})
	// A warm-started internal node reflects child counters (allowing for
	// updates applied by the very query that created it).
	if h.Count(4) < (l.Count(4)+r.Count(4))/2-1e-9 {
		t.Fatal("internal node ignored children state")
	}
	if h.Updates() == 0 {
		t.Fatal("internal node has no inherited updates")
	}
}

func TestColdWarmStartStaysUniform(t *testing.T) {
	f := newFix(t, func(c *Config) { c.WarmStart = true }, 1000, 8)
	q := query.MustNew(f.dom, map[int][]int{0: {1}}).WithWindow(4, 4)
	if _, err := f.tree.Run(q); err != nil {
		t.Fatal(err)
	}
	h := f.tree.NodeHistogram(interval.Node{Start: 4, End: 4})
	// Leaf [3,3] does not exist, so leaf [4,4] starts uniform; it may have
	// received at most this query's update.
	if h.Updates() > 1 {
		t.Fatalf("cold leaf inherited %d updates from nowhere", h.Updates())
	}
}

func TestMemoryBytesScalesWithNodes(t *testing.T) {
	f := newFix(t, nil, 1000, 8)
	if f.tree.MemoryBytes() != 0 {
		t.Fatal("memory before any node")
	}
	q := query.MustNew(f.dom, map[int][]int{0: {1}}).WithWindow(0, 7)
	if _, err := f.tree.Run(q); err != nil {
		t.Fatal(err)
	}
	want := f.tree.Nodes() * 12 * f.dom.Size()
	if f.tree.MemoryBytes() != want {
		t.Fatalf("MemoryBytes = %d, want %d", f.tree.MemoryBytes(), want)
	}
}

func TestEmptyPartitionsSkipped(t *testing.T) {
	dom := domain.MustNew(domain.Attribute{Name: "x", Card: 2})
	ds := dataset.New(dom, 4)
	_ = addCount(ds, 0, 1, 100)
	_ = addCount(ds, 1, 1, 100) // partitions 2,3 empty
	rng := noise.NewRng(5)
	exec := dataset.NewExecutor(ds, rng.Fork())
	block := accountant.NewBlock(100, 4)
	tr, err := New(Config{Alpha: 0.1, Beta: 0.01, Tau: 0.25}, exec, block, rng.Fork())
	if err != nil {
		t.Fatal(err)
	}
	// Window [2,3] decomposes to the single empty node [2,3]: nothing to
	// release, nothing charged.
	qEmpty := query.MustNew(dom, map[int][]int{0: {1}}).WithWindow(2, 3)
	res, err := tr.Run(qEmpty)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 0 || res.Paid != 0 {
		t.Fatalf("empty window answered %+v, want free zero", res)
	}
	if block.SpentVector()[2] != 0 || block.SpentVector()[3] != 0 {
		t.Fatal("empty node charged")
	}
	// Window [0,3] is one dyadic node whose range includes the empty
	// partitions: Alg. 2 charges the whole node range.
	q := query.MustNew(dom, map[int][]int{0: {1}}).WithWindow(0, 3)
	res, err = tr.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Value-1.0) > 0.15 {
		t.Fatalf("answer = %g, want ≈1 (all rows match)", res.Value)
	}
	if block.SpentVector()[3] == 0 {
		t.Fatal("node-range partition not charged under block composition")
	}
}

func TestWorstCaseUpdateBound(t *testing.T) {
	f := newFix(t, nil, 1000, 8)
	eta := 0.005
	got := worstCaseUpdateBound(f.tree, eta)
	// T=8, m=3: (m+1)·T·ln|X| / (η(τα−η)/2).
	want := 4 * 8 * math.Log(8) / (eta * (0.25*0.05 - eta) / 2)
	if math.Abs(got-want)/want > 1e-12 {
		t.Fatalf("bound = %g, want %g", got, want)
	}
	if !math.IsInf(worstCaseUpdateBound(f.tree, 0.05), 1) {
		t.Fatal("violated precondition not rejected")
	}
}

func TestEmpiricalTreeUpdatesWithinBound(t *testing.T) {
	eta := 0.005
	f := newFix(t, func(c *Config) {
		c.LR = func() pmw.Schedule { return pmw.Constant(eta) }
	}, 1e6, 8)
	wins := [][2]int{{0, 7}, {0, 3}, {4, 7}, {2, 5}, {0, 0}, {3, 3}, {6, 7}, {1, 6}}
	for round := 0; round < 100; round++ {
		for _, w := range wins {
			q := query.MustNew(f.dom, map[int][]int{0: {1}}).WithWindow(w[0], w[1])
			if _, err := f.tree.Run(q); err != nil {
				t.Fatal(err)
			}
		}
	}
	bound := worstCaseUpdateBound(f.tree, eta)
	if got := float64(f.tree.Stats().NodeUpdates); got > bound {
		t.Fatalf("node updates %g exceed Thm A.7 bound %g", got, bound)
	}
}

func TestPersistRestoreErrors(t *testing.T) {
	f := newFix(t, nil, 1000, 8)
	// Restore after queries is refused.
	q := query.MustNew(f.dom, map[int][]int{0: {1}}).WithWindow(0, 1)
	if _, err := f.tree.Run(q); err != nil {
		t.Fatal(err)
	}
	if _, err := f.tree.stageNodes(nil); err == nil {
		t.Fatal("restore after queries accepted")
	}
	states := f.tree.ExportNodes()
	if len(states) == 0 {
		t.Fatal("no nodes exported")
	}

	fresh := newFix(t, nil, 1000, 8)
	// Invalid node interval.
	bad := append([]NodeState(nil), states...)
	bad[0].IV = interval.Node{Start: 1, End: 2}
	if _, err := fresh.tree.stageNodes(bad); err == nil {
		t.Fatal("invalid interval accepted")
	}
	// Histogram size mismatch.
	bad2 := append([]NodeState(nil), states...)
	bad2[0].Hist.Weights = []float64{1}
	bad2[0].Hist.Counts = []float64{0}
	if _, err := fresh.tree.stageNodes(bad2); err == nil {
		t.Fatal("size mismatch accepted")
	}
	// Threshold length mismatch.
	bad3 := append([]NodeState(nil), states...)
	bad3[0].Thresholds = []float64{1, 2}
	if _, err := fresh.tree.stageNodes(bad3); err == nil {
		t.Fatal("threshold mismatch accepted")
	}
	if fresh.tree.Nodes() != 0 {
		t.Fatalf("refused stages left %d nodes", fresh.tree.Nodes())
	}
	// Clean restore works and answers match structure.
	fresh2 := newFix(t, nil, 1000, 8)
	apply, err := fresh2.tree.stageNodes(states)
	if err != nil {
		t.Fatal(err)
	}
	apply()
	if fresh2.tree.Nodes() != len(states) {
		t.Fatalf("restored %d nodes, want %d", fresh2.tree.Nodes(), len(states))
	}
}

func TestBoundedWindowStateGrowsLinearly(t *testing.T) {
	// Thm A.8's point: with windows bounded by T, the materialized node
	// set grows linearly in stream length (≲ (log T + 1)·L nodes for L
	// partitions), not with the full dyadic closure of the stream.
	const partitions, maxWin = 64, 4
	f := newFix(t, nil, 1e6, partitions)
	// Query every window of every size ≤ maxWin — the worst case for
	// node materialization.
	for size := 1; size <= maxWin; size++ {
		for start := 0; start+size <= partitions; start++ {
			q := query.MustNew(f.dom, map[int][]int{0: {1}}).WithWindow(start, start+size-1)
			if _, err := f.tree.Run(q); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Nodes of size ≤ maxWin over 64 partitions: 64 + 32 + 16 = 112.
	maxNodes := 0
	for size := 1; size <= maxWin; size <<= 1 {
		maxNodes += partitions / size
	}
	if f.tree.Nodes() > maxNodes {
		t.Fatalf("materialized %d nodes, want ≤ %d (bounded-window state)", f.tree.Nodes(), maxNodes)
	}
	// No node may be larger than the window bound.
	for _, st := range f.tree.ExportNodes() {
		if st.IV.Len() > maxWin {
			t.Fatalf("node %v exceeds the window bound", st.IV)
		}
	}
}

func TestMixedBranches(t *testing.T) {
	// Train [0,3] until ready, then query [0,5]: [0,3] goes through the
	// SV branch while [4,5] is cold and goes through Laplace.
	f := newFix(t, nil, 1000, 8)
	qTrain := query.MustNew(f.dom, map[int][]int{0: {1}}).WithWindow(0, 3)
	for i := 0; i < 20; i++ {
		if _, err := f.tree.Run(qTrain); err != nil {
			t.Fatal(err)
		}
	}
	q := query.MustNew(f.dom, map[int][]int{0: {1}}).WithWindow(0, 5)
	res, err := f.tree.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.SVNodes == 0 || res.LaplaceNodes == 0 {
		t.Fatalf("expected mixed branches, got %+v", res)
	}
	truth, _ := f.ds.TrueFraction(q, 0, 5)
	if math.Abs(res.Value-truth) > 0.05 {
		t.Fatalf("mixed answer off: %g vs %g", res.Value, truth)
	}
}

// worstCaseUpdateBound returns the Thm A.7 bound on the total number of
// purposeful updates across the tree for T = 2^m equal-size partitions
// and constant learning rate η:
//
//	(m+1)·T·ln|X| / (η(τα−η)/2)
//
// It returns +Inf when the precondition η/α < τ fails.
func worstCaseUpdateBound(tr *Tree, eta float64) float64 {
	alpha, tau := tr.cfg.Alpha, tr.cfg.Tau
	if eta <= 0 || eta/alpha >= tau {
		return math.Inf(1)
	}
	partitions := tr.exec.Dataset().Partitions()
	m := 0
	for 1<<m < partitions {
		m++
	}
	T := float64(int(1) << m)
	lnX := math.Log(float64(tr.exec.Dataset().Domain().Size()))
	return float64(m+1) * T * lnX / (eta * (tau*alpha - eta) / 2)
}

// TestConsumedSVRecycled: a shared SV a failing test consumed leaves the
// registry, and the next initialization recalibrates it rather than
// making one, so a node set whose SV fails over and over is served by
// one SV.
func TestConsumedSVRecycled(t *testing.T) {
	f := newFix(t, func(c *Config) {
		c.Heuristic = func() heuristic.Heuristic { return heuristic.AlwaysReady{} }
	}, 1e6, 4)
	q := query.MustNew(f.dom, map[int][]int{0: {1}, 1: {0}}).WithWindow(0, 3)
	var first *sparse.SV
	for i := range 200 {
		if _, err := f.tree.Run(q); err != nil {
			t.Fatal(err)
		}
		if live := f.tree.LiveSVs(); live > 1 || (live == 0) != (f.tree.spareSV != nil) {
			t.Fatalf("run %d: %d live SVs, spare %v", i, live, f.tree.spareSV != nil)
		}
		for _, sv := range append(slices.Collect(maps.Values(f.tree.svs)), f.tree.spareSV) {
			if first == nil {
				first = sv
			}
			if sv != nil && sv != first {
				t.Fatalf("run %d: a second SV was made", i)
			}
		}
	}
	if st := f.tree.Stats(); st.SVFailures < 2 || st.SVPasses == 0 {
		t.Fatalf("want repeated failures and some passes, got %+v", st)
	}
}
