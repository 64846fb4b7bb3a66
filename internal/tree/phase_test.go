// Tests for the three-phase Run: the recorded closure-walk oracle pin
// and claim-plan bookkeeping.

package tree

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"repro/internal/heuristic"
	"repro/internal/query"
)

// denseOracleRuns is the per-run record of TestVectorizedMatchesDenseOracle's
// workload (round-major, 4 queries × 15 rounds) captured from the
// closure-walk ("dense") tree path at commit 1f0a6bc, the last one that
// carried it: Value and Paid as float64 bits, then branch routing.
var denseOracleRuns = [60]struct {
	value, paid           uint64
	svNodes, laplaceNodes int
	svFailed              bool
}{
	{0x3fd44bb3074d452b, 0x3f768f73bccc436d, 0, 1, false},
	{0x3fe09fa00664908b, 0x3f78b57ec29692fe, 0, 1, false},
	{0x3fc5aaada5d5fcb5, 0x3f7f0e2e62379f24, 0, 3, false},
	{0x3fcfa6e9c1382ab6, 0x3f8037c2e3a59487, 0, 3, false},
	{0x3fd45823baa044fd, 0x3f768f73bccc436d, 0, 1, false},
	{0x3fe05b729c3db368, 0x3f78b57ec29692fe, 0, 1, false},
	{0x3fc447b24ebf43f0, 0x3f7f0e2e62379f24, 0, 3, false},
	{0x3fce96ce762d92ed, 0x3f8037c2e3a59487, 0, 3, false},
	{0x3fd46c5f18185633, 0x3fb68f73bccc436d, 1, 0, true},
	{0x3fe0000000000001, 0x3fb2881f11f0ee3e, 1, 0, false},
	{0x3fc5b2e6de534a3d, 0x3fb1ef44af276819, 1, 2, false},
	{0x3fd00db8fdd37d03, 0x3f8037c2e3a59487, 0, 3, false},
	{0x3fd4621021aa888b, 0x3fb68f73bccc436d, 1, 0, true},
	{0x3fe0000000000001, 0x0000000000000000, 1, 0, false},
	{0x3fc54d9faf6f5c7f, 0x3fb2312a81069841, 2, 1, false},
	{0x3fcfa34ab1cde678, 0x3f7da487f69c919a, 1, 2, false},
	{0x3fd3d775461ede95, 0x3fb0eb96cd993292, 1, 0, false},
	{0x3fe0000000000001, 0x0000000000000000, 1, 0, false},
	{0x3fc5a41fc8d98190, 0x3f74593b36d65aef, 2, 1, false},
	{0x3fcfc243a8987d2e, 0x3f7da487f69c919a, 1, 2, false},
	{0x3fd3d775461ede95, 0x0000000000000000, 1, 0, false},
	{0x3fe0000000000001, 0x0000000000000000, 1, 0, false},
	{0x3fc5fd379aad4cc3, 0x3f74593b36d65aef, 2, 1, false},
	{0x3fce7bff59ed687f, 0x3fb14bd8bb6966e5, 3, 0, false},
	{0x3fd3d775461ede95, 0x0000000000000000, 1, 0, false},
	{0x3fe0000000000001, 0x0000000000000000, 1, 0, false},
	{0x3fc5d90d0a70c584, 0x3f74593b36d65aef, 2, 1, false},
	{0x3fce7bff59ed687f, 0x0000000000000000, 3, 0, false},
	{0x3fd3d775461ede95, 0x0000000000000000, 1, 0, false},
	{0x3fe0000000000001, 0x0000000000000000, 1, 0, false},
	{0x3fc5fd2149ffe0e3, 0x3f74593b36d65aef, 2, 1, false},
	{0x3fce7bff59ed687f, 0x0000000000000000, 3, 0, false},
	{0x3fd3d775461ede95, 0x0000000000000000, 1, 0, false},
	{0x3fe0000000000001, 0x0000000000000000, 1, 0, false},
	{0x3fc621768551d85e, 0x3f74593b36d65aef, 2, 1, false},
	{0x3fce7bff59ed687f, 0x0000000000000000, 3, 0, false},
	{0x3fd3d775461ede95, 0x0000000000000000, 1, 0, false},
	{0x3fe0000000000001, 0x0000000000000000, 1, 0, false},
	{0x3fc67c9bd1e7391c, 0x3fb08f6d778598fc, 3, 0, false},
	{0x3fce7bff59ed687f, 0x0000000000000000, 3, 0, false},
	{0x3fd3d775461ede95, 0x0000000000000000, 1, 0, false},
	{0x3fe0000000000001, 0x0000000000000000, 1, 0, false},
	{0x3fc67c9bd1e7391c, 0x0000000000000000, 3, 0, false},
	{0x3fce7bff59ed687f, 0x0000000000000000, 3, 0, false},
	{0x3fd3d775461ede95, 0x0000000000000000, 1, 0, false},
	{0x3fe0000000000001, 0x0000000000000000, 1, 0, false},
	{0x3fc67c9bd1e7391c, 0x0000000000000000, 3, 0, false},
	{0x3fce7bff59ed687f, 0x0000000000000000, 3, 0, false},
	{0x3fd3d775461ede95, 0x0000000000000000, 1, 0, false},
	{0x3fe0000000000001, 0x0000000000000000, 1, 0, false},
	{0x3fc67c9bd1e7391c, 0x0000000000000000, 3, 0, false},
	{0x3fce7bff59ed687f, 0x0000000000000000, 3, 0, false},
	{0x3fd3d775461ede95, 0x0000000000000000, 1, 0, false},
	{0x3fe0000000000001, 0x0000000000000000, 1, 0, false},
	{0x3fc67c9bd1e7391c, 0x0000000000000000, 3, 0, false},
	{0x3fce7bff59ed687f, 0x0000000000000000, 3, 0, false},
	{0x3fd3d775461ede95, 0x0000000000000000, 1, 0, false},
	{0x3fe0000000000001, 0x0000000000000000, 1, 0, false},
	{0x3fc67c9bd1e7391c, 0x0000000000000000, 3, 0, false},
	{0x3fce7bff59ed687f, 0x0000000000000000, 3, 0, false},
}

// TestVectorizedMatchesDenseOracle drives the seeded fixture through a
// mixed workload and requires bit-identical answers, payments, branch
// routing, counters, and final node histograms to what the closure-walk
// tree path produced for the same workload before it left production
// (recorded above). This is the tree-level pin on the gather kernels'
// bit-for-bit claim: one perturbed lane or bin in Eval, UpdateMass, the
// readiness probe or the penalty moves a release, a route, or the state
// hash.
func TestVectorizedMatchesDenseOracle(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Compilers may fuse multiply-adds on other architectures, which
		// moves math.Exp-fed weight bits without any kernel being wrong.
		t.Skip("golden bits were recorded on amd64")
	}
	f := newFix(t, nil, 1000, 8)
	queries := []*query.Query{
		query.MustNew(f.dom, map[int][]int{0: {1}}).WithWindow(0, 7),
		query.MustNew(f.dom, map[int][]int{1: {2, 3}}).WithWindow(0, 3),
		query.MustNew(f.dom, map[int][]int{0: {0}, 1: {1}}).WithWindow(2, 6),
		query.MustNew(f.dom, map[int][]int{1: {0}}).WithWindow(1, 5),
	}
	for round := 0; round < 15; round++ {
		for qi, q := range queries {
			r, err := f.tree.Run(q)
			if err != nil {
				t.Fatalf("round %d query %d: %v", round, qi, err)
			}
			want := denseOracleRuns[round*len(queries)+qi]
			if math.Float64bits(r.Value) != want.value || math.Float64bits(r.Paid) != want.paid ||
				r.SVNodes != want.svNodes || r.LaplaceNodes != want.laplaceNodes ||
				r.SVFailed != want.svFailed {
				t.Fatalf("round %d query %d: got %+v (value %#016x paid %#016x), recorded %+v",
					round, qi, r, math.Float64bits(r.Value), math.Float64bits(r.Paid), want)
			}
		}
	}

	wantStats := Stats{Queries: 60, SVPasses: 49, SVFailures: 2, LaplaceSubs: 31, NodeUpdates: 18}
	if got := f.tree.Stats(); got != wantStats || f.tree.Nodes() != 6 {
		t.Fatalf("stats %+v over %d nodes, recorded %+v over 6", got, f.tree.Nodes(), wantStats)
	}

	// FNV-1a over every materialized node's interval, update count, and
	// per-bin weight and counter bits, in allNodes order.
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	nodes := 0
	for _, iv := range allNodes(8) {
		nh := f.tree.NodeHistogram(iv)
		if nh == nil {
			continue
		}
		nodes++
		put(uint64(iv.Start))
		put(uint64(iv.End))
		put(uint64(nh.Updates()))
		for bin, w := range nh.State().Weights {
			put(math.Float64bits(w))
			put(math.Float64bits(nh.Count(bin)))
		}
	}
	const wantNodes, wantHash = 6, 0xda8cc240427b4b3e
	if nodes != wantNodes || h.Sum64() != wantHash {
		t.Fatalf("node state: %d nodes hash %#016x, recorded %d nodes hash %#016x",
			nodes, h.Sum64(), wantNodes, uint64(wantHash))
	}
}

// TestSerialRunsNeverSkipStale: with no concurrency, every claim-time
// epoch is intact at commit, so the stale-skip counter must stay zero.
func TestSerialRunsNeverSkipStale(t *testing.T) {
	f := newFix(t, nil, 1000, 8)
	q := query.MustNew(f.dom, map[int][]int{0: {1}}).WithWindow(0, 7)
	for i := 0; i < 25; i++ {
		if _, err := f.tree.Run(q); err != nil {
			t.Fatal(err)
		}
	}
	st := f.tree.Stats()
	if st.StaleSkips != 0 {
		t.Fatalf("serial run skipped %d updates as stale", st.StaleSkips)
	}
	if st.NodeUpdates == 0 {
		t.Fatal("workload produced no node updates; stale-skip check is vacuous")
	}
}

// TestCalibratorWiredIntoTree: the Laplace branch prices through the
// memoized calibrator, so repeated cold windows of the same split shape
// hit the memo instead of re-simulating.
func TestCalibratorWiredIntoTree(t *testing.T) {
	f := newFix(t, func(c *Config) {
		// A static design that is never ready forces every node through
		// the Laplace branch.
		c.Heuristic = func() heuristic.Heuristic { return heuristic.NewStaticGlobal(math.Inf(1)) }
	}, 1e6, 8)
	q := query.MustNew(f.dom, map[int][]int{0: {1}}).WithWindow(0, 5)
	for i := 0; i < 4; i++ {
		if _, err := f.tree.Run(q); err != nil {
			t.Fatal(err)
		}
	}
	st := f.tree.Calibrator().Stats()
	if st.Misses == 0 {
		t.Fatal("Laplace branch never consulted the calibrator")
	}
	if st.Hits == 0 {
		t.Fatal("repeat windows of the same shape did not hit the calibration memo")
	}
}
