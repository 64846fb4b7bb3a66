package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/accountant"
	"repro/internal/dataset"
	"repro/internal/domain"
	"repro/internal/heuristic"
	"repro/internal/pmw"
	"repro/internal/query"
	"repro/internal/tree"
)

// partitionRows returns partition p's public row count.
func partitionRows(ds *dataset.Dataset, p int) int {
	n, _ := ds.NRows(p, p)
	return n
}

// addCount loads count rows of the encoded value bin into partition p of
// ds: a one-hot BulkLoad.
func addCount(ds *dataset.Dataset, p, bin, count int) error {
	counts := make([]int, ds.Domain().Size())
	counts[bin] = count
	return ds.BulkLoad(p, counts)
}

func buildDS(t testing.TB, partitions int) (*domain.Domain, *dataset.Dataset) {
	t.Helper()
	dom := domain.MustNew(
		domain.Attribute{Name: "p", Card: 2},
		domain.Attribute{Name: "a", Card: 4},
	)
	ds := dataset.New(dom, partitions)
	for w := 0; w < partitions; w++ {
		for a := 0; a < 4; a++ {
			_ = addCount(ds, w, dom.Encode([]int{1, a}), 1000+100*a+20*w)
			_ = addCount(ds, w, dom.Encode([]int{0, a}), 4000-150*a)
		}
	}
	return dom, ds
}

func defaultCfg(mode Mode) Config {
	return Config{
		Mode: mode, Alpha: 0.05, Beta: 0.001, EpsilonGlobal: 100,
		Tau: 0.25, Seed: 5,
		LR:        func() pmw.Schedule { return pmw.Constant(0.2) },
		Heuristic: func() heuristic.Heuristic { return heuristic.NewAdaptivePerBin(2, 1) },
	}
}

func TestConfigValidation(t *testing.T) {
	_, ds := buildDS(t, 1)
	bads := []func(*Config){
		func(c *Config) { c.Alpha = 0 },
		func(c *Config) { c.Beta = 1 },
		func(c *Config) { c.EpsilonGlobal = 0 },
		func(c *Config) { c.Tau = 0.9 },
		func(c *Config) { c.Mode = Mode(99) },
	}
	for i, mut := range bads {
		cfg := defaultCfg(NonPartitioned)
		mut(&cfg)
		if _, err := NewSession(cfg, ds); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := NewSession(defaultCfg(NonPartitioned), nil); err == nil {
		t.Error("nil dataset accepted")
	}
	empty := dataset.New(domain.MustNew(domain.Attribute{Name: "x", Card: 2}), 1)
	if _, err := NewSession(defaultCfg(NonPartitioned), empty); err == nil {
		t.Error("empty dataset accepted in non-partitioned mode")
	}
}

func TestModeStrings(t *testing.T) {
	if NonPartitioned.String() != "non-partitioned" ||
		Partitioned.String() != "partitioned" ||
		Streaming.String() != "streaming" {
		t.Fatal("mode strings")
	}
}

func TestNonPartitionedPipeline(t *testing.T) {
	dom, ds := buildDS(t, 1)
	s, err := NewSession(defaultCfg(NonPartitioned), ds)
	if err != nil {
		t.Fatal(err)
	}
	if s.PMW() == nil || s.Tree() != nil {
		t.Fatal("wrong machinery for non-partitioned mode")
	}
	q := query.MustNew(dom, map[int][]int{0: {1}})
	truth, _ := ds.TrueFraction(q, 0, 0)

	a1, err := s.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if a1.Source != SourceR3 && a1.Source != SourceR2 {
		t.Fatalf("cold query source = %s", a1.Source)
	}
	if math.Abs(a1.Value-truth) > 0.05 {
		t.Fatalf("answer %g vs truth %g", a1.Value, truth)
	}
	// Identical repeat: exact hit, free.
	spent := s.AverageSpent()
	a2, err := s.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if a2.Source != SourceExactHit || a2.Value != a1.Value || a2.Paid != 0 {
		t.Fatalf("repeat = %+v", a2)
	}
	if s.AverageSpent() != spent {
		t.Fatal("exact hit consumed budget")
	}
	counts := s.SourceCounts()
	if counts[SourceExactHit] != 1 {
		t.Fatalf("source counts = %v", counts)
	}
	if s.Queries() != 2 {
		t.Fatalf("Queries = %d", s.Queries())
	}
	if s.Name() == "" {
		t.Fatal("empty name")
	}
}

func TestFreePathAfterTraining(t *testing.T) {
	dom, ds := buildDS(t, 1)
	s, err := NewSession(defaultCfg(NonPartitioned), ds)
	if err != nil {
		t.Fatal(err)
	}
	// Identical repeats are swallowed by the exact cache and never train
	// the histogram, so training needs distinct overlapping queries —
	// exactly the correlated-workload structure the paper exploits. Cover
	// every bin several times with different predicates.
	var qs []*query.Query
	for p := 0; p < 2; p++ {
		for a := 0; a < 4; a++ {
			qs = append(qs, query.MustNew(dom, map[int][]int{0: {p}, 1: {a}}))
		}
	}
	for a := 0; a < 4; a++ {
		qs = append(qs, query.MustNew(dom, map[int][]int{1: {a}}))
		qs = append(qs, query.MustNew(dom, map[int][]int{1: {a, (a + 1) % 4}}))
		qs = append(qs, query.MustNew(dom, map[int][]int{1: {a, (a + 2) % 4}}))
	}
	qs = append(qs,
		query.MustNew(dom, map[int][]int{0: {0}}),
		query.MustNew(dom, map[int][]int{0: {1}}),
		query.MustNew(dom, map[int][]int{0: {0}, 1: {0, 1}}),
		query.MustNew(dom, map[int][]int{0: {0}, 1: {2, 3}}),
		query.MustNew(dom, map[int][]int{0: {1}, 1: {0, 1}}),
		query.MustNew(dom, map[int][]int{0: {1}, 1: {2, 3}}),
	)
	for _, q := range qs {
		if _, err := s.Answer(q); err != nil {
			t.Fatal(err)
		}
	}
	fresh := query.MustNew(dom, map[int][]int{1: {0, 1, 2}}) // unseen predicate
	a, err := s.Answer(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if a.Source != SourceR1 {
		t.Fatalf("trained session answered unseen query via %s, want R1", a.Source)
	}
	if a.Paid != 0 {
		t.Fatal("R1 answer paid")
	}
}

func TestDomainMismatchRejected(t *testing.T) {
	_, ds := buildDS(t, 1)
	s, _ := NewSession(defaultCfg(NonPartitioned), ds)
	other := domain.MustNew(domain.Attribute{Name: "z", Card: 3})
	if _, err := s.Answer(query.MustNew(other, nil)); err == nil {
		t.Fatal("foreign-domain query accepted")
	}
}

func TestWindowValidation(t *testing.T) {
	dom, ds := buildDS(t, 4)
	s, _ := NewSession(defaultCfg(Partitioned), ds)
	q := query.MustNew(dom, nil).WithWindow(2, 7)
	if _, err := s.Answer(q); err == nil {
		t.Fatal("out-of-range window accepted")
	}
}

func TestPartitionedMode(t *testing.T) {
	dom, ds := buildDS(t, 8)
	s, err := NewSession(defaultCfg(Partitioned), ds)
	if err != nil {
		t.Fatal(err)
	}
	if s.Tree() == nil || s.PMW() != nil {
		t.Fatal("wrong machinery for partitioned mode")
	}
	q := query.MustNew(dom, map[int][]int{0: {1}}).WithWindow(2, 5)
	truth, _ := ds.TrueFraction(q, 2, 5)
	a, err := s.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if a.Source != SourceTree {
		t.Fatalf("source = %s", a.Source)
	}
	if math.Abs(a.Value-truth) > 0.05 {
		t.Fatalf("answer %g vs truth %g", a.Value, truth)
	}
	// Partitions outside the window untouched.
	if s.Accountant().SpentVector()[0] != 0 || s.Accountant().SpentVector()[7] != 0 {
		t.Fatal("outside-window partitions charged")
	}
	// Exact repeat free.
	spent := s.AverageSpent()
	a2, _ := s.Answer(q)
	if a2.Source != SourceExactHit || s.AverageSpent() != spent {
		t.Fatal("repeat not served from exact cache")
	}
}

func TestStreamingAppendAndWarmStart(t *testing.T) {
	dom, ds := buildDS(t, 2)
	cfg := defaultCfg(Streaming)
	s, err := NewSession(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	// Train on the first partitions.
	q := query.MustNew(dom, map[int][]int{0: {1}}).WithWindow(0, 1)
	for i := 0; i < 15; i++ {
		if _, err := s.Answer(q); err != nil {
			t.Fatal(err)
		}
	}
	// New partition arrives with similar data.
	idx, err := s.AppendPartition()
	if err != nil {
		t.Fatal(err)
	}
	if idx != 2 || s.Dataset().Partitions() != 3 || s.Accountant().Partitions() != 3 {
		t.Fatalf("append: idx=%d parts=%d acct=%d", idx, s.Dataset().Partitions(), s.Accountant().Partitions())
	}
	for a := 0; a < 4; a++ {
		_ = addCount(ds, 2, dom.Encode([]int{1, a}), 1000+100*a)
		_ = addCount(ds, 2, dom.Encode([]int{0, a}), 4000-150*a)
	}
	q2 := query.MustNew(dom, map[int][]int{0: {1}}).WithWindow(2, 2)
	truth, _ := ds.TrueFraction(q2, 2, 2)
	a2, err := s.Answer(q2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a2.Value-truth) > 0.05 {
		t.Fatalf("stream answer %g vs truth %g", a2.Value, truth)
	}
}

func TestExhaustionSurfacesAndSticks(t *testing.T) {
	dom, ds := buildDS(t, 1)
	cfg := defaultCfg(NonPartitioned)
	cfg.EpsilonGlobal = 1e-9
	s, err := NewSession(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []*query.Query{
		query.MustNew(dom, map[int][]int{0: {1}}),
		query.MustNew(dom, map[int][]int{1: {0}}),
	} {
		if _, err := s.Answer(q); !errors.Is(err, accountant.ErrBudgetExhausted) {
			t.Fatalf("%v: err = %v", q, err)
		}
	}
}

func TestMemoryBytes(t *testing.T) {
	dom, ds := buildDS(t, 1)
	s, _ := NewSession(defaultCfg(NonPartitioned), ds)
	base := s.MemoryBytes()
	if base < 16*dom.Size() {
		t.Fatalf("memory %d below histogram size", base)
	}
	_, _ = s.Answer(query.MustNew(dom, map[int][]int{0: {1}}))
	if s.MemoryBytes() <= base {
		t.Fatal("caching a result did not grow memory")
	}

	_, ds8 := buildDS(t, 8)
	s8, _ := NewSession(defaultCfg(Partitioned), ds8)
	_, _ = s8.Answer(query.MustNew(dom, map[int][]int{0: {1}}).WithWindow(0, 7))
	if s8.MemoryBytes() <= 0 {
		t.Fatal("tree memory not reported")
	}
}

func TestSourceConstants(t *testing.T) {
	for _, src := range []Source{SourceExactHit, SourceR1, SourceR2, SourceR3, SourceTree} {
		if src == "" {
			t.Fatal("empty source constant")
		}
	}
}

// TestNodeExactCacheMode: overlapping windows share tree nodes without
// violating accuracy.
func TestNodeExactCacheMode(t *testing.T) {
	dom, ds := buildDS(t, 8)
	s, err := NewSession(defaultCfg(Partitioned), ds)
	if err != nil {
		t.Fatal(err)
	}
	q1 := query.MustNew(dom, map[int][]int{0: {1}}).WithWindow(0, 3)
	q2 := query.MustNew(dom, map[int][]int{0: {1}}).WithWindow(0, 5)
	if _, err := s.Answer(q1); err != nil {
		t.Fatal(err)
	}
	a, err := s.Answer(q2)
	if err != nil {
		t.Fatal(err)
	}
	truth, _ := ds.TrueFraction(q2, 0, 5)
	if math.Abs(a.Value-truth) > 0.05 {
		t.Fatalf("overlapping-window answer %g vs truth %g", a.Value, truth)
	}
}

func TestFlatStructureMode(t *testing.T) {
	dom, ds := buildDS(t, 8)
	cfg := defaultCfg(Partitioned)
	cfg.Structure = tree.Flat
	s, err := NewSession(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	q := query.MustNew(dom, map[int][]int{0: {1}}).WithWindow(1, 3)
	truth, _ := ds.TrueFraction(q, 1, 3)
	a, err := s.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.Value-truth) > 0.05 {
		t.Fatalf("flat answer %g vs truth %g", a.Value, truth)
	}
}

func TestRunInterface(t *testing.T) {
	dom, ds := buildDS(t, 1)
	s, _ := NewSession(defaultCfg(NonPartitioned), ds)
	v, err := s.Run(query.MustNew(dom, map[int][]int{0: {1}}))
	if err != nil {
		t.Fatal(err)
	}
	if v == 0 {
		t.Fatal("Run returned zero for a nonzero fraction")
	}
}

func TestDefaultSeedAndTau(t *testing.T) {
	_, ds := buildDS(t, 1)
	cfg := Config{Mode: NonPartitioned, Alpha: 0.05, Beta: 0.001, EpsilonGlobal: 10}
	s, err := NewSession(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	if s == nil {
		t.Fatal("nil session")
	}
}
