package workload

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/histogram"
	"repro/internal/noise"
	"repro/internal/query"
)

func TestCovidDomainShape(t *testing.T) {
	d := CovidDomain()
	if d.Size() != 128 {
		t.Fatalf("Covid N = %d, want 128", d.Size())
	}
	if d.NumAttrs() != 4 {
		t.Fatalf("Covid attrs = %d", d.NumAttrs())
	}
}

func TestCovidPoolSizeMatchesPaper(t *testing.T) {
	pool := CovidPool(CovidDomain())
	// (2²−1)(2⁴−1)(2²−1)(2⁸−1) = 3·15·3·255 = 34,425 (§6.1).
	if len(pool) != 34425 {
		t.Fatalf("Covid pool = %d, want 34425", len(pool))
	}
	// Every query is unique by construction of the subset enumeration.
	seen := make(map[string]bool, len(pool))
	for _, q := range pool {
		k := q.Key()
		// Keys may collide because a full value set canonicalizes to
		// unconstrained — but predicates (support sets) must then agree.
		_ = k
		seen[k] = true
	}
	if len(seen) == 0 {
		t.Fatal("empty pool keys")
	}
}

func TestBuildCovidDimensions(t *testing.T) {
	cfg := CovidConfig{Rows: 100000, Weeks: 10, Seed: 1}
	ds, err := BuildCovid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Partitions() != 10 {
		t.Fatalf("partitions = %d", ds.Partitions())
	}
	n := ds.NRowsAll()
	if math.Abs(float64(n-cfg.Rows))/float64(cfg.Rows) > 0.05 {
		t.Fatalf("rows = %d, want ≈%d", n, cfg.Rows)
	}
	// Positivity must vary across weeks (waves) and stay in (0, 1).
	d := ds.Domain()
	posQ := query.MustNew(d, map[int][]int{0: {1}})
	rates := make([]float64, 10)
	for w := 0; w < 10; w++ {
		r, err := ds.TrueFraction(posQ, w, w)
		if err != nil {
			t.Fatal(err)
		}
		if r <= 0 || r >= 1 {
			t.Fatalf("week %d positivity %g out of range", w, r)
		}
		rates[w] = r
	}
	min, max := rates[0], rates[0]
	for _, r := range rates {
		min = math.Min(min, r)
		max = math.Max(max, r)
	}
	if max-min < 0.02 {
		t.Fatalf("positivity flat across weeks: min=%g max=%g", min, max)
	}
	if _, err := BuildCovid(CovidConfig{}); err == nil {
		t.Fatal("zero config accepted")
	}
}

func TestBuildCovidDeterministic(t *testing.T) {
	cfg := CovidConfig{Rows: 50000, Weeks: 5, Seed: 3}
	a, _ := BuildCovid(cfg)
	b, _ := BuildCovid(cfg)
	q := query.MustNew(a.Domain(), map[int][]int{0: {1}, 1: {2}})
	fa, _ := a.TrueFraction(q, 0, 4)
	fb, _ := b.TrueFraction(q, 0, 4)
	if fa != fb {
		t.Fatal("same seed produced different datasets")
	}
}

func TestCitiBikeDomains(t *testing.T) {
	if n := CitiBikeDomain().Size(); n != 604800 {
		t.Fatalf("CitiBike N = %d, want 604800", n)
	}
	if n := CitiBikeSmallDomain().Size(); n != 1200 {
		t.Fatalf("CitiBike small N = %d, want 1200", n)
	}
}

func TestCitiBikeAnalysesCount(t *testing.T) {
	for _, d := range []int{0, 1} {
		dom := CitiBikeSmallDomain()
		if d == 1 {
			dom = CitiBikeDomain()
		}
		analyses := CitiBikeAnalyses(dom)
		if len(analyses) != 30 {
			t.Fatalf("analyses = %d, want 30 (domain %d)", len(analyses), d)
		}
	}
}

func TestCitiBikePoolSizeNearPaper(t *testing.T) {
	pool := CitiBikePool(CitiBikeSmallDomain())
	// Paper: 2,485 queries from 30 analyses. Our templates land in the
	// same ballpark.
	if len(pool) < 1200 || len(pool) > 3000 {
		t.Fatalf("CitiBike pool = %d, want ≈2485", len(pool))
	}
	t.Logf("CitiBike small pool size: %d", len(pool))
	poolFull := CitiBikePool(CitiBikeDomain())
	if len(poolFull) < 1200 || len(poolFull) > 3000 {
		t.Fatalf("CitiBike full pool = %d", len(poolFull))
	}
}

func TestBuildCitiBike(t *testing.T) {
	cfg := CitiBikeConfig{Rows: 200000, Weeks: 8, Small: true, Seed: 5}
	ds, err := BuildCitiBike(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Partitions() != 8 {
		t.Fatalf("partitions = %d", ds.Partitions())
	}
	n := ds.NRowsAll()
	if n < cfg.Rows/2 || n > cfg.Rows*2 {
		t.Fatalf("rows = %d, want within 2x of %d (seasonality)", n, cfg.Rows)
	}
	// Every analysis query must be answerable.
	for _, q := range CitiBikePool(ds.Domain())[:50] {
		if _, err := ds.TrueFraction(q, 0, 7); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := BuildCitiBike(CitiBikeConfig{}); err == nil {
		t.Fatal("zero config accepted")
	}
}

func TestBuildCitiBikeFullDomain(t *testing.T) {
	// The full 604,800-point domain must materialize and answer queries;
	// this is the configuration behind the paper's §6.5 memory findings.
	cfg := CitiBikeConfig{Rows: 500_000, Weeks: 2, Small: false, Seed: 6}
	ds, err := BuildCitiBike(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Domain().Size() != 604800 {
		t.Fatalf("domain = %d", ds.Domain().Size())
	}
	pool := CitiBikePool(ds.Domain())
	if len(pool) < 1200 {
		t.Fatalf("full-domain pool = %d", len(pool))
	}
	// Spot-check a handful of pool queries end to end.
	total := 0.0
	for _, q := range pool[:20] {
		f, err := ds.TrueFraction(q, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if f < 0 || f > 1 {
			t.Fatalf("fraction %g out of range", f)
		}
		total += f
	}
	if total == 0 {
		t.Fatal("every sampled query empty: generator collapsed")
	}
}

// buildCitiBikeOracle is BuildCitiBike as first written: every week
// recomputes each bin's product of marginals, decoding the bin into
// attribute values by division.
func buildCitiBikeOracle(t *testing.T, cfg CitiBikeConfig) *dataset.Dataset {
	t.Helper()
	dom := CitiBikeDomain()
	if cfg.Small {
		dom = CitiBikeSmallDomain()
	}
	ds := dataset.New(dom, cfg.Weeks)
	rng := noise.NewRng(cfg.Seed)
	marginals := [][]float64{
		jitter(rng, []float64{0.18, 0.16, 0.14, 0.12, 0.10, 0.08, 0.07, 0.06, 0.05, 0.04}), // start
		jitter(rng, []float64{0.17, 0.15, 0.14, 0.12, 0.10, 0.09, 0.08, 0.06, 0.05, 0.04}), // end
		jitter(rng, []float64{0.12, 0.62, 0.26}),                                           // gender
		jitter(rng, []float64{0.28, 0.42, 0.24, 0.06}),                                     // age
		jitter(rng, []float64{0.30, 0.28, 0.18, 0.12, 0.08, 0.04}),                         // duration
		jitter(rng, []float64{0.16, 0.16, 0.16, 0.16, 0.15, 0.11, 0.10}),                   // weekday
		jitter(rng, []float64{0.08, 0.24, 0.14, 0.12, 0.26, 0.16}),                         // hour
		jitter(rng, []float64{0.86, 0.14}),                                                 // usertype
	}
	marginals = marginals[:dom.NumAttrs()]
	perWeek := splitEvenly(cfg.Rows, cfg.Weeks, rng)
	for w := 0; w < cfg.Weeks; w++ {
		nW := max(1, int(float64(perWeek[w])*(0.7+0.6*wave(float64(w)/float64(cfg.Weeks)))))
		counts := make([]int, dom.Size())
		assigned := 0
		for bin := range counts {
			p, rest := 1.0, bin
			for a := 0; a < dom.NumAttrs(); a++ {
				p *= marginals[a][rest/dom.Stride(a)]
				rest %= dom.Stride(a)
			}
			counts[bin] = int(float64(nW)*p + 0.5)
			assigned += counts[bin]
		}
		if assigned < nW {
			best := 0
			for i, c := range counts {
				if c > counts[best] {
					best = i
				}
			}
			counts[best] += nW - assigned
		}
		if err := ds.BulkLoad(w, counts); err != nil {
			t.Fatal(err)
		}
	}
	return ds
}

// TestBuildCitiBikeMatchesOracle pins that computing each bin's share once
// loads the very counts the per-week recomputation did, on both domains,
// with and without a rounding remainder.
func TestBuildCitiBikeMatchesOracle(t *testing.T) {
	for _, cfg := range []CitiBikeConfig{
		{Rows: 21_096_261, Weeks: 50, Small: true, Seed: 11}, // the paper's dimensions
		{Rows: 200_000, Weeks: 8, Small: true, Seed: 5},
		{Rows: 300, Weeks: 3, Small: true, Seed: 1},
		{Rows: 500_000, Weeks: 2, Small: false, Seed: 6},
	} {
		got, err := BuildCitiBike(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(partitionCounts(got), partitionCounts(buildCitiBikeOracle(t, cfg))) {
			t.Fatalf("%+v: counts differ from the per-week oracle", cfg)
		}
	}
}

// TestBuildersMatchInOrderBulkLoad: each boot builder, appending week by
// week, leaves what New(dom, weeks) and an in-order BulkLoad of the same
// weeks leave — counts and row counts, what a snapshot records and a
// restore checks.
func TestBuildersMatchInOrderBulkLoad(t *testing.T) {
	covid, err := BuildCovid(CovidConfig{Rows: 200_000, Weeks: 12, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	citi, err := BuildCitiBike(CitiBikeConfig{Rows: 200_000, Weeks: 8, Small: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]*dataset.Dataset{"covid": covid, "citibike": citi} {
		want := dataset.New(got.Domain(), got.Partitions())
		for w := range got.Partitions() {
			if err := want.BulkLoad(w, got.PartitionCounts(w)); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(partitionCounts(got), partitionCounts(want)) {
			t.Fatalf("%s: the built dataset's counts differ from the in-order BulkLoad build's", name)
		}
	}
}

// partitionCounts returns each partition of ds as its per-bin counts
// followed by its row count.
func partitionCounts(ds *dataset.Dataset) [][]int {
	out := make([][]int, ds.Partitions())
	for p := range out {
		n, _ := ds.NRows(p, p)
		out[p] = append(ds.PartitionCounts(p), n)
	}
	return out
}

func TestZipfUniform(t *testing.T) {
	d := CovidDomain()
	pool := CovidPool(d)[:100]
	z, err := NewZipf(pool, 0, noise.NewRng(1))
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	const n = 100000
	for i := 0; i < n; i++ {
		counts[z.Sample().Key()]++
	}
	// Uniform: every query ≈ n/100 = 1000, allow wide tolerance.
	for k, c := range counts {
		if c < 700 || c > 1300 {
			t.Fatalf("uniform sample count for %q = %d", k, c)
		}
	}
	if z.PoolSize() != 100 {
		t.Fatal("PoolSize")
	}
}

func TestZipfSkewed(t *testing.T) {
	d := CovidDomain()
	pool := CovidPool(d)[:1000]
	z, _ := NewZipf(pool, 1.0, noise.NewRng(2))
	counts := make([]int, 1000)
	index := map[string]int{}
	for i, q := range pool {
		index[q.Key()+q.KeyWithWindow()] = i // keys unique enough within slice
	}
	_ = index
	const n = 200000
	first := 0
	for i := 0; i < n; i++ {
		q := z.Sample()
		if q == pool[0] {
			first++
		}
		_ = counts
	}
	// Under Zipf(1) over 1000 items, rank 1 gets share 1/H(1000) ≈ 13%.
	share := float64(first) / n
	if share < 0.10 || share > 0.17 {
		t.Fatalf("rank-1 share = %g, want ≈0.13", share)
	}
}

func TestZipfValidation(t *testing.T) {
	if _, err := NewZipf(nil, 0, noise.NewRng(1)); err == nil {
		t.Fatal("empty pool accepted")
	}
	pool := CovidPool(CovidDomain())[:2]
	if _, err := NewZipf(pool, -1, noise.NewRng(1)); err == nil {
		t.Fatal("negative skew accepted")
	}
}

func TestSampleN(t *testing.T) {
	pool := CovidPool(CovidDomain())[:10]
	z, _ := NewZipf(pool, 0, noise.NewRng(3))
	qs := z.SampleN(500)
	if len(qs) != 500 {
		t.Fatal("SampleN length")
	}
}

func TestShuffle(t *testing.T) {
	pool := CovidPool(CovidDomain())[:100]
	sh := Shuffle(pool, noise.NewRng(4))
	if len(sh) != len(pool) {
		t.Fatal("shuffle changed length")
	}
	moved := 0
	seen := map[*query.Query]bool{}
	for i := range sh {
		if sh[i] != pool[i] {
			moved++
		}
		if seen[sh[i]] {
			t.Fatal("shuffle duplicated an element")
		}
		seen[sh[i]] = true
	}
	if moved < 50 {
		t.Fatalf("shuffle barely moved anything: %d", moved)
	}
}

func TestWindowsGenerators(t *testing.T) {
	w := NewWindows(noise.NewRng(5))
	for i := 0; i < 1000; i++ {
		s, e := w.UniformContiguous(50)
		if s < 0 || e >= 50 || s > e {
			t.Fatalf("UniformContiguous out of range: [%d,%d]", s, e)
		}
	}
	sizes := map[int]bool{}
	for i := 0; i < 2000; i++ {
		s, e := w.GaussianSize(50, 25, 5)
		if s < 0 || e >= 50 || s > e {
			t.Fatalf("GaussianSize out of range: [%d,%d]", s, e)
		}
		sizes[e-s+1] = true
	}
	if len(sizes) < 10 {
		t.Fatal("GaussianSize produced too few distinct sizes")
	}
	for i := 0; i < 1000; i++ {
		s, e := w.LatestWindow(20)
		if e != 19 || s < 0 || s > 19 {
			t.Fatalf("LatestWindow = [%d,%d], must end at newest", s, e)
		}
	}
}

func TestPoissonArrivals(t *testing.T) {
	w := NewWindows(noise.NewRng(6))
	arr := w.PoissonArrivals(100000, 10) // expect ~1 partition per 10 queries
	total := 0
	for _, a := range arr {
		if a < 0 {
			t.Fatal("negative arrival")
		}
		total += a
	}
	want := 100000.0 / 10
	if math.Abs(float64(total)-want)/want > 0.1 {
		t.Fatalf("total arrivals = %d, want ≈%g", total, want)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("bad rate did not panic")
			}
		}()
		w.PoissonArrivals(10, 0)
	}()
}

func TestValidator(t *testing.T) {
	cfg := CovidConfig{Rows: 100000, Weeks: 2, Seed: 9}
	ds, _ := BuildCovid(cfg)
	pool := CovidPool(ds.Domain())
	v, err := NewValidator(pool, 200, 0.05, ds, 0, 1, noise.NewRng(7))
	if err != nil {
		t.Fatal(err)
	}
	if v.Size() != 200 {
		t.Fatal("Size")
	}
	// The exact true distribution answers everything perfectly.
	truth, _ := ds.TrueDistribution(0, 1)
	perfect, err := histogram.FromWeights(truth)
	if err != nil {
		t.Fatal(err)
	}
	if acc := v.Accuracy(perfect); acc != 1 {
		t.Fatalf("true distribution accuracy = %g, want 1", acc)
	}
	if !v.Converged(perfect) {
		t.Fatal("perfect histogram not converged")
	}
	// The uniform prior must be visibly worse.
	uniform := histogram.NewUniform(ds.Domain().Size())
	if acc := v.Accuracy(uniform); acc >= 1 {
		t.Fatalf("uniform accuracy = %g, want < 1", acc)
	}
	if _, err := NewValidator(pool, 0, 0.05, ds, 0, 1, noise.NewRng(7)); err == nil {
		t.Fatal("zero size accepted")
	}
}
