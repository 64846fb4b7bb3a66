package dataset

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/domain"
	"repro/internal/noise"
	"repro/internal/query"
)

func dom() *domain.Domain {
	return domain.MustNew(
		domain.Attribute{Name: "p", Card: 2},
		domain.Attribute{Name: "a", Card: 4},
	)
}

// addCount loads count rows of the encoded value bin into partition p: a
// one-hot BulkLoad.
func addCount(ds *Dataset, p, bin, count int) error {
	counts := make([]int, ds.Domain().Size())
	counts[bin] = count
	return ds.BulkLoad(p, counts)
}

// addRow loads one row with the given attribute values into partition p.
func addRow(ds *Dataset, p int, tuple []int) error {
	return addCount(ds, p, ds.Domain().Encode(tuple), 1)
}

func TestIngestionAndTrueFraction(t *testing.T) {
	d := dom()
	ds := New(d, 2)
	// Partition 0: 3 positive rows with a=0, 1 negative with a=1.
	for i := 0; i < 3; i++ {
		if err := addRow(ds, 0, []int{1, 0}); err != nil {
			t.Fatal(err)
		}
	}
	if err := addRow(ds, 0, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	// Partition 1: 4 negative rows with a=2.
	if err := addCount(ds, 1, d.Encode([]int{0, 2}), 4); err != nil {
		t.Fatal(err)
	}

	q := query.MustNew(d, map[int][]int{0: {1}})
	got, err := ds.TrueFraction(q, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0.75 {
		t.Fatalf("TrueFraction p0 = %g, want 0.75", got)
	}
	got, err = ds.TrueFraction(q, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got != 3.0/8 {
		t.Fatalf("TrueFraction all = %g, want 0.375", got)
	}
	if n, _ := ds.NRows(0, 1); n != 8 {
		t.Fatalf("NRows = %d", n)
	}
	if n, _ := ds.NRows(1, 1); n != 4 {
		t.Fatalf("NRows(1, 1) = %d", n)
	}
	if ds.NRowsAll() != 8 {
		t.Fatalf("NRowsAll = %d", ds.NRowsAll())
	}
}

func TestEmptyRangeAnswersZero(t *testing.T) {
	ds := New(dom(), 3)
	q := query.MustNew(dom(), nil)
	got, err := ds.TrueFraction(q, 0, 2)
	if err != nil || got != 0 {
		t.Fatalf("TrueFraction on empty = %g, %v", got, err)
	}
}

func TestRangeValidation(t *testing.T) {
	ds := New(dom(), 2)
	for _, r := range [][2]int{{-1, 0}, {0, 2}, {1, 0}} {
		if _, err := ds.TrueFraction(query.MustNew(dom(), nil), r[0], r[1]); err == nil {
			t.Errorf("TrueFraction(%v) accepted", r)
		}
		if _, err := ds.NRows(r[0], r[1]); err == nil {
			t.Errorf("NRows(%v) accepted", r)
		}
		if _, err := ds.TrueDistribution(r[0], r[1]); err == nil {
			t.Errorf("TrueDistribution(%v) accepted", r)
		}
	}
}

func TestIngestValidation(t *testing.T) {
	ds := New(dom(), 1)
	if err := ds.BulkLoad(0, []int{1, 2}); err == nil {
		t.Error("short bulk load accepted")
	}
	if err := ds.BulkLoad(0, append(make([]int, 7), -1)); err == nil {
		t.Error("negative bulk count accepted")
	}
	if err := ds.BulkLoad(9, make([]int, 8)); err == nil {
		t.Error("bad bulk partition accepted")
	}
	if err := ds.BulkLoad(-1, make([]int, 8)); err == nil {
		t.Error("negative bulk partition accepted")
	}
	// A refused append is refused whole: no partition of its batch is
	// published, the valid ones before the bad one included.
	before := countsOf(ds)
	if _, err := ds.Append(nil, make([]int, 8), []int{1, 2}); err == nil {
		t.Error("short append accepted")
	}
	if _, err := ds.Append(nil, nil, append(make([]int, 7), -1)); err == nil {
		t.Error("negative append count accepted")
	}
	if err := ds.CheckAppend(make([]int, 8), []int{1, 2}); err == nil {
		t.Error("CheckAppend passed a short load")
	}
	if err := ds.CheckAppend(nil, append(make([]int, 7), -1)); err == nil {
		t.Error("CheckAppend passed a negative count")
	}
	if err := ds.CheckAppend(nil, make([]int, 8)); err != nil {
		t.Errorf("CheckAppend refused a valid batch: %v", err)
	}
	if ds.Partitions() != 1 || !reflect.DeepEqual(countsOf(ds), before) {
		t.Errorf("refused appends changed the dataset: %d partitions", ds.Partitions())
	}
}

// TestLoadsRefusedPastMaxRows: a load that would take the dataset past
// MaxRows — one count, or counts that pass it together — is refused whole,
// by Append and CheckAppend alike, so the prefix rows stay exact and a
// full dataset's counts still append into an empty one.
func TestLoadsRefusedPastMaxRows(t *testing.T) {
	ds := New(dom(), 2)
	over := make([]int, 8)
	over[3] = MaxRows + 1
	if err := ds.BulkLoad(0, over); err == nil {
		t.Fatal("bulk count past MaxRows accepted")
	}
	if err := ds.BulkLoad(0, []int{MaxRows, MaxRows, 0, 0, 0, 0, 0, 0}); err == nil {
		t.Fatal("bulk counts passing MaxRows together accepted")
	}
	if err := ds.BulkLoad(0, []int{MaxRows - 10, 0, 0, 0, 0, 0, 0, 4}); err != nil {
		t.Fatal(err)
	}
	before := partsOf(ds)
	bin := ds.Domain().Encode([]int{0, 2})
	if err := addCount(ds, 1, bin, 7); err == nil {
		t.Fatal("count passing MaxRows accepted")
	}
	wide := make([]int, 8)
	wide[bin] = 7
	if err := ds.BulkLoad(1, wide); err == nil {
		t.Fatal("bulk load passing MaxRows accepted")
	}
	if _, err := ds.Append(nil, wide); err == nil {
		t.Fatal("append passing MaxRows accepted")
	}
	if err := ds.CheckAppend(nil, wide); err == nil {
		t.Fatal("CheckAppend passed a batch passing MaxRows")
	}
	if ds.NRowsAll() != MaxRows-6 || ds.Partitions() != 2 {
		t.Fatalf("refused loads changed the dataset: %d rows in %d partitions", ds.NRowsAll(), ds.Partitions())
	}
	for i, p := range partsOf(ds) {
		for bin, c := range p.Counts {
			if c != before[i].Counts[bin] || p.N != before[i].N {
				t.Fatalf("refused loads changed partition %d", i)
			}
		}
	}
	// Filling to exactly MaxRows is allowed, and the result rebuilds.
	if err := addCount(ds, 1, bin, 6); err != nil {
		t.Fatal(err)
	}
	if err := addCount(ds, 1, bin, 1); err == nil {
		t.Fatal("count past a full dataset accepted")
	}
	// The window's prefix rows are near 2^53; their difference is exact.
	got, err := ds.TrueFraction(query.MustNew(ds.Domain(), map[int][]int{0: {0}, 1: {2}}), 1, 1)
	if err != nil || got != 1 {
		t.Fatalf("window over the last partition: %g, %v", got, err)
	}
	twin := New(dom(), 0)
	if _, err := twin.Append(nil, countsOf(ds)...); err != nil {
		t.Fatalf("a full dataset's counts do not append: %v", err)
	}
	if twin.NRowsAll() != MaxRows {
		t.Fatalf("rebuilt %d rows, want %d", twin.NRowsAll(), MaxRows)
	}
}

// TestServedDatasetOnlyGrows: once a cache serves the dataset, BulkLoad
// into any of its partitions is refused and changes nothing, while
// Append still grows it. The same load into a dataset no cache serves is
// accepted.
func TestServedDatasetOnlyGrows(t *testing.T) {
	load := make([]int, dom().Size())
	load[3] = 5
	open := New(dom(), 2)
	if err := open.BulkLoad(1, load); err != nil {
		t.Fatalf("load into an unserved dataset: %v", err)
	}
	ds := New(dom(), 2)
	if err := ds.BulkLoad(0, load); err != nil {
		t.Fatal(err)
	}
	ds.Serve()
	before := countsOf(ds)
	for p := range 2 {
		if err := ds.BulkLoad(p, load); err == nil || !strings.Contains(err.Error(), "served") {
			t.Fatalf("load into served partition %d: %v, want a refusal", p, err)
		}
	}
	if got := countsOf(ds); !reflect.DeepEqual(got, before) {
		t.Fatalf("refused loads changed the dataset: %+v, want %+v", got, before)
	}
	if p, err := ds.Append(nil, load); err != nil || p != 2 || ds.NRowsAll() != 10 {
		t.Fatalf("append to a served dataset: partition %d, %v, %d rows", p, err, ds.NRowsAll())
	}
}

func TestStreamingAppend(t *testing.T) {
	ds := New(dom(), 1)
	idx := ds.AppendPartition()
	if idx != 1 || ds.Partitions() != 2 {
		t.Fatalf("AppendPartition = %d, Partitions = %d", idx, ds.Partitions())
	}
	if err := addRow(ds, 1, []int{1, 3}); err != nil {
		t.Fatal(err)
	}
}

func TestBulkLoadMatchesAddRow(t *testing.T) {
	d := dom()
	a, b := New(d, 1), New(d, 1)
	counts := make([]int, d.Size())
	counts[d.Encode([]int{1, 2})] = 5
	counts[d.Encode([]int{0, 0})] = 3
	if err := a.BulkLoad(0, counts); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		_ = addRow(b, 0, []int{1, 2})
	}
	for i := 0; i < 3; i++ {
		_ = addRow(b, 0, []int{0, 0})
	}
	q := query.MustNew(d, map[int][]int{0: {1}})
	fa, _ := a.TrueFraction(q, 0, 0)
	fb, _ := b.TrueFraction(q, 0, 0)
	if fa != fb {
		t.Fatalf("bulk %g != rows %g", fa, fb)
	}
}

func TestTrueDistribution(t *testing.T) {
	d := dom()
	ds := New(d, 2)
	_ = addCount(ds, 0, 0, 3)
	_ = addCount(ds, 1, 1, 1)
	dist, err := ds.TrueDistribution(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if dist[0] != 0.75 || dist[1] != 0.25 {
		t.Fatalf("dist = %v", dist[:2])
	}
	sum := 0.0
	for _, p := range dist {
		sum += p
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("distribution sums to %g", sum)
	}
}

func TestExecutorLaplaceNoiseScale(t *testing.T) {
	d := dom()
	ds := New(d, 1)
	_ = addCount(ds, 0, 0, 1000)
	exec := NewExecutor(ds, noise.NewRng(9))
	q := query.MustNew(d, map[int][]int{0: {0}})
	trueVal, _ := ds.TrueFraction(q, 0, 0)

	eps := 0.5
	const trials = 20000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < trials; i++ {
		r, err := exec.ExecuteDP(q, 0, 0, eps, math.NaN())
		if err != nil {
			t.Fatal(err)
		}
		e := r - trueVal
		sum += e
		sumSq += e * e
	}
	// Var[Lap(1/εn)] = 2/(εn)².
	want := 2 / math.Pow(eps*1000, 2)
	got := sumSq / trials
	if math.Abs(got-want)/want > 0.1 {
		t.Fatalf("noise variance = %g, want %g", got, want)
	}
	// Centred on the true fraction: given NaN, ExecuteDP scanned for it.
	if mean := sum / trials; math.Abs(mean) > 5*math.Sqrt(want/trials) {
		t.Fatalf("mean error %g: releases are not centred on the true fraction %g", mean, trueVal)
	}
}

// TestExecutorReusesTrueResult: an execution given its true result
// perturbs that result and does not scan for its own. Two executors on
// one seed draw the same noise, so the one given 0.42 releases 0.42 plus
// exactly the noise its twin adds to the fraction it scans, 1.
func TestExecutorReusesTrueResult(t *testing.T) {
	d := dom()
	ds := New(d, 1)
	_ = addCount(ds, 0, 0, 100)
	q := query.MustNew(d, nil)
	given, err := NewExecutor(ds, noise.NewRng(3)).ExecuteDP(q, 0, 0, 1.0, 0.42)
	if err != nil {
		t.Fatal(err)
	}
	scanned, err := NewExecutor(ds, noise.NewRng(3)).ExecuteDP(q, 0, 0, 1.0, math.NaN())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs((given-0.42)-(scanned-1)) > 1e-12 {
		t.Fatalf("given truth 0.42 released %v, scanned truth 1 released %v: not the same noise on the given truth", given, scanned)
	}
}

func TestExecutorErrors(t *testing.T) {
	d := dom()
	ds := New(d, 1)
	exec := NewExecutor(ds, noise.NewRng(3))
	q := query.MustNew(d, nil)
	if _, err := exec.ExecuteDP(q, 0, 0, 0, math.NaN()); err == nil {
		t.Error("eps=0 accepted")
	}
	if _, err := exec.ExecuteDP(q, 0, 0, -1, math.NaN()); err == nil {
		t.Error("negative eps accepted")
	}
	// Empty range: DP execution must refuse (nothing to protect or
	// release).
	if _, err := exec.ExecuteDP(q, 0, 0, 1, math.NaN()); err == nil {
		t.Error("DP execution over empty partition accepted")
	}
}

func TestExecutorGaussian(t *testing.T) {
	d := dom()
	ds := New(d, 1)
	_ = addCount(ds, 0, 0, 1000)
	exec := NewExecutor(ds, noise.NewRng(4)).WithGaussian(0.01)
	if exec.mech != Gaussian {
		t.Fatal("mechanism not switched")
	}
	if Gaussian.String() != "gaussian" || Laplace.String() != "laplace" {
		t.Fatal("mechanism names wrong")
	}
	q := query.MustNew(d, nil)
	trueVal := 1.0
	const trials = 20000
	sumSq := 0.0
	for i := 0; i < trials; i++ {
		r, err := exec.ExecuteDP(q, 0, 0, 1.0, trueVal)
		if err != nil {
			t.Fatal(err)
		}
		sumSq += (r - trueVal) * (r - trueVal)
	}
	want := math.Pow(0.01, 2) // N(0, σ²) on the fraction
	got := sumSq / trials
	if math.Abs(got-want)/want > 0.1 {
		t.Fatalf("Gaussian variance = %g, want %g", got, want)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("WithGaussian(0) did not panic")
			}
		}()
		exec.WithGaussian(0)
	}()
}
