package stream

import (
	"math"
	"sort"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/domain"
	"repro/internal/interval"
	"repro/internal/noise"
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

// testDomain is the shared small domain of the package's tests.
func testDomain() *domain.Domain {
	return domain.MustNew(
		domain.Attribute{Name: "a", Card: 4},
		domain.Attribute{Name: "b", Card: 4},
	)
}

// testDS builds a dataset with parts loaded partitions.
func testDS(t *testing.T, parts int) *dataset.Dataset {
	t.Helper()
	dom := testDomain()
	ds := dataset.New(dom, parts)
	rng := noise.NewRng(3)
	for p := 0; p < parts; p++ {
		for bin := 0; bin < dom.Size(); bin++ {
			if err := addCount(ds, p, bin, 30+rng.IntN(40)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return ds
}

// streamingSession builds a streaming session over ds.
func streamingSession(t *testing.T, ds *dataset.Dataset, mode core.Mode, gaussian bool) *core.Session {
	t.Helper()
	cfg := core.Config{
		Mode:  mode,
		Alpha: 0.1, Beta: 0.01, EpsilonGlobal: 20,
		Seed: 7,
	}
	if gaussian {
		cfg.Gaussian = true
		cfg.DeltaGlobal = 1e-6
	}
	sess, err := core.NewSession(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

// arrival builds a payload with count rows per bin.
func arrival(dom *domain.Domain, count int) Arrival {
	counts := make([]int, dom.Size())
	for bin := range counts {
		counts[bin] = count
	}
	return Arrival{Counts: counts}
}

// appendBatch submits one batch and returns the range its ticket reports.
func appendBatch(ing *Ingestor, arrivals ...Arrival) (first, last int, err error) {
	tk, err := ing.Submit(arrivals...)
	if err != nil {
		return 0, 0, err
	}
	return tk.Wait()
}

// TestIngestorAssignsDenseIndices submits batches from many goroutines and
// checks every arrival gets a unique, dense partition index, with data
// loaded and accountants grown before Submit returns.
func TestIngestorAssignsDenseIndices(t *testing.T) {
	ds := testDS(t, 2)
	sess := streamingSession(t, ds, core.Streaming, false)
	ing, err := NewIngestor(sess)
	if err != nil {
		t.Fatal(err)
	}

	const producers, batchesPer = 6, 5
	var mu sync.Mutex
	var indices []int
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for b := 0; b < batchesPer; b++ {
				size := 1 + (p+b)%3
				batch := make([]Arrival, size)
				for i := range batch {
					batch[i] = arrival(ds.Domain(), 10)
				}
				first, last, err := appendBatch(ing, batch...)
				if err != nil {
					t.Errorf("producer %d: %v", p, err)
					return
				}
				if last-first+1 != size {
					t.Errorf("producer %d: got range [%d,%d] for %d arrivals", p, first, last, size)
					return
				}
				// The arrival guarantees: accountants cover the new
				// partitions and the data is loaded when Submit returns.
				if sess.Accountant().Partitions() < last+1 {
					t.Error("accountant lags a resolved ticket")
					return
				}
				for i := first; i <= last; i++ {
					if partitionRows(ds, i) != 10*ds.Domain().Size() {
						t.Errorf("partition %d rows not loaded at ticket resolution", i)
						return
					}
				}
				mu.Lock()
				for i := first; i <= last; i++ {
					indices = append(indices, i)
				}
				mu.Unlock()
			}
		}(p)
	}
	wg.Wait()

	sort.Ints(indices)
	for i, idx := range indices {
		if idx != 2+i {
			t.Fatalf("indices not dense/unique at %d: %v...", i, indices[:i+1])
		}
	}
	st := ing.Stats()
	if st.Batches != producers*batchesPer {
		t.Fatalf("Batches = %d, want %d", st.Batches, producers*batchesPer)
	}
	if st.Epochs != st.Batches || st.Shed != 0 {
		t.Fatalf("Epochs = %d, Shed = %d, want %d and 0", st.Epochs, st.Shed, st.Batches)
	}
	if int(st.Partitions) != len(indices) {
		t.Fatalf("Partitions = %d, want %d", st.Partitions, len(indices))
	}
	wantRows := int64(0)
	for range indices {
		wantRows += int64(10 * ds.Domain().Size())
	}
	if st.Rows != wantRows {
		t.Fatalf("Rows = %d, want %d", st.Rows, wantRows)
	}
}

// TestIngestorEagerWarmStart checks a streaming ingest materializes the new
// leaf at ingestion time with the previous leaf's trained histogram, and
// that a plain partitioned session keeps leaves lazy.
func TestIngestorEagerWarmStart(t *testing.T) {
	ds := testDS(t, 1)
	sess := streamingSession(t, ds, core.Streaming, false)
	ing, err := NewIngestor(sess)
	if err != nil {
		t.Fatal(err)
	}

	// Train leaf 0 so its histogram departs from uniform.
	q := query.MustNew(ds.Domain(), map[int][]int{0: {1}}).WithWindow(0, 0)
	for i := 0; i < 10; i++ {
		if _, err := sess.Answer(q); err != nil {
			t.Fatal(err)
		}
	}
	prev := leafWeights(sess.Tree(), 0)
	if prev == nil {
		t.Fatal("leaf 0 never materialized")
	}

	first, _, err := appendBatch(ing, arrival(ds.Domain(), 25))
	if err != nil {
		t.Fatal(err)
	}
	got := leafWeights(sess.Tree(), first)
	if got == nil {
		t.Fatal("streaming ingest did not materialize the new leaf eagerly")
	}
	for bin := range prev {
		if math.Abs(got[bin]-prev[bin]) > 1e-12 {
			t.Fatalf("leaf %d not warm-started from leaf 0 at bin %d: %g vs %g",
				first, bin, got[bin], prev[bin])
		}
	}
	if ing.Stats().WarmStarted != 1 {
		t.Fatalf("WarmStarted = %d, want 1", ing.Stats().WarmStarted)
	}

	// A partitioned (non-warm-start) session keeps leaves lazy.
	ds2 := testDS(t, 1)
	sess2 := streamingSession(t, ds2, core.Partitioned, false)
	ing2, err := NewIngestor(sess2)
	if err != nil {
		t.Fatal(err)
	}
	first2, _, err := appendBatch(ing2, arrival(ds2.Domain(), 25))
	if err != nil {
		t.Fatal(err)
	}
	if leafWeights(sess2.Tree(), first2) != nil {
		t.Fatal("partitioned ingest materialized a leaf it should leave lazy")
	}
	if ing2.Stats().WarmStarted != 0 {
		t.Fatalf("partitioned WarmStarted = %d, want 0", ing2.Stats().WarmStarted)
	}
}

// TestNewestPartitionIsLoadedAndWarm storms a streaming session with
// appends of loaded arrivals against queries aimed at the newest partition
// the dataset shows. An arrival is published only once its rows are
// loaded and its leaf is warm, so every answer counts the partition's
// rows, and the eager pass makes every leaf itself: WarmStarted equals the
// partitions appended. While the dataset grew a partition before loading
// it, a query there planned 0 rows, and one query in twenty storms made
// the leaf before the eager pass.
func TestNewestPartitionIsLoadedAndWarm(t *testing.T) {
	ds := testDS(t, 1)
	sess := streamingSession(t, ds, core.Streaming, false)
	const appends, perBin = 200, 5
	want := perBin * ds.Domain().Size()
	q := query.MustNew(ds.Domain(), map[int][]int{0: {1}})
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < appends; i++ {
			if _, err := sess.AppendPartitions(arrival(ds.Domain(), perBin)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				p := ds.Partitions() - 1
				if p == 0 {
					continue
				}
				ans, err := sess.Answer(q.WithWindow(p, p))
				if err != nil {
					t.Errorf("partition %d: %v", p, err)
					return
				}
				if ans.Rows != want {
					t.Errorf("partition %d answered over %d rows, want %d", p, ans.Rows, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := sess.WarmStarted(); got != appends {
		t.Fatalf("WarmStarted = %d, want the %d partitions appended", got, appends)
	}
}

// TestIngestorValidation checks malformed submissions are refused whole,
// before any partition index is consumed.
func TestIngestorValidation(t *testing.T) {
	ds := testDS(t, 1)
	sess := streamingSession(t, ds, core.Streaming, false)
	ing, err := NewIngestor(sess)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := ing.Submit(); err == nil {
		t.Fatal("empty batch accepted")
	}
	if _, err := ing.Submit(Arrival{Counts: []int{1, 2}}); err == nil {
		t.Fatal("wrong-width payload accepted")
	}
	bad := make([]int, ds.Domain().Size())
	bad[0] = -1
	if _, err := ing.Submit(Arrival{Counts: bad}); err == nil {
		t.Fatal("negative count accepted")
	}
	// Rows past dataset.MaxRows, in one count or across a batch, are
	// refused: the dataset could not hold them exactly.
	huge := make([]int, ds.Domain().Size())
	huge[0] = dataset.MaxRows
	if _, err := ing.Submit(Arrival{Counts: huge}); err == nil {
		t.Fatal("count past dataset.MaxRows accepted")
	}
	half := make([]int, ds.Domain().Size())
	half[1] = dataset.MaxRows / 2
	if _, err := ing.Submit(Arrival{Counts: half}, Arrival{Counts: half}); err == nil {
		t.Fatal("batch passing dataset.MaxRows accepted")
	}
	if ds.Partitions() != 1 {
		t.Fatalf("failed submissions consumed partitions: %d", ds.Partitions())
	}

	// Empty (nil-counts) arrivals register an empty partition.
	first, last, err := appendBatch(ing, Arrival{})
	if err != nil {
		t.Fatal(err)
	}
	if first != 1 || last != 1 || partitionRows(ds, 1) != 0 {
		t.Fatalf("nil-counts arrival: [%d,%d], n=%d", first, last, partitionRows(ds, 1))
	}

	// Non-partitioned sessions cannot ingest.
	np, err := core.NewSession(core.Config{
		Mode: core.NonPartitioned, Alpha: 0.1, Beta: 0.01, EpsilonGlobal: 10, Seed: 3,
	}, testDS(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewIngestor(np); err == nil {
		t.Fatal("ingestor over a non-partitioned session accepted")
	}
}

// leafWeights returns the weights of partition p's tree leaf, read off
// the tree's node export, or nil when the leaf was never materialized.
func leafWeights(tr *tree.Tree, p int) []float64 {
	for _, n := range tr.ExportNodes() {
		if n.IV == (interval.Node{Start: p, End: p}) {
			return n.Hist.Weights
		}
	}
	return nil
}
