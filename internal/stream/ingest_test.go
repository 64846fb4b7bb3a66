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
)

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
			if err := ds.AddCount(p, bin, 30+rng.IntN(40)); err != nil {
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
		Shards: 4, Seed: 7,
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

// TestIngestorAssignsDenseIndices submits batches from many goroutines and
// checks the epochs assign every arrival a unique, dense partition index,
// with data loaded and accountants grown before the ticket resolves.
func TestIngestorAssignsDenseIndices(t *testing.T) {
	ds := testDS(t, 2)
	sess := streamingSession(t, ds, core.Streaming, false)
	ing, err := NewIngestor(sess)
	if err != nil {
		t.Fatal(err)
	}
	defer ing.Close()

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
				first, last, err := ing.Append(batch...)
				if err != nil {
					t.Errorf("producer %d: %v", p, err)
					return
				}
				if last-first+1 != size {
					t.Errorf("producer %d: got range [%d,%d] for %d arrivals", p, first, last, size)
					return
				}
				// The epoch guarantees: accountants cover the new
				// partitions and the data is loaded when Wait returns.
				if sess.Accountant().Partitions() < last+1 {
					t.Error("accountant lags a resolved ticket")
					return
				}
				for i := first; i <= last; i++ {
					if ds.PartitionN(i) != 10*ds.Domain().Size() {
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
	if st.Epochs < 1 || st.Epochs > st.Batches {
		t.Fatalf("Epochs = %d out of [1,%d]", st.Epochs, st.Batches)
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
	if st.Pending != 0 {
		t.Fatalf("Pending = %d after all waits", st.Pending)
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
	defer ing.Close()

	// Train leaf 0 so its histogram departs from uniform.
	q := query.MustNew(ds.Domain(), map[int][]int{0: {1}}).WithWindow(0, 0)
	for i := 0; i < 10; i++ {
		if _, err := sess.Answer(q); err != nil {
			t.Fatal(err)
		}
	}
	prev := sess.Tree().NodeHistogram(interval.Node{Start: 0, End: 0})
	if prev == nil {
		t.Fatal("leaf 0 never materialized")
	}

	first, _, err := ing.Append(arrival(ds.Domain(), 25))
	if err != nil {
		t.Fatal(err)
	}
	got := sess.Tree().NodeHistogram(interval.Node{Start: first, End: first})
	if got == nil {
		t.Fatal("streaming ingest did not materialize the new leaf eagerly")
	}
	for bin := 0; bin < prev.Size(); bin++ {
		if math.Abs(got.Weight(bin)-prev.Weight(bin)) > 1e-12 {
			t.Fatalf("leaf %d not warm-started from leaf 0 at bin %d: %g vs %g",
				first, bin, got.Weight(bin), prev.Weight(bin))
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
	defer ing2.Close()
	first2, _, err := ing2.Append(arrival(ds2.Domain(), 25))
	if err != nil {
		t.Fatal(err)
	}
	if h := sess2.Tree().NodeHistogram(interval.Node{Start: first2, End: first2}); h != nil {
		t.Fatal("partitioned ingest materialized a leaf it should leave lazy")
	}
	if ing2.Stats().WarmStarted != 0 {
		t.Fatalf("partitioned WarmStarted = %d, want 0", ing2.Stats().WarmStarted)
	}
}

// TestEagerPassLosesRaceToQuery scripts the interleaving that made the
// server's append storm read "warm-started 21 leaves, want 22" one run in
// twenty: a query names a just-appended partition after the dataset grew
// and before the eager pass reaches it. The query's own tree walk creates
// the leaf, warm-started; the pass finds it and reports no creation, which
// is why Stats.WarmStarted counts leaves the pass created, not leaves that
// are warm.
func TestEagerPassLosesRaceToQuery(t *testing.T) {
	ds := testDS(t, 1)
	sess := streamingSession(t, ds, core.Streaming, false)
	q := query.MustNew(ds.Domain(), map[int][]int{0: {1}})
	for i := 0; i < 10; i++ { // train leaf 0 away from uniform
		if _, err := sess.Answer(q.WithWindow(0, 0)); err != nil {
			t.Fatal(err)
		}
	}
	// What applyEpoch does before its eager pass.
	first, err := sess.AppendPartitions(2)
	if err != nil {
		t.Fatal(err)
	}
	for p := first; p < first+2; p++ {
		if err := ds.BulkLoad(p, arrival(ds.Domain(), 25).Counts); err != nil {
			t.Fatal(err)
		}
	}
	leaf := func(p int) interval.Node { return interval.Node{Start: p, End: p} }
	tr := sess.Tree()
	if tr.NodeHistogram(leaf(first)) != nil {
		t.Fatal("leaf exists before anything touched it")
	}

	// The racing query wins partition first; nobody races for first+1.
	if _, err := sess.Answer(q.WithWindow(first, first)); err != nil {
		t.Fatal(err)
	}
	if tr.NodeHistogram(leaf(first)) == nil {
		t.Fatal("the query did not create the leaf it ran over")
	}
	if tr.EagerWarmStart(first) {
		t.Fatal("the eager pass claims a leaf the query created")
	}
	if !tr.EagerWarmStart(first + 1) {
		t.Fatal("the eager pass did not create the leaf nobody raced for")
	}
	// The leaf the pass did not count is as warm as the one it did: the
	// second copied its histogram, and that is leaf 0's training, not the
	// uniform prior.
	won, made := tr.NodeHistogram(leaf(first)), tr.NodeHistogram(leaf(first+1))
	uniform := 1 / float64(made.Size())
	trained := false
	for bin := 0; bin < made.Size(); bin++ {
		if math.Abs(won.Weight(bin)-made.Weight(bin)) > 1e-12 {
			t.Fatalf("leaf %d not copied from the leaf the query created at bin %d", first+1, bin)
		}
		trained = trained || math.Abs(made.Weight(bin)-uniform) > 1e-9
	}
	if !trained {
		t.Fatal("the raced leaf carries the uniform prior: it was not warm-started")
	}
}

// TestIngestorValidation checks malformed submissions fail fast, before any
// partition index is consumed.
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
	// refused at Submit: the dataset could not hold them exactly.
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
	first, last, err := ing.Append(Arrival{})
	if err != nil {
		t.Fatal(err)
	}
	if first != 1 || last != 1 || ds.PartitionN(1) != 0 {
		t.Fatalf("nil-counts arrival: [%d,%d], n=%d", first, last, ds.PartitionN(1))
	}

	ing.Close()
	if _, err := ing.Submit(arrival(ds.Domain(), 1)); err == nil {
		t.Fatal("submit after Close accepted")
	}
	ing.Close() // idempotent

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

// TestIngestorFlush checks Flush observes every prior Submit.
func TestIngestorFlush(t *testing.T) {
	ds := testDS(t, 1)
	sess := streamingSession(t, ds, core.Streaming, false)
	ing, err := NewIngestor(sess)
	if err != nil {
		t.Fatal(err)
	}
	defer ing.Close()
	var tickets []*Ticket
	for i := 0; i < 20; i++ {
		tk, err := ing.Submit(arrival(ds.Domain(), 5))
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	ing.Flush()
	for _, tk := range tickets {
		select {
		case <-tk.done:
		default:
			t.Fatal("Flush returned with an unresolved ticket")
		}
	}
	if ds.Partitions() != 21 {
		t.Fatalf("partitions = %d, want 21", ds.Partitions())
	}
}
