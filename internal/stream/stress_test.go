// Race/stress suite for the streaming ingestion pipeline: ingestion storms
// interleaved with tree-mode queries (run with -race), covering pure-ε and
// Gaussian sessions, asserting the budget books stay consistent across
// arrivals.

package stream

import (
	"errors"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/accountant"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/query"
)

// TestIngestionStorm floods a session with concurrent arrival batches while
// query workers hammer windows over whatever partitions currently exist.
// Invariants checked after the storm, for pure-ε and Gaussian accounting:
//
//   - the accountant covers every dataset partition (never lagged);
//   - per-partition spend stays within ε_G (Gaussian: converted spend);
//   - every ticket resolved to a unique, dense partition index;
//   - ingested partitions hold exactly the submitted rows.
func TestIngestionStorm(t *testing.T) {
	for _, gaussian := range []bool{false, true} {
		name := "pure"
		if gaussian {
			name = "gaussian"
		}
		t.Run(name, func(t *testing.T) {
			const initial = 2
			ds := testDS(t, initial)
			sess := streamingSession(t, ds, core.Streaming, gaussian)
			ing, err := NewIngestor(sess)
			if err != nil {
				t.Fatal(err)
			}

			pool := []*query.Query{
				query.MustNew(ds.Domain(), map[int][]int{0: {1}}),
				query.MustNew(ds.Domain(), map[int][]int{1: {0, 2}}),
				query.MustNew(ds.Domain(), map[int][]int{0: {2}, 1: {3}}),
			}

			var wg sync.WaitGroup
			var mu sync.Mutex
			var indices []int
			const producers, batchesPer = 4, 6
			rowsPerBin := 20
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					for b := 0; b < batchesPer; b++ {
						size := 1 + (p+b)%2
						batch := make([]Arrival, size)
						for i := range batch {
							batch[i] = arrival(ds.Domain(), rowsPerBin)
						}
						first, last, err := appendBatch(ing, batch...)
						if err != nil {
							t.Errorf("producer %d: %v", p, err)
							return
						}
						mu.Lock()
						for i := first; i <= last; i++ {
							indices = append(indices, i)
						}
						mu.Unlock()
					}
				}(p)
			}
			const workers = 6
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 50; i++ {
						// Windows over partitions that existed at loop
						// entry: valid even as the stream grows, and every
						// named partition's budget exists (accountants grow
						// before the dataset).
						parts := ds.Partitions()
						lo := (w + i) % parts
						q := pool[i%len(pool)].WithWindow(lo, parts-1)
						if _, err := sess.Answer(q); err != nil && !errors.Is(err, accountant.ErrBudgetExhausted) {
							t.Errorf("worker %d: %v", w, err)
							return
						}
						// Dataset first: read the other way round, a whole
						// append can land between the two reads.
						if now := ds.Partitions(); sess.Accountant().Partitions() < now {
							t.Error("scalar block lags the dataset")
							return
						}
					}
				}(w)
			}
			wg.Wait()

			// Index assignment: a dense, unique range after the initial
			// partitions.
			sort.Ints(indices)
			for i, idx := range indices {
				if idx != initial+i {
					t.Fatalf("indices not dense at %d: got %d", i, idx)
				}
			}
			if ds.Partitions() != initial+len(indices) {
				t.Fatalf("dataset has %d partitions, want %d", ds.Partitions(), initial+len(indices))
			}
			for _, idx := range indices {
				if n := partitionRows(ds, idx); n != rowsPerBin*ds.Domain().Size() {
					t.Fatalf("partition %d holds %d rows", idx, n)
				}
			}

			// Budget books: consistent across every arrival the storm drove.
			acct := sess.Accountant()
			if acct.Partitions() != ds.Partitions() {
				t.Fatalf("block has %d partitions, dataset %d", acct.Partitions(), ds.Partitions())
			}
			for i := 0; i < acct.Partitions(); i++ {
				if s := acct.SpentVector()[i]; s > acct.Global()+1e-9 {
					t.Fatalf("partition %d overspent: %g", i, s)
				}
			}
			if (acct.Orders() != nil) != gaussian {
				t.Fatalf("accounting grid %v in a gaussian=%v session", acct.Orders(), gaussian)
			}

			st := ing.Stats()
			if st.Partitions != int64(len(indices)) {
				t.Fatalf("stats: %+v, want %d partitions", st, len(indices))
			}
		})
	}
}

// TestStormWithDedup layers identical concurrent queries on top of an
// ingestion storm: the single-flight group must keep the pipeline safe
// when many goroutines race the same window/version while partitions
// arrive.
func TestStormWithDedup(t *testing.T) {
	ds := testDS(t, 4)
	sess := streamingSession(t, ds, core.Streaming, false)
	ing, err := NewIngestor(sess)
	if err != nil {
		t.Fatal(err)
	}

	q := query.MustNew(ds.Domain(), map[int][]int{0: {1}})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for b := 0; b < 8; b++ {
			if _, _, err := appendBatch(ing, arrival(ds.Domain(), 15)); err != nil {
				t.Errorf("append: %v", err)
				return
			}
		}
	}()
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				// Everyone chases the same fixed window so duplicates pile
				// onto the same flight key per data version.
				if _, err := sess.Answer(q.WithWindow(0, 3)); err != nil && !errors.Is(err, accountant.ErrBudgetExhausted) {
					t.Errorf("answer: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()

	acct := sess.Accountant()
	for i := 0; i < acct.Partitions(); i++ {
		if s := acct.SpentVector()[i]; s > acct.Global()+1e-9 {
			t.Fatalf("partition %d overspent: %g", i, s)
		}
	}
	if sess.Queries() == 0 {
		t.Fatal("no queries served")
	}
}

// TestOverflowStormConsumesNoIndex: batches submitted side by side that
// each fit below dataset.MaxRows but together overflow it. The room check
// runs inside the arrival's lock, so the batches that fit land whole on
// dense indices and every other one is refused with its error, consuming
// no partition index and leaving no empty partition behind.
func TestOverflowStormConsumesNoIndex(t *testing.T) {
	const initial = 2
	ds := testDS(t, initial)
	sess := streamingSession(t, ds, core.Streaming, false)
	ing, err := NewIngestor(sess)
	if err != nil {
		t.Fatal(err)
	}
	rows := ds.NRowsAll()
	big := (dataset.MaxRows-rows)/3 + 1 // two batches fit, a third does not

	const producers = 8
	type result struct {
		first, last, size int
		err               error
	}
	results := make([]result, producers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < producers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			batch := make([]Arrival, 1+g%2) // a second arrival is empty
			batch[0] = Arrival{Counts: make([]int, ds.Domain().Size())}
			batch[0].Counts[g%ds.Domain().Size()] = big
			<-start
			first, last, err := appendBatch(ing, batch...)
			results[g] = result{first, last, len(batch), err}
		}(g)
	}
	close(start)
	wg.Wait()

	var indices []int
	accepted, refused := 0, 0
	for g, r := range results {
		if r.err != nil {
			refused++
			continue
		}
		accepted++
		if r.last-r.first+1 != r.size {
			t.Fatalf("producer %d: range [%d,%d] for %d arrivals", g, r.first, r.last, r.size)
		}
		for p := r.first; p <= r.last; p++ {
			indices = append(indices, p)
		}
	}
	if accepted != 2 || refused != producers-2 {
		t.Fatalf("%d batches accepted and %d refused, want 2 and %d", accepted, refused, producers-2)
	}
	sort.Ints(indices)
	for i, p := range indices {
		if p != initial+i {
			t.Fatalf("accepted indices %v are not dense from %d", indices, initial)
		}
	}
	if got, want := ds.Partitions(), initial+len(indices); got != want {
		t.Fatalf("dataset has %d partitions, the accepted batches hold %d", got, want)
	}
	if got := sess.Accountant().Partitions(); got != ds.Partitions() {
		t.Fatalf("books cover %d partitions, dataset holds %d", got, ds.Partitions())
	}
	if got, want := ds.NRowsAll(), rows+2*big; got != want {
		t.Fatalf("dataset holds %d rows, want %d", got, want)
	}
	if st := ing.Stats(); st.Batches != 2 || st.Partitions != int64(len(indices)) {
		t.Fatalf("stats %+v, want 2 batches of %d partitions", st, len(indices))
	}
}

// settledGoroutines reads runtime.NumGoroutine once it holds still, so
// the goroutines earlier tests left exiting do not count.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for range 100 {
		time.Sleep(time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	return n
}

// TestSubmitStartsNoGoroutine: an ingestor runs nothing in the background;
// every batch is applied by the goroutine that submits it.
func TestSubmitStartsNoGoroutine(t *testing.T) {
	ds := testDS(t, 1)
	sess := streamingSession(t, ds, core.Streaming, false)
	before := settledGoroutines()
	ing, err := NewIngestor(sess)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := ing.Submit(arrival(ds.Domain(), 1)); err != nil {
			t.Fatal(err)
		}
	}
	if after := settledGoroutines(); after > before {
		t.Fatalf("%d goroutines after NewIngestor and 100 Submits, %d before", after, before)
	}
	if ds.Partitions() != 101 {
		t.Fatalf("partitions = %d, want 101", ds.Partitions())
	}
}
