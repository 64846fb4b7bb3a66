package core

import (
	"bytes"
	"errors"
	"math"
	"sync"
	"testing"

	"repro/internal/accountant"
	"repro/internal/dataset"
	"repro/internal/domain"
	"repro/internal/noise"
	"repro/internal/query"
)

func concurrentDS(t *testing.T, parts int) *dataset.Dataset {
	t.Helper()
	dom := domain.MustNew(
		domain.Attribute{Name: "a", Card: 4},
		domain.Attribute{Name: "b", Card: 4},
	)
	ds := dataset.New(dom, parts)
	rng := noise.NewRng(11)
	for p := 0; p < parts; p++ {
		for bin := 0; bin < dom.Size(); bin++ {
			if err := addCount(ds, p, bin, 30+rng.IntN(50)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return ds
}

// TestConcurrentAnswerPartitioned hammers a partitioned session
// from many goroutines (run with -race) and checks the invariants that
// must survive any interleaving: per-partition budget within ε_G, and
// counters consistent with the number of served answers.
func TestConcurrentAnswerPartitioned(t *testing.T) {
	ds := concurrentDS(t, 16)
	sess, err := NewSession(Config{
		Mode:  Partitioned,
		Alpha: 0.1, Beta: 0.01, EpsilonGlobal: 20,
		Seed: 5,
	}, ds)
	if err != nil {
		t.Fatal(err)
	}
	pool := []*query.Query{
		query.MustNew(ds.Domain(), map[int][]int{0: {1}}),
		query.MustNew(ds.Domain(), map[int][]int{1: {0, 2}}),
		query.MustNew(ds.Domain(), map[int][]int{0: {2}, 1: {3}}),
	}
	windows := [][2]int{{0, 3}, {4, 7}, {8, 11}, {12, 15}, {0, 7}, {8, 15}, {0, 15}}

	var wg sync.WaitGroup
	var served atomic64
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				win := windows[(w*3+i)%len(windows)]
				q := pool[i%len(pool)].WithWindow(win[0], win[1])
				_, err := sess.Answer(q)
				if err != nil && !errors.Is(err, accountant.ErrBudgetExhausted) {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if err == nil {
					served.add(1)
				}
			}
		}(w)
	}
	wg.Wait()

	acct := sess.Accountant()
	for i := 0; i < ds.Partitions(); i++ {
		if s := acct.SpentVector()[i]; s > acct.Global()+1e-9 {
			t.Fatalf("partition %d overspent: %g > %g", i, s, acct.Global())
		}
	}
	if got := sess.Queries(); int64(got) != served.load() {
		t.Fatalf("Queries() = %d, served %d", got, served.load())
	}
	total := 0
	for _, c := range sess.SourceCounts() {
		total += c
	}
	if int64(total) != served.load() {
		t.Fatalf("source counts sum %d != served %d", total, served.load())
	}
}

// TestConcurrentAnswerNonPartitioned exercises the single PMW path under
// concurrency: exact hits are lock-free, misses serialize, and every
// charge of the one PMW-Bypass — its sparse vector and its
// direct releases, composed concurrently with adaptively chosen budgets
// (Appendix B) — lands on the one set of books, equally on every
// partition.
func TestConcurrentAnswerNonPartitioned(t *testing.T) {
	ds := concurrentDS(t, 3)
	sess, err := NewSession(Config{
		Mode:  NonPartitioned,
		Alpha: 0.1, Beta: 0.01, EpsilonGlobal: 15,
		Seed: 6,
	}, ds)
	if err != nil {
		t.Fatal(err)
	}
	pool := make([]*query.Query, 0, 8)
	for v := 0; v < 4; v++ {
		pool = append(pool,
			query.MustNew(ds.Domain(), map[int][]int{0: {v}}),
			query.MustNew(ds.Domain(), map[int][]int{1: {v}}),
		)
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				q := pool[(w+i)%len(pool)]
				if _, err := sess.Answer(q); err != nil && !errors.Is(err, accountant.ErrBudgetExhausted) {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	// The books hold exactly what the PMW's mechanisms cost: ε per direct
	// release (R2 and R3), 3ε per sparse-vector (re)initialization.
	spent := sess.Accountant().SpentVector()
	st, eps := sess.PMW().Stats(), sess.PMW().Epsilon()
	if want := eps*float64(st.R2+st.R3) + 3*eps*float64(st.SVResets); math.Abs(spent[0]-want) > 1e-9 {
		t.Fatalf("books hold %g, the PMW ran %+v at ε = %g: want %g", spent[0], st, eps, want)
	}
	for p, v := range spent {
		if v != spent[0] || v > sess.Accountant().Global()+1e-9 {
			t.Fatalf("partition %d spent %g, partition 0 %g: the full-range payer charges all alike", p, v, spent[0])
		}
	}
	if live := sess.LiveSparseVectors(); live > 1 {
		t.Fatalf("more than one live sparse vector: %d", live)
	}
	if sess.Queries() == 0 {
		t.Fatal("no queries served")
	}
}

// TestRestoreSyncsAdmission checks a restored session needs nothing
// brought back in step: the books are the one section that restored, no
// payment is replayed to re-admit them, and the next charge composes onto
// them.
func TestRestoreSyncsAdmission(t *testing.T) {
	ds := concurrentDS(t, 1)
	cfg := Config{Mode: NonPartitioned, Alpha: 0.1, Beta: 0.01, EpsilonGlobal: 15, Seed: 6}
	sess, err := NewSession(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 4; v++ {
		if _, err := sess.Answer(query.MustNew(ds.Domain(), map[int][]int{0: {v}})); err != nil {
			t.Fatal(err)
		}
	}
	saved := sess.Accountant().MaxSpent()
	if saved == 0 {
		t.Fatal("test needs nonzero spend")
	}
	var buf bytes.Buffer
	if err := sess.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	fresh, err := NewSession(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.LoadState(&buf); err != nil {
		t.Fatal(err)
	}
	if got := fresh.Accountant().MaxSpent(); got != saved {
		t.Fatalf("restored books hold %g, saved %g", got, saved)
	}
	if n := fresh.AdmissionLockAcquisitions(); n != 0 {
		t.Fatalf("restore made %d admission-relevant accountant calls, want none", n)
	}
	a, err := fresh.Answer(query.MustNew(ds.Domain(), map[int][]int{1: {2}}))
	if err != nil {
		t.Fatal(err)
	}
	if got := fresh.Accountant().MaxSpent(); got < saved+a.Paid-1e-12 {
		t.Fatalf("post-restore charge of %g left the books at %g (restored at %g)", a.Paid, got, saved)
	}
}

// TestConcurrentAppendAndAnswer races Session.AppendPartition (streaming
// arrivals) against Answer: the tree's lazy node growth and the
// accountant/dataset partition-count skew between AppendPartition's
// non-atomic steps must never corrupt state, overspend a partition, or
// let a query reference a partition whose budget does not exist yet (the
// accountant grows before the dataset, so the skew is always on the safe
// side). Run with -race; the Gaussian subtest races the Rényi block's
// growth, whose stride is the order grid.
func TestConcurrentAppendAndAnswer(t *testing.T) {
	for _, gaussian := range []bool{false, true} {
		name := "pure"
		if gaussian {
			name = "gaussian"
		}
		t.Run(name, func(t *testing.T) {
			ds := concurrentDS(t, 4)
			cfg := Config{
				Mode:  Streaming,
				Alpha: 0.1, Beta: 0.01, EpsilonGlobal: 20,
				Seed: 9,
			}
			if gaussian {
				cfg.Gaussian = true
				cfg.DeltaGlobal = 1e-6
			}
			sess, err := NewSession(cfg, ds)
			if err != nil {
				t.Fatal(err)
			}
			pool := []*query.Query{
				query.MustNew(ds.Domain(), map[int][]int{0: {1}}),
				query.MustNew(ds.Domain(), map[int][]int{1: {0, 2}}),
			}

			var wg sync.WaitGroup
			// Appender: grow the stream while queries are in flight.
			wg.Add(1)
			go func() {
				defer wg.Done()
				for a := 0; a < 12; a++ {
					counts := make([]int, ds.Domain().Size())
					for bin := range counts {
						counts[bin] = 40
					}
					if _, err := sess.AppendPartitions(Arrival{Counts: counts}); err != nil {
						t.Errorf("AppendPartitions: %v", err)
						return
					}
					// The accountant must never lag the dataset. Dataset
					// first: read the other way round, a whole append can
					// land between the two reads and look like a lag.
					if parts := ds.Partitions(); sess.Accountant().Partitions() < parts {
						t.Error("block lags the dataset")
						return
					}
				}
			}()
			for w := 0; w < 6; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 40; i++ {
						// Window over partitions that existed at loop
						// entry: always valid even as the stream grows.
						parts := ds.Partitions()
						lo := (w + i) % parts
						q := pool[i%len(pool)].WithWindow(lo, parts-1)
						if _, err := sess.Answer(q); err != nil && !errors.Is(err, accountant.ErrBudgetExhausted) {
							t.Errorf("worker %d: %v", w, err)
							return
						}
					}
				}(w)
			}
			wg.Wait()

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
		})
	}
}

// atomic64 is a tiny counter helper keeping the test dependency-free.
type atomic64 struct {
	mu sync.Mutex
	v  int64
}

func (a *atomic64) add(d int64) { a.mu.Lock(); a.v += d; a.mu.Unlock() }
func (a *atomic64) load() int64 { a.mu.Lock(); defer a.mu.Unlock(); return a.v }
