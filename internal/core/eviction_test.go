// Eviction-safety tests for the memory-bounded storage backend: evicting
// a cached DP release must be provably harmless. The evicted release
// re-executes — and re-pays exactly once — through the single-flight
// path, the accountant never loses a charge under any interleaving of
// queries, ingestion epochs, snapshots, and forced evictions, and no
// load reaches a window the cache holds, however it churned.

package core

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/query"
	"repro/internal/store"
)

// payloadOf is the store payload of q's cached release: its key and the
// encoded entry.
func payloadOf(q *query.Query) int {
	return len(q.KeyWithWindow()) + len(cache.Entry{}.AppendFast(nil))
}

// sumSpent totals the scalar block's per-partition spend.
func sumSpent(s *Session) float64 {
	total := 0.0
	for _, v := range s.block.SpentVector() {
		total += v
	}
	return total
}

// TestEvictedWindowRepaysOnceThroughSingleFlight is the eviction-safety
// property test: a window whose cached release was evicted re-executes
// on the next request, and N concurrent re-requests pay for exactly one
// execution — the accountant moves by precisely the Paid of one run, and
// every requester observes the same released value.
func TestEvictedWindowRepaysOnceThroughSingleFlight(t *testing.T) {
	_, ds := buildDS(t, 8)
	cfg := defaultCfg(Partitioned)
	target := query.MustNew(ds.Domain(), map[int][]int{0: {1}}).WithWindow(0, 1)
	// Room for four releases: every key here is the same length.
	be := store.NewMem(store.MemConfig{MaxBytes: 4 * payloadOf(target)})
	cfg.Backend = be
	s, err := NewSession(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}

	first, err := s.Answer(target)
	if err != nil {
		t.Fatal(err)
	}
	if first.Paid <= 0 {
		t.Fatalf("first execution paid %g, want > 0", first.Paid)
	}

	// Churn distinct windows until the target's entry is evicted from the
	// 4-entry backend.
	churn := query.MustNew(ds.Domain(), map[int][]int{0: {0}})
	for w := 0; w < 8; w++ {
		for e := w; e < 8; e++ {
			if _, err := s.Answer(churn.WithWindow(w, e)); err != nil {
				t.Fatal(err)
			}
		}
	}
	var gone cache.Entry
	if found, _ := be.Get(target.KeyWithWindow(), &gone); found {
		t.Fatal("target entry survived churn; eviction never happened")
	}

	spent0 := sumSpent(s)
	deduped0 := s.Deduped()
	const N = 16
	answers := make([]Answer, N)
	errs := make([]error, N)
	var wg sync.WaitGroup
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			answers[i], errs[i] = s.Answer(target)
		}(i)
	}
	wg.Wait()

	var paid float64
	executions := 0
	for i := 0; i < N; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if answers[i].Value != answers[0].Value {
			t.Fatalf("answer %d = %g, answer 0 = %g: concurrent re-queries observed different releases",
				i, answers[i].Value, answers[0].Value)
		}
		if answers[i].Source != SourceExactHit {
			paid = answers[i].Paid
			executions++
		}
	}
	// One leader executed; every non-exact-hit answer shared its flight.
	shared := s.Deduped() - deduped0
	if executions-shared != 1 {
		t.Fatalf("%d executions, %d shared: want exactly one real execution", executions, shared)
	}
	delta := sumSpent(s) - spent0
	if math.Abs(delta-paid) > 1e-9 {
		t.Fatalf("accountant moved %g for N=%d re-queries, want exactly one execution's %g",
			delta, N, paid)
	}
}

// TestEvictionUnderFire interleaves queries, appends, snapshot
// captures and forced backend evictions under -race, then asserts the
// books: per-partition spend within ε_G, a captured snapshot restores
// with charge-for-charge equality (no lost accountant charge), and a
// load into a served window is refused, its release repeating free,
// even after heavy eviction churn.
func TestEvictionUnderFire(t *testing.T) {
	_, ds := buildDS(t, 8)
	cfg := defaultCfg(Streaming)
	cfg.EpsilonGlobal = 1000
	filler := query.MustNew(ds.Domain(), map[int][]int{1: {0}}) // no worker asks it
	capped := store.MemConfig{MaxBytes: 48 * payloadOf(filler.WithWindow(0, 0))}
	be := store.NewMem(capped)
	cfg.Backend = be
	s, err := NewSession(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	s.PersistDataset() // the appender grows the in-memory store mid-run

	preds := []*query.Query{
		query.MustNew(ds.Domain(), map[int][]int{0: {1}}),
		query.MustNew(ds.Domain(), map[int][]int{0: {0}}),
		query.MustNew(ds.Domain(), map[int][]int{1: {1, 2}}),
		query.MustNew(ds.Domain(), map[int][]int{0: {1}, 1: {3}}),
	}

	var wg sync.WaitGroup
	// Query workers over random windows of the currently-known range.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 150; i++ {
				parts := s.Dataset().Partitions()
				a := rng.Intn(parts)
				b := a + rng.Intn(parts-a)
				q := preds[rng.Intn(len(preds))].WithWindow(a, b)
				if _, err := s.Answer(q); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	// Ingestion epochs: new partitions appear and load mid-traffic.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			counts := make([]int, ds.Domain().Size())
			for a := 0; a < 4; a++ {
				counts[ds.Domain().Encode([]int{1, a})] = 500 + 50*a
			}
			if _, err := s.AppendPartitions(Arrival{Counts: counts}); err != nil {
				t.Errorf("append: %v", err)
				return
			}
		}
	}()
	// Snapshot captures racing everything (the appendMu barrier).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if err := s.SaveState(io.Discard); err != nil {
				t.Errorf("snapshot: %v", err)
				return
			}
		}
	}()
	// Forced evictions: fills of a predicate no worker asks squeeze the
	// workers' entries out of the bounded backend.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 400; i++ {
			_ = be.Set(filler.WithWindow(i%26, i%26+i%10).KeyWithWindow(), cache.Entry{Value: float64(i)})
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}

	// Books hold under any interleaving.
	for i := 0; i < s.block.Partitions(); i++ {
		if spent := s.block.SpentVector()[i]; spent > cfg.EpsilonGlobal+1e-9 {
			t.Fatalf("partition %d spent %g > ε_G %g", i, spent, cfg.EpsilonGlobal)
		}
	}

	// No lost accountant charge: a post-storm snapshot restores with
	// charge-for-charge equality into a fresh session.
	var snap bytes.Buffer
	if err := s.SaveState(&snap); err != nil {
		t.Fatal(err)
	}
	_, ds2 := buildDS(t, 8)
	cfg2 := cfg
	cfg2.Backend = store.NewMem(capped)
	s2, err := NewSession(cfg2, ds2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.LoadState(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	v1, v2 := s.block.SpentVector(), s2.block.SpentVector()
	if len(v1) != len(v2) {
		t.Fatalf("restored %d partitions, want %d", len(v2), len(v1))
	}
	for i := range v1 {
		if math.Abs(v1[i]-v2[i]) > 1e-12 {
			t.Fatalf("partition %d: restored spend %g != live %g (lost charge)", i, v2[i], v1[i])
		}
	}

	// No write reaches a served partition: a load into a window the
	// heavily-churned cache holds is refused, and its release repeats
	// free.
	probe := preds[0].WithWindow(0, 0)
	before, err := s.Answer(probe)
	if err != nil {
		t.Fatal(err)
	}
	if err := addCount(s.Dataset(), 0, 0, 25); err == nil {
		t.Fatal("load into a served partition accepted")
	}
	spent := s.AverageSpent()
	after, err := s.Answer(probe)
	if err != nil {
		t.Fatal(err)
	}
	if after.Source != SourceExactHit || after.Value != before.Value || s.AverageSpent() != spent {
		t.Fatalf("repeat after the refused load = %+v, want the exact hit of %g at no charge", after, before.Value)
	}
}

// refusingStore refuses every fill, as a store out of arena slots does.
type refusingStore struct{ store.Backend }

func (refusingStore) Set(string, store.FastEncoder) error { return store.ErrArenaFull }

// TestRefusedFillServesPaidAnswer: a fill the store refuses is an
// eviction of the new entry, through Answer and AnswerBatch alike. The
// books are charged once and the paid answer goes out; the release is
// not cached, so a repeat re-executes and pays again.
func TestRefusedFillServesPaidAnswer(t *testing.T) {
	for _, path := range []string{"Answer", "AnswerBatch"} {
		t.Run(path, func(t *testing.T) {
			_, ds := buildDS(t, 8)
			cfg := defaultCfg(Partitioned)
			cfg.Backend = refusingStore{store.NewMem(store.MemConfig{})}
			s, err := NewSession(cfg, ds)
			if err != nil {
				t.Fatal(err)
			}
			q := query.MustNew(ds.Domain(), map[int][]int{0: {1}}).WithWindow(0, 3)
			ask := func() Answer {
				t.Helper()
				if path == "Answer" {
					a, err := s.Answer(q)
					if err != nil {
						t.Fatalf("a refused fill failed the paid answer: %v", err)
					}
					return a
				}
				r := s.AnswerBatch([]*query.Query{q})[0]
				if r.Err != nil {
					t.Fatalf("a refused fill failed the paid answer: %v", r.Err)
				}
				return r.Answer
			}
			first := ask()
			if first.Paid <= 0 || first.Source == SourceExactHit {
				t.Fatalf("first answer %s paid %g, want a paid execution", first.Source, first.Paid)
			}
			if spent := sumSpent(s); math.Abs(spent-first.Paid) > 1e-9 {
				t.Fatalf("the books hold %g for one answer that paid %g", spent, first.Paid)
			}
			again := ask()
			if again.Source == SourceExactHit || again.Paid <= 0 {
				t.Fatalf("repeat %s paid %g, want a paid re-execution", again.Source, again.Paid)
			}
			if spent := sumSpent(s); math.Abs(spent-first.Paid-again.Paid) > 1e-9 {
				t.Fatalf("the books hold %g for two answers that paid %g and %g", spent, first.Paid, again.Paid)
			}
		})
	}
}
