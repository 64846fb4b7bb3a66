package core

import (
	"errors"
	"math"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/accountant"
	"repro/internal/query"
)

// TestFlightGroupExecutesOnce pins the flight-group semantics down
// deterministically: with a leader parked inside fn, every concurrent
// duplicate waits and shares the single result, and the key is released
// once the flight lands.
func TestFlightGroupExecutesOnce(t *testing.T) {
	var g flightGroup
	entered := make(chan struct{})
	release := make(chan struct{})
	runs := 0

	var wg sync.WaitGroup
	results := make([]Answer, 9)
	shareds := make([]bool, 9)
	wg.Add(1)
	go func() {
		defer wg.Done()
		ans, shared, err := g.do(flightID("k"), func() (Answer, error) {
			runs++
			close(entered)
			<-release
			return Answer{Value: 0.25, Paid: 3}, nil
		})
		if err != nil {
			t.Errorf("leader: %v", err)
		}
		results[0], shareds[0] = ans, shared
	}()
	<-entered // the leader is now parked mid-flight
	for i := 1; i < 9; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ans, shared, err := g.do(flightID("k"), func() (Answer, error) {
				runs++ // would be a data race AND a logic bug
				return Answer{Value: -1}, nil
			})
			if err != nil {
				t.Errorf("follower %d: %v", i, err)
			}
			results[i], shareds[i] = ans, shared
		}(i)
	}
	// Wait until every follower has attached to the in-flight call — only
	// then is releasing the leader a real dedup scenario.
	deadline := time.Now().Add(5 * time.Second)
	for g.joinCount() < 8 {
		if time.Now().After(deadline) {
			t.Fatalf("followers never attached: %d joins", g.joinCount())
		}
		runtime.Gosched()
	}
	if n := g.inFlight(); n != 1 {
		t.Fatalf("inFlight = %d, want 1", n)
	}
	if _, shared, _ := g.do(flightID("other"), func() (Answer, error) { return Answer{Value: 9}, nil }); shared {
		t.Fatal("unrelated key shared a flight")
	}
	close(release)
	wg.Wait()

	if runs != 1 {
		t.Fatalf("fn ran %d times, want 1", runs)
	}
	for i, ans := range results {
		if ans.Value != 0.25 || ans.Paid != 3 {
			t.Fatalf("caller %d observed %+v", i, ans)
		}
		if (i == 0) == shareds[i] {
			t.Fatalf("caller %d shared=%v", i, shareds[i])
		}
	}
	if g.inFlight() != 0 {
		t.Fatalf("flight not released: %d", g.inFlight())
	}
}

// TestFlightGroupLeaderPanic checks a panicking leader neither wedges the
// key nor hands joiners a silent zero answer: the panic propagates, the
// key is released for future queries, and attached joiners get an error.
func TestFlightGroupLeaderPanic(t *testing.T) {
	var g flightGroup
	entered := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() {
			if recover() == nil {
				t.Error("leader panic did not propagate")
			}
		}()
		_, _, _ = g.do(flightID("k"), func() (Answer, error) {
			close(entered)
			<-release
			panic("executor invariant")
		})
	}()
	<-entered
	wg.Add(1)
	var joinErr error
	go func() {
		defer wg.Done()
		_, _, joinErr = g.do(flightID("k"), func() (Answer, error) { return Answer{Value: -1}, nil })
	}()
	deadline := time.Now().Add(5 * time.Second)
	for g.joinCount() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("joiner never attached")
		}
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if joinErr == nil {
		t.Fatal("joiner of a panicked flight got a nil error")
	}
	if g.inFlight() != 0 {
		t.Fatalf("panicked flight wedged the key: %d in flight", g.inFlight())
	}
	// The key works again.
	ans, shared, err := g.do(flightID("k"), func() (Answer, error) { return Answer{Value: 2}, nil })
	if err != nil || shared || ans.Value != 2 {
		t.Fatalf("post-panic flight broken: %+v shared=%v err=%v", ans, shared, err)
	}
}

// TestSingleFlightPaysOnce is the satellite property test: N concurrent
// identical tree queries spend the budget of exactly one execution — the
// spend a serial single query on an identically-seeded session produces —
// and every caller observes the same noisy answer over the same window.
// The property must hold for every interleaving: duplicates that arrive
// during the flight share it (Deduped), stragglers hit the exact cache,
// and exactly one execution pays.
func TestSingleFlightPaysOnce(t *testing.T) {
	const n = 16
	mkSession := func(t *testing.T) (*Session, *query.Query) {
		ds := concurrentDS(t, 8)
		sess, err := NewSession(Config{
			Mode:  Partitioned,
			Alpha: 0.1, Beta: 0.01, EpsilonGlobal: 20,
			Seed: 21,
		}, ds)
		if err != nil {
			t.Fatal(err)
		}
		return sess, query.MustNew(ds.Domain(), map[int][]int{0: {1}}).WithWindow(0, 7)
	}

	// Reference: the same session shape answers the same query once.
	ref, refQ := mkSession(t)
	refAns, err := ref.Answer(refQ)
	if err != nil {
		t.Fatal(err)
	}
	refSpent := ref.Accountant().SpentVector()

	for round := 0; round < 5; round++ {
		sess, q := mkSession(t)
		var (
			wg    sync.WaitGroup
			start = make(chan struct{})
			mu    sync.Mutex
			vals  []float64
			errs  []error
		)
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				a, err := sess.Answer(q)
				mu.Lock()
				vals = append(vals, a.Value)
				errs = append(errs, err)
				mu.Unlock()
			}()
		}
		close(start)
		wg.Wait()

		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		// Same noisy answer for everyone, equal to the serial reference
		// (one execution consumed exactly the reference's randomness).
		for i, v := range vals {
			if v != vals[0] {
				t.Fatalf("round %d: caller %d observed %g, others %g", round, i, v, vals[0])
			}
		}
		if math.Abs(vals[0]-refAns.Value) > 1e-12 {
			t.Fatalf("round %d: concurrent value %g != serial reference %g", round, vals[0], refAns.Value)
		}
		// Budget: exactly one execution's spend, per partition.
		got := sess.Accountant().SpentVector()
		for p := range got {
			if math.Abs(got[p]-refSpent[p]) > 1e-12 {
				t.Fatalf("round %d: partition %d spent %g, one execution spends %g",
					round, p, got[p], refSpent[p])
			}
		}
		// Bookkeeping: exactly one tree execution; the other n-1 either
		// shared a flight (Deduped) or hit the exact cache behind it. A
		// flight whose leader lands on the double-check labels its sharers
		// exact-hit, so Deduped only lower-bounds the tree-labeled sharers.
		if tq := sess.Tree().Stats().Queries; tq != 1 {
			t.Fatalf("round %d: tree ran %d times, want 1", round, tq)
		}
		counts := sess.SourceCounts()
		if counts[SourceTree]+counts[SourceExactHit] != n {
			t.Fatalf("round %d: sources %v don't cover %d callers", round, counts, n)
		}
		if counts[SourceTree] < 1 || sess.Deduped() < counts[SourceTree]-1 {
			t.Fatalf("round %d: tree answers %d vs %d deduped", round, counts[SourceTree], sess.Deduped())
		}
	}
}

// TestAppendOrderingRegression is the satellite regression test for the
// AppendPartition/Answer race: in pure-ε mode a non-partitioned session's
// accountant window cannot grow, so growing the dataset used to let
// queries name partitions no accountant covers — the append must now be
// refused outright (Gaussian non-partitioned symmetric). Partitioned
// epochs stay accountants-first: concurrent batched appends never let any
// accountant lag the dataset, and every epoch's indices are dense.
func TestAppendOrderingRegression(t *testing.T) {
	for _, gaussian := range []bool{false, true} {
		cfg := Config{Mode: NonPartitioned, Alpha: 0.1, Beta: 0.01, EpsilonGlobal: 10, Seed: 4}
		if gaussian {
			cfg.Gaussian = true
			cfg.DeltaGlobal = 1e-6
		}
		sess, err := NewSession(cfg, concurrentDS(t, 1))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.AppendPartitions(Arrival{}); err == nil {
			t.Fatalf("gaussian=%v: non-partitioned append accepted", gaussian)
		}
		if sess.Dataset().Partitions() != 1 || sess.Accountant().Partitions() != 1 {
			t.Fatalf("gaussian=%v: refused append still grew state", gaussian)
		}
	}

	ds := concurrentDS(t, 2)
	sess, err := NewSession(Config{
		Mode:  Streaming,
		Alpha: 0.1, Beta: 0.01, EpsilonGlobal: 20,
		Seed: 4,
	}, ds)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.AppendPartitions(); err == nil {
		t.Fatal("empty epoch accepted")
	}

	var wg, obsWg sync.WaitGroup
	var mu sync.Mutex
	var firsts []int
	stop := make(chan struct{})
	// Observer: the accountant must never lag the dataset at any instant.
	obsWg.Add(1)
	go func() {
		defer obsWg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Dataset first: read the other way round, a whole append can
			// land between the two reads and look like a lag.
			if parts := sess.Dataset().Partitions(); sess.Accountant().Partitions() < parts {
				t.Error("scalar accountant lags the dataset mid-epoch")
				return
			}
			runtime.Gosched()
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for b := 0; b < 10; b++ {
				k := 1 + (g+b)%3
				first, err := sess.AppendPartitions(make([]Arrival, k)...)
				if err != nil {
					t.Errorf("appender %d: %v", g, err)
					return
				}
				mu.Lock()
				for i := 0; i < k; i++ {
					firsts = append(firsts, first+i)
				}
				mu.Unlock()
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			q := query.MustNew(ds.Domain(), map[int][]int{0: {1}})
			for i := 0; i < 30; i++ {
				parts := ds.Partitions()
				if _, err := sess.Answer(q.WithWindow((g+i)%parts, parts-1)); err != nil &&
					!errors.Is(err, accountant.ErrBudgetExhausted) {
					t.Errorf("querier %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	obsWg.Wait()

	sort.Ints(firsts)
	for i, idx := range firsts {
		if idx != 2+i {
			t.Fatalf("epoch indices not dense at %d: got %d", i, idx)
		}
	}
	if sess.Accountant().Partitions() != sess.Dataset().Partitions() {
		t.Fatalf("books end unequal: %d vs %d", sess.Accountant().Partitions(), sess.Dataset().Partitions())
	}
}

// TestFlightRecordsRecycleSafely races joiners against the recycling of
// flight records: each round G goroutines ask one new cold statement at
// once, each building it, as a connection does, into a query it rebuilds
// every round over a key buffer it reuses, so a record freed while a
// joiner still reads it, or a map key left behind, shows as another
// round's answer or charge. Every round must spend exactly one
// execution's charge, every caller must read the value that execution
// released, and no flight may outlive its round.
func TestFlightRecordsRecycleSafely(t *testing.T) {
	const rounds, callers = 200, 8
	ds := concurrentDS(t, 8)
	sess, err := NewSession(Config{
		Mode:  Partitioned,
		Alpha: 0.1, Beta: 0.01, EpsilonGlobal: 1e6,
		Seed: 5,
	}, ds)
	if err != nil {
		t.Fatal(err)
	}
	dom := ds.Domain()
	type conn struct {
		key []byte
		q   query.Query
	}
	conns := make([]conn, callers)
	var wins [][2]int
	for s := range 8 {
		for e := s; e < 8; e++ {
			wins = append(wins, [2]int{s, e})
		}
	}
	sum := func(v []float64) (s float64) {
		for _, x := range v {
			s += x
		}
		return s
	}
	for r := range rounds {
		// A new statement per round: a predicate over a and b, and a
		// window, that no earlier round asked.
		var b query.Builder
		b.Reset(dom)
		b.Restrict(0, r%4).Restrict(1, (r/4)%4).Window(wins[r/16][0], wins[r/16][1])
		before := sum(sess.Accountant().SpentVector())
		queries := sess.Tree().Stats().Queries
		var (
			wg    sync.WaitGroup
			start = make(chan struct{})
			ans   = make([]Answer, callers)
			errs  = make([]error, callers)
		)
		for g := range callers {
			wg.Add(1)
			go func(c *conn) {
				defer wg.Done()
				bb := b
				if c.key, errs[g] = bb.AppendKey(c.key[:0]); errs[g] != nil {
					return
				}
				key := unsafe.String(unsafe.SliceData(c.key), len(c.key))
				<-start
				a, pl, hit, err := sess.Lookup(key)
				if err == nil && !hit {
					if err = bb.BuildInto(&c.q, key); err == nil {
						pl.Query = &c.q
						a, err = sess.AnswerPlan(pl)
					}
				}
				ans[g], errs[g] = a, err
			}(&conns[g])
		}
		close(start)
		wg.Wait()

		var leader *Answer
		for g := range ans {
			if errs[g] != nil {
				t.Fatalf("round %d caller %d: %v", r, g, errs[g])
			}
			if ans[g].Source == SourceTree {
				leader = &ans[g]
			}
		}
		if leader == nil {
			t.Fatalf("round %d: no caller carries the execution: %+v", r, ans)
		}
		if n := sess.Tree().Stats().Queries - queries; n != 1 {
			t.Fatalf("round %d: %d executions, want 1", r, n)
		}
		if spent := sum(sess.Accountant().SpentVector()) - before; math.Abs(spent-leader.Paid) > 1e-9*(1+leader.Paid) {
			t.Fatalf("round %d: the books moved by %g, one execution charges %g", r, spent, leader.Paid)
		}
		for g, a := range ans {
			if a.Value != leader.Value {
				t.Fatalf("round %d: caller %d read %g (%s), the round's execution released %g",
					r, g, a.Value, a.Source, leader.Value)
			}
		}
		if n := sess.flights.inFlight(); n != 0 {
			t.Fatalf("round %d: %d flights survive the round", r, n)
		}
	}
	t.Logf("%d of %d callers joined a flight", sess.flights.joinCount(), rounds*(callers-1))
}
