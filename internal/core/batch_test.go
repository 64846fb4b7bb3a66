package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/accountant"
	"repro/internal/dataset"
	"repro/internal/heuristic"
	"repro/internal/query"
	"repro/internal/store"
)

// TestAnswerBatchBasics pins the batch plane's per-slot contract on a
// partitioned session: ordered results, intra-batch dedup of identical
// queries, exact-hit fan-out, and per-slot planning errors that leave
// batchmates unharmed.
func TestAnswerBatchBasics(t *testing.T) {
	dom, ds := buildDS(t, 4)
	s, err := NewSession(defaultCfg(Partitioned), ds)
	if err != nil {
		t.Fatal(err)
	}
	qa := query.MustNew(dom, map[int][]int{0: {1}}).WithWindow(0, 1)
	qb := query.MustNew(dom, map[int][]int{1: {2}}).WithWindow(2, 3)
	bad := query.MustNew(dom, map[int][]int{0: {0}}).WithWindow(0, 99)

	res := s.AnswerBatch([]*query.Query{qa, bad, qb, qa, nil, qa})
	if len(res) != 6 {
		t.Fatalf("got %d results for 6 queries", len(res))
	}
	for _, i := range []int{0, 2, 3, 5} {
		if res[i].Err != nil {
			t.Fatalf("slot %d failed: %v", i, res[i].Err)
		}
	}
	if res[1].Err == nil || res[4].Err == nil {
		t.Fatalf("malformed slots answered: %v, %v", res[1].Err, res[4].Err)
	}
	// Intra-batch dedup: the three qa members carry one execution's
	// answer and count two deduplications.
	if res[0].Answer != res[3].Answer || res[0].Answer != res[5].Answer {
		t.Fatalf("duplicate members disagree: %+v / %+v / %+v",
			res[0].Answer, res[3].Answer, res[5].Answer)
	}
	if got := s.Deduped(); got != 2 {
		t.Fatalf("deduped = %d, want 2", got)
	}
	if got := s.Queries(); got != 4 {
		t.Fatalf("queries = %d, want 4 answered members", got)
	}
	if res[0].Answer.Start != 0 || res[0].Answer.End != 1 || res[0].Answer.Rows == 0 {
		t.Fatalf("window metadata missing: %+v", res[0].Answer)
	}

	// A second batch over the same queries is pure exact-hit fan-out:
	// no executions, no dedup, no budget.
	spent := s.AverageSpent()
	res2 := s.AnswerBatch([]*query.Query{qa, qb, qa})
	for i, r := range res2 {
		if r.Err != nil {
			t.Fatalf("replay slot %d failed: %v", i, r.Err)
		}
		if r.Answer.Source != SourceExactHit {
			t.Fatalf("replay slot %d source = %s, want exact-hit", i, r.Answer.Source)
		}
	}
	if res2[0].Answer.Value != res[0].Answer.Value {
		t.Fatal("replayed value diverged from the executed one")
	}
	if s.AverageSpent() != spent {
		t.Fatal("exact-hit replay consumed budget")
	}
	if got := s.Deduped(); got != 2 {
		t.Fatalf("exact hits counted as dedup: %d", got)
	}
}

// TestAnswerBatchPartialRefusal: a refusal stays in its slot. The members
// on an exhausted window are refused by the tree's payment for them
// (ErrBudgetExhausted, a 429 at the socket) while batchmates on healthy
// windows execute normally — within one AnswerBatch call.
func TestAnswerBatchPartialRefusal(t *testing.T) {
	dom, ds := buildDS(t, 4)
	s, err := NewSession(defaultCfg(Partitioned), ds)
	if err != nil {
		t.Fatal(err)
	}
	// Exhaust partition 1's budget directly.
	if err := s.Accountant().PayRange(1, 1, accountant.Laplace(s.Accountant().Global())); err != nil {
		t.Fatal(err)
	}
	exhausted := query.MustNew(dom, map[int][]int{0: {1}}).WithWindow(0, 1)
	healthy := query.MustNew(dom, map[int][]int{0: {1}}).WithWindow(2, 3)
	res := s.AnswerBatch([]*query.Query{exhausted, healthy, exhausted})
	if !errors.Is(res[0].Err, accountant.ErrBudgetExhausted) || !errors.Is(res[2].Err, accountant.ErrBudgetExhausted) {
		t.Fatalf("exhausted-window slots = %v / %v, want ErrBudgetExhausted", res[0].Err, res[2].Err)
	}
	if res[1].Err != nil {
		t.Fatalf("healthy batchmate doomed: %v", res[1].Err)
	}
}

// TestAnswerBatchNonPartitioned covers the single PMW's batch path: a
// non-partitioned session batch-answers through the single PMW, whose
// payments are the budget check there as the tree's are in the other
// modes, and its execution fills the exact cache.
func TestAnswerBatchNonPartitioned(t *testing.T) {
	dom, ds := buildDS(t, 1)
	s, err := NewSession(defaultCfg(NonPartitioned), ds)
	if err != nil {
		t.Fatal(err)
	}
	qa := query.MustNew(dom, map[int][]int{0: {1}})
	qb := query.MustNew(dom, map[int][]int{1: {3}})
	res := s.AnswerBatch([]*query.Query{qa, qb, qa})
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("slot %d failed: %v", i, r.Err)
		}
	}
	if res[0].Answer.Value != res[2].Answer.Value {
		t.Fatal("duplicate members disagree")
	}
	want, _ := s.Answer(qa)
	if want.Source != SourceExactHit {
		t.Fatalf("batch execution did not fill the exact cache: %s", want.Source)
	}
}

// TestAnswerBatchNoDoubleSpendRace is the batch plane's no-double-spend
// property test, run under -race by CI: a batch of N identical queries
// moves the accountant by exactly one execution's Paid and counts N−1
// deduplications; batches then race streaming appends and snapshots;
// and a snapshot restored into a twin session matches the original's
// spend vector charge for charge.
func TestAnswerBatchNoDoubleSpendRace(t *testing.T) {
	dom, ds := buildDS(t, 6)
	cfg := defaultCfg(Streaming)
	s, err := NewSession(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}

	// Deterministic phase: one batch of N duplicates, quiesced session.
	const n = 16
	q := query.MustNew(dom, map[int][]int{0: {1}}).WithWindow(0, 3)
	before := s.Accountant().SpentVector()
	batch := make([]*query.Query, n)
	for i := range batch {
		batch[i] = q
	}
	res := s.AnswerBatch(batch)
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("slot %d failed: %v", i, r.Err)
		}
		if r.Answer != res[0].Answer {
			t.Fatalf("slot %d diverged: %+v vs %+v", i, r.Answer, res[0].Answer)
		}
	}
	paid := res[0].Answer.Paid
	if paid <= 0 {
		t.Fatalf("first execution on a fresh session paid %g, want > 0", paid)
	}
	after := s.Accountant().SpentVector()
	delta := 0.0
	for i := range before {
		delta += after[i] - before[i]
	}
	if delta < paid-1e-9 || delta > paid+1e-9 {
		t.Fatalf("accountant moved %g for a batch of %d duplicates, want exactly one Paid = %g",
			delta, n, paid)
	}
	if got := s.Deduped(); got != n-1 {
		t.Fatalf("deduped = %d, want %d", got, n-1)
	}

	// Race phase: concurrent batches of duplicates interleaved with
	// streaming append epochs and snapshot writers.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				qi := query.MustNew(dom, map[int][]int{1: {(w + i) % 4}}).WithWindow(0, 5)
				b := []*query.Query{qi, qi, qi, qi}
				for _, r := range s.AnswerBatch(b) {
					if r.Err != nil && !errors.Is(r.Err, accountant.ErrBudgetExhausted) {
						panic(fmt.Sprintf("batch worker %d: %v", w, r.Err))
					}
				}
			}
		}(w)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			if _, err := s.AppendPartitions(Arrival{}); err != nil {
				panic(err)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			var buf bytes.Buffer
			if err := s.SaveState(&buf); err != nil {
				panic(err)
			}
		}
	}()
	wg.Wait()

	// Snapshot-equality phase: a quiesced snapshot restored into a twin
	// reproduces the spend vector charge for charge.
	var snap bytes.Buffer
	if err := s.SaveState(&snap); err != nil {
		t.Fatal(err)
	}
	twin, err := NewSession(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	if err := twin.LoadState(&snap); err != nil {
		t.Fatal(err)
	}
	got, want := twin.Accountant().SpentVector(), s.Accountant().SpentVector()
	if len(got) != len(want) {
		t.Fatalf("twin has %d partitions, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("partition %d: twin spent %g, original %g", i, got[i], want[i])
		}
	}
}

// offCaller is a backend that counts the cache fills made off one
// goroutine, the caller's. An exact-cache fill happens inside its group's
// execution, so a fill off the caller is a group executed beside it; each
// fill lingers so that any goroutine started to execute groups gets to
// take one.
type offCaller struct {
	store.Backend
	caller uint64
	fills  atomic.Int64
}

func (b *offCaller) Set(k string, value store.FastEncoder) error {
	if goid() != b.caller {
		b.fills.Add(1)
	}
	time.Sleep(200 * time.Microsecond)
	return b.Backend.Set(k, value)
}

// goid is the calling goroutine's id, read off its stack trace's header
// ("goroutine 7 [running]:").
func goid() uint64 {
	var buf [64]byte
	header := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	id, err := strconv.ParseUint(string(header[:bytes.IndexByte(header, ' ')]), 10, 64)
	if err != nil {
		panic(err)
	}
	return id
}

// TestAnswerBatchExecutesOnCaller: a batch of 64 distinct misses executes
// every group on the calling goroutine, so one at a time, and resolves
// every slot to what the singleton path gives it — a paid tree answer at
// the same price.
func TestAnswerBatchExecutesOnCaller(t *testing.T) {
	cfg := Config{
		Mode:  Partitioned,
		Alpha: 0.1, Beta: 0.01, EpsilonGlobal: 1000,
		Seed: 31,
	}
	mkBatch := func(ds *dataset.Dataset) []*query.Query {
		var qs []*query.Query
		for start := 0; start < 8 && len(qs) < 64; start++ {
			for end := start; end < 8 && len(qs) < 64; end++ {
				for v := 0; v < 4 && len(qs) < 64; v++ {
					qs = append(qs, query.MustNew(ds.Domain(), map[int][]int{0: {v}}).WithWindow(start, end))
				}
			}
		}
		return qs
	}

	refDS := concurrentDS(t, 8)
	ref, err := NewSession(cfg, refDS)
	if err != nil {
		t.Fatal(err)
	}
	var want []Answer
	for _, q := range mkBatch(refDS) {
		a, err := ref.Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, a)
	}

	backend := &offCaller{Backend: store.NewMem(store.MemConfig{}), caller: goid()}
	cfg.Backend = backend
	ds := concurrentDS(t, 8)
	sess, err := NewSession(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	res := sess.AnswerBatch(mkBatch(ds))
	if len(res) != 64 {
		t.Fatalf("%d results for 64 queries", len(res))
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("slot %d: %v", i, r.Err)
		}
		if r.Answer.Source != want[i].Source || math.Abs(r.Answer.Paid-want[i].Paid) > 1e-12 {
			t.Fatalf("slot %d: %s paid %g, the singleton path gives %s paid %g",
				i, r.Answer.Source, r.Answer.Paid, want[i].Source, want[i].Paid)
		}
	}
	if got, want := sess.AverageSpent(), ref.AverageSpent(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("batch spent %g on average, singleton path %g", got, want)
	}
	if runs := sess.Tree().Stats().Queries; runs != 64 {
		t.Fatalf("tree executed %d times for 64 distinct misses", runs)
	}
	if n := backend.fills.Load(); n > 0 {
		t.Fatalf("%d of 64 groups executed off the calling goroutine", n)
	}
}

// setCounter is a backend that counts the fills of every key.
type setCounter struct {
	store.Backend
	mu   sync.Mutex
	sets map[string]int
}

func (b *setCounter) Set(k string, value store.FastEncoder) error {
	b.mu.Lock()
	b.sets[k]++
	b.mu.Unlock()
	return b.Backend.Set(k, value)
}

// TestBatchBuffersStorm races cold, overlapping batches through
// AnswerPlans, each goroutine on its own BatchBuffers, reused round after
// round. Every round asks 8 statements no earlier round asked; each of 4
// goroutines asks all 8, four of them twice, in its own order, and
// probes them by key first, so a statement another goroutine has filled
// is a hit and one it is executing is a flight to join. Each key must be
// executed, paid and filled exactly once, and every answer, hit or joined
// or executed, must be the value its one execution filled. CI runs it
// under -race at GOMAXPROCS 1, 2 and 4.
func TestBatchBuffersStorm(t *testing.T) {
	const rounds, perRound, workers = 200, 8, 4
	counter := &setCounter{Backend: store.NewMem(store.MemConfig{}), sets: map[string]int{}}
	ds := concurrentDS(t, 8)
	s, err := NewSession(Config{Mode: Partitioned, Alpha: 0.1, Beta: 0.01, EpsilonGlobal: 1e6, Seed: 7, Backend: counter}, ds)
	if err != nil {
		t.Fatal(err)
	}
	dom := ds.Domain()
	// Statement n: a predicate over both attributes (15 × 15 sets) in one
	// of the 36 windows over 8 partitions; 200 × 8 of them are distinct.
	statement := func(n int) *query.Query {
		set := func(bits int) []int {
			var vals []int
			for v := range 4 {
				if bits&(1<<v) != 0 {
					vals = append(vals, v)
				}
			}
			return vals
		}
		w := n % 36
		start := 0
		for span := 8; w >= span; span-- {
			w -= span
			start++
		}
		pred := n / 36
		return query.MustNew(dom, map[int][]int{0: set(pred%15 + 1), 1: set(pred/15%15 + 1)}).WithWindow(start, start+w)
	}

	type answer struct {
		key   string
		value float64
	}
	answers := make([][]answer, workers)
	bufs := make([]BatchBuffers, workers)
	for r := range rounds {
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var (
					pls []Plan
					qs  []*query.Query
				)
				for i := range perRound + 4 {
					q := statement(r*perRound + (g+3*i)%perRound) // four of them twice, in a worker's order
					ans, pl, hit, err := s.Lookup(q.KeyWithWindow())
					if err != nil {
						t.Error(err)
						return
					}
					if hit {
						answers[g] = append(answers[g], answer{q.KeyWithWindow(), ans.Value})
						continue
					}
					pl.Query = q
					pls, qs = append(pls, pl), append(qs, q)
				}
				<-start
				for k, res := range s.AnswerPlans(pls, &bufs[g]) {
					if res.Err != nil {
						t.Error(res.Err)
						return
					}
					answers[g] = append(answers[g], answer{qs[k].KeyWithWindow(), res.Answer.Value})
				}
			}()
		}
		close(start)
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
	}

	if len(counter.sets) != rounds*perRound {
		t.Fatalf("%d keys filled, want %d", len(counter.sets), rounds*perRound)
	}
	for k, n := range counter.sets {
		if n != 1 {
			t.Fatalf("key %q filled %d times, want once", k, n)
		}
	}
	if runs := s.Tree().Stats().Queries; runs != rounds*perRound {
		t.Fatalf("the tree executed %d times for %d distinct statements", runs, rounds*perRound)
	}
	for _, as := range answers {
		for _, a := range as {
			e, ok := s.ExactCache().Lookup(a.key)
			if !ok || e.Value != a.value {
				t.Fatalf("key %q answered %v, its fill holds %+v (%v)", a.key, a.value, e, ok)
			}
		}
	}
}

// TestAnswerBatchIsAnswerAlone: a statement is answered the same alone
// and in a batch. Once a window's sparse vector is live and the rest of
// each of its partitions is spent, a fresh statement its trained
// histogram estimates well is still answered for free — through Answer
// and through AnswerBatch alike, from the same source — because the
// payments are the one place the budget is enforced.
func TestAnswerBatchIsAnswerAlone(t *testing.T) {
	for _, mode := range []Mode{NonPartitioned, Partitioned} {
		t.Run(mode.String(), func(t *testing.T) {
			dom, ds := buildDS(t, 4)
			cfg := defaultCfg(mode)
			cfg.Heuristic = func() heuristic.Heuristic { return heuristic.AlwaysReady{} }
			s, err := NewSession(cfg, ds)
			if err != nil {
				t.Fatal(err)
			}
			stmt := func(pred map[int][]int) *query.Query {
				return query.MustNew(dom, pred).WithWindow(0, 3)
			}
			// Train the window's histogram on every other predicate over
			// the domain, each asked once; the last answer leaves the
			// sparse vector live.
			subsets := func(card int) (out [][]int) {
				for bits := 1; bits < 1<<card; bits++ {
					var vals []int
					for v := range card {
						if bits&(1<<v) != 0 {
							vals = append(vals, v)
						}
					}
					out = append(out, vals)
				}
				return out
			}
			aloneQ := stmt(map[int][]int{0: {1}, 1: {0, 1}})
			batchQ := stmt(map[int][]int{0: {1}, 1: {2, 3}})
			for _, ps := range subsets(2) {
				for _, as := range subsets(4) {
					q := stmt(map[int][]int{0: ps, 1: as})
					if q.Key() == aloneQ.Key() || q.Key() == batchQ.Key() {
						continue
					}
					if _, err := s.Answer(q); err != nil {
						t.Fatal(err)
					}
				}
			}
			acct := s.Accountant()
			for p, e := range acct.SpentVector() {
				if err := acct.PayRange(p, p, accountant.Laplace(acct.Global()-e)); err != nil {
					t.Fatal(err)
				}
			}
			alone, err := s.Answer(aloneQ)
			if err != nil {
				t.Fatalf("alone: %v", err)
			}
			batch := s.AnswerBatch([]*query.Query{batchQ})[0]
			if batch.Err != nil {
				t.Fatalf("in a batch: %v (alone: %s, paid %g)", batch.Err, alone.Source, alone.Paid)
			}
			if alone.Paid != 0 || batch.Answer.Paid != 0 || alone.Source != batch.Answer.Source {
				t.Fatalf("alone %s paid %g, in a batch %s paid %g", alone.Source, alone.Paid, batch.Answer.Source, batch.Answer.Paid)
			}
		})
	}
}
