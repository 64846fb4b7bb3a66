package dataset

import (
	"math"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/domain"
)

// TestReadsRaceCopyOnWriteLoads races readers over random windows against
// a writer that appends a loaded partition, bulk-loads more into it and
// adds rows to partition 0, round after round: the appends write past the
// old view's lengths into backing arrays readers share, and the loads
// rebuild rows readers may hold. The writer's history is fixed up front,
// so the model after every step is known: a read must equal the walk over
// one of the models its call could have observed, between the steps done
// before it began and the steps begun once it returned.
func TestReadsRaceCopyOnWriteLoads(t *testing.T) {
	dom := domain.MustNew(
		domain.Attribute{Name: "a", Card: 4},
		domain.Attribute{Name: "b", Card: 8},
	)
	const rounds = 24
	rng := rand.New(rand.NewPCG(21, 12))
	ds := New(dom, 1)
	if err := ds.BulkLoad(0, randomCounts(dom.Size(), rng)); err != nil {
		t.Fatal(err)
	}

	// steps[k] mutates ds; models[k] is the content after the first k.
	type step func() error
	var steps []step
	models := [][]PartitionState{partsOf(ds)}
	advance := func(s step, edit func([]PartitionState) []PartitionState) {
		prev := models[len(models)-1]
		next := make([]PartitionState, len(prev))
		for i, p := range prev {
			next[i] = PartitionState{Counts: append([]float64(nil), p.Counts...), N: p.N}
		}
		steps = append(steps, s)
		models = append(models, edit(next))
	}
	load := func(m []PartitionState, p int, counts []int) []PartitionState {
		for b, v := range counts {
			m[p].Counts[b] += float64(v)
			m[p].N += v
		}
		return m
	}
	for r := 0; r < rounds; r++ {
		p := r + 1
		arrival, more := randomCounts(dom.Size(), rng), randomCounts(dom.Size(), rng)
		bin, c := rng.IntN(dom.Size()), 1+rng.IntN(4)
		advance(func() error { _, err := ds.Append(nil, arrival); return err },
			func(m []PartitionState) []PartitionState {
				m = append(m, PartitionState{Counts: make([]float64, dom.Size())})
				return load(m, p, arrival)
			})
		advance(func() error { return ds.BulkLoad(p, more) },
			func(m []PartitionState) []PartitionState { return load(m, p, more) })
		advance(func() error { return addCount(ds, 0, bin, c) },
			func(m []PartitionState) []PartitionState {
				m[0].Counts[bin] += float64(c)
				m[0].N += c
				return m
			})
	}

	var begun, done atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, s := range steps {
			begun.Add(1)
			if err := s(); err != nil {
				t.Error(err)
				return
			}
			done.Add(1)
		}
	}()
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, 5))
			for reads := 0; reads < 200 || done.Load() < int64(len(steps)); reads++ {
				q := randomQuery(dom, rng)
				lo := done.Load()
				parts := ds.Partitions()
				start := rng.IntN(parts)
				end := start + rng.IntN(parts-start)
				got, gotN, err := ds.TrueFractionN(q, start, end)
				if err != nil {
					t.Error(err)
					return
				}
				hi := begun.Load()
				matched := false
				for k := lo; k <= hi && !matched; k++ {
					want, wantN, err := walk(q, models[k], start, end)
					matched = err == nil && wantN == gotN && math.Float64bits(want) == math.Float64bits(got)
				}
				if !matched {
					t.Errorf("[%d,%d] read (%.17g, %d rows), which no model between steps %d and %d gives",
						start, end, got, gotN, lo, hi)
					return
				}
			}
		}(uint64(g))
	}
	wg.Wait()
}
