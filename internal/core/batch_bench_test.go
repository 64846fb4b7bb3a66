package core

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/tree"
	"repro/internal/workload"
)

// coldBatches is the benchmark's hit_zipf set-up below the HTTP handler:
// turbo-server's default dataset (covid, 16 weeks) and 125 batches of 16
// never-repeated (predicate, window) pairs over it, so a fresh session
// plans, misses, admits, executes on the tree and fills the cache once per
// statement. The same pairs as server.BenchmarkHandleQueryBatchCold.
func coldBatches(tb testing.TB) (*dataset.Dataset, [][]*query.Query) {
	tb.Helper()
	const weeks, batches, batchSize = 16, 125, 16
	ds, err := workload.BuildCovid(workload.CovidConfig{Rows: 2_000_000, Weeks: weeks, Seed: 42})
	if err != nil {
		tb.Fatal(err)
	}
	pool := workload.CovidPool(ds.Domain())
	out := make([][]*query.Query, batches)
	for i := range out {
		for j := 0; j < batchSize; j++ {
			n := i*batchSize + j
			start := n % weeks
			out[i] = append(out[i], pool[n*len(pool)/(batches*batchSize)].WithWindow(start, start+n%(weeks-start)))
		}
	}
	return ds, out
}

// coldSession is a fresh session shaped like turbo-server's default
// (partitioned binary tree) with a fixed shard count, so allocation counts
// do not depend on the box.
func coldSession(tb testing.TB, ds *dataset.Dataset) *Session {
	tb.Helper()
	s, err := NewSession(Config{
		Mode: Partitioned, Alpha: 0.05, Beta: 0.001, EpsilonGlobal: 10,
		Structure: tree.Binary, Seed: 42,
		Shards: 2, Backend: store.NewMem(store.MemConfig{}),
	}, ds)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// runCold answers every batch on s and returns the statements answered.
func runCold(tb testing.TB, s *Session, batches [][]*query.Query) int {
	stmts := 0
	for _, qs := range batches {
		for _, r := range s.AnswerBatch(qs) {
			if r.Err != nil {
				tb.Fatal(r.Err)
			}
			if r.Answer.Source == SourceExactHit {
				tb.Fatalf("statement %d was an exact hit: the batches must stay cold", stmts)
			}
			stmts++
		}
	}
	return stmts
}

// TestColdBatchStoreWrites pins the store traffic of a cold statement: one
// write, its exact-cache fill. The tree's node releases are never stored.
func TestColdBatchStoreWrites(t *testing.T) {
	ds, batches := coldBatches(t)
	s := coldSession(t, ds)
	before := s.StoreStats().Sets
	stmts := runCold(t, s, batches)
	if sets := s.StoreStats().Sets - before; sets != int64(stmts) {
		t.Fatalf("%d store writes for %d cold statements, want one each", sets, stmts)
	}
}

// BenchmarkColdBatch times the cold fill path end to end below the
// handler: a fresh session per iteration, 2,000 distinct statements
// through AnswerBatch, reported per statement.
func BenchmarkColdBatch(b *testing.B) {
	ds, batches := coldBatches(b)
	var ms0, ms1 runtime.MemStats
	var mallocs uint64
	stmts := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := coldSession(b, ds)
		runtime.ReadMemStats(&ms0)
		b.StartTimer()
		stmts += runCold(b, s, batches)
		b.StopTimer()
		runtime.ReadMemStats(&ms1)
		mallocs += ms1.Mallocs - ms0.Mallocs
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(stmts), "ns/stmt")
	b.ReportMetric(float64(mallocs)/float64(stmts), "allocs/stmt")
}

// BenchmarkAnswerBatch measures the steady-state (exact-hit) cost per
// answer of the batch plane at several batch sizes against the plain
// Answer path, on a zipf-like stream of shared query pointers.
func BenchmarkAnswerBatch(b *testing.B) {
	dom, ds := buildDS(b, 8)
	cfg := defaultCfg(Partitioned)
	cfg.EpsilonGlobal = 1000
	s, err := NewSession(cfg, ds)
	if err != nil {
		b.Fatal(err)
	}
	// 32 distinct windowed queries, repeated in a skewed stream.
	var pool []*query.Query
	for i := 0; i < 32; i++ {
		q := query.MustNew(dom, map[int][]int{1: {i % 4}, 0: {i / 4 % 2}})
		pool = append(pool, q.WithWindow(i%8, (i%8)+(i/8)%(8-i%8)))
	}
	stream := make([]*query.Query, 1024)
	for i := range stream {
		stream[i] = pool[(i*i)%7%len(pool)]
		if i%3 == 0 {
			stream[i] = pool[i%len(pool)]
		}
	}
	for _, q := range stream {
		if _, err := s.Answer(q); err != nil {
			b.Fatal(err)
		}
	}

	b.Run("answer", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := s.Answer(stream[i%len(stream)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, size := range []int{1, 16, 64} {
		b.Run(fmt.Sprintf("batch-%d", size), func(b *testing.B) {
			b.ReportAllocs()
			j := 0
			for i := 0; i < b.N; i++ {
				res := s.AnswerBatch(stream[j : j+size])
				j = (j + size) % len(stream)
				for _, r := range res {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
			}
		})
	}
}
