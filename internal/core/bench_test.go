package core

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/domain"
	"repro/internal/query"
)

func benchSession(b *testing.B, mode Mode, partitions int) (*Session, *domain.Domain) {
	b.Helper()
	dom := domain.MustNew(
		domain.Attribute{Name: "p", Card: 2},
		domain.Attribute{Name: "a", Card: 4},
	)
	ds := dataset.New(dom, partitions)
	for w := 0; w < partitions; w++ {
		for a := 0; a < 4; a++ {
			_ = addCount(ds, w, dom.Encode([]int{1, a}), 1000+100*a)
			_ = addCount(ds, w, dom.Encode([]int{0, a}), 4000-150*a)
		}
	}
	cfg := defaultCfg(mode)
	cfg.EpsilonGlobal = 1e9 // never exhaust during the benchmark
	s, err := NewSession(cfg, ds)
	if err != nil {
		b.Fatal(err)
	}
	return s, dom
}

// BenchmarkAnswerExactHit measures the cheapest path: a cached repeat.
func BenchmarkAnswerExactHit(b *testing.B) {
	s, dom := benchSession(b, NonPartitioned, 1)
	q := query.MustNew(dom, map[int][]int{0: {1}})
	if _, err := s.Answer(q); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.Answer(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnswerExactHitParallel runs cached repeats from every P over a
// small hot set, so the hit path's shared state (source counters, the
// store's lock) contends across cores. Read it at -cpu 1,2.
func BenchmarkAnswerExactHitParallel(b *testing.B) {
	s, dom := benchSession(b, NonPartitioned, 1)
	var hot []*query.Query
	for a := 0; a < 4; a++ {
		for p := 0; p < 2; p++ {
			q := query.MustNew(dom, map[int][]int{0: {p}, 1: {a}})
			if _, err := s.Answer(q); err != nil { // the fill
				b.Fatal(err)
			}
			hot = append(hot, q)
		}
	}
	b.ResetTimer()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for i := 0; pb.Next(); i++ {
			if _, err := s.Answer(hot[i%len(hot)]); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkAnswerTrained measures steady-state histogram answers through
// the full session pipeline with distinct queries (no exact hits).
func BenchmarkAnswerTrained(b *testing.B) {
	s, dom := benchSession(b, NonPartitioned, 1)
	var qs []*query.Query
	for p := 0; p < 2; p++ {
		for a := 0; a < 4; a++ {
			qs = append(qs, query.MustNew(dom, map[int][]int{0: {p}, 1: {a}}))
			qs = append(qs, query.MustNew(dom, map[int][]int{0: {p}, 1: {a, (a + 1) % 4}}))
			qs = append(qs, query.MustNew(dom, map[int][]int{0: {p}, 1: {a, (a + 2) % 4}}))
		}
	}
	// Train.
	for round := 0; round < 5; round++ {
		for _, q := range qs {
			if _, err := s.Answer(q); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Answer(qs[i%len(qs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnswerTree measures the partitioned pipeline on range queries.
func BenchmarkAnswerTree(b *testing.B) {
	s, dom := benchSession(b, Partitioned, 16)
	q := query.MustNew(dom, map[int][]int{0: {1}})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := q.WithWindow(i%8, 8+i%8)
		if _, err := s.Answer(w); err != nil {
			b.Fatal(err)
		}
	}
}
