package histogram

import (
	"fmt"
	"testing"

	"repro/internal/domain"
	"repro/internal/query"
)

// benchDomain builds a two-attribute domain of roughly the given size.
func benchDomain(size int) *domain.Domain {
	a := 1
	for a*a < size {
		a++
	}
	return domain.MustNew(
		domain.Attribute{Name: "x", Card: a},
		domain.Attribute{Name: "y", Card: (size + a - 1) / a},
	)
}

func BenchmarkUpdate(b *testing.B) {
	for _, size := range []int{128, 1200, 65536} {
		d := benchDomain(size)
		q := query.MustNew(d, map[int][]int{0: {0, 1}})
		h := NewUniform(d.Size())
		b.Run(fmt.Sprintf("N=%d", d.Size()), func(b *testing.B) {
			step := 0.1
			for i := 0; i < b.N; i++ {
				h.Update(q, step)
				step = -step // keep weights bounded
			}
		})
	}
}

func BenchmarkEval(b *testing.B) {
	for _, size := range []int{128, 1200, 65536} {
		d := benchDomain(size)
		q := query.MustNew(d, map[int][]int{0: {0, 1, 2}})
		h := NewUniform(d.Size())
		b.Run(fmt.Sprintf("N=%d", d.Size()), func(b *testing.B) {
			var sink float64
			for i := 0; i < b.N; i++ {
				sink += h.Eval(q)
			}
			_ = sink
		})
	}
}

func BenchmarkClone(b *testing.B) {
	h := NewUniform(1200)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = h.Clone()
	}
}
