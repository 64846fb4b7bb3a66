package sqlparser

import (
	"testing"

	"repro/internal/query"
	"repro/internal/workload"
)

// poolStatements are windowed statements drawn from both query pools,
// 1,024 per pool, rendered as the benchmark's workloads send them, each
// with the parser for its domain.
type poolStatements struct {
	table string
	p     *Parser
	srcs  []string
}

func windowedStatements() []poolStatements {
	covid, citibike := workload.CovidDomain(), workload.CitiBikeDomain()
	var out []poolStatements
	for _, pl := range []struct {
		table string
		p     *Parser
		pool  []*query.Query
	}{
		{"covid", New(covid), workload.CovidPool(covid)},
		{"citibike", New(citibike), workload.CitiBikePool(citibike)},
	} {
		ps := poolStatements{table: pl.table, p: pl.p}
		for i := 0; i < 1024; i++ {
			q := pl.pool[i*len(pl.pool)/1024].WithWindow(i%8, i%8+i%5)
			ps.srcs = append(ps.srcs, renderSQL(q, pl.table, false))
		}
		out = append(out, ps)
	}
	return out
}

// BenchmarkParse parses the pools' windowed statements: Parse, which
// builds each query, and ParseInto, the serving path's walk into a
// Builder that an exact hit stops after.
func BenchmarkParse(b *testing.B) {
	for _, ps := range windowedStatements() {
		b.Run(ps.table, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ps.p.Parse(ps.srcs[i%len(ps.srcs)]); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(ps.table+"/ParseInto", func(b *testing.B) {
			b.ReportAllocs()
			var qb query.Builder
			for i := 0; i < b.N; i++ {
				if _, err := ps.p.ParseInto(ps.srcs[i%len(ps.srcs)], &qb); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
