package sqlparser

import (
	"testing"

	"repro/internal/query"
	"repro/internal/workload"
)

// BenchmarkParse parses windowed statements drawn from both query pools,
// the text the benchmark's workloads send.
func BenchmarkParse(b *testing.B) {
	covid, citibike := workload.CovidDomain(), workload.CitiBikeDomain()
	for _, bc := range []struct {
		table string
		p     *Parser
		pool  []*query.Query
	}{
		{"covid", New(covid), workload.CovidPool(covid)},
		{"citibike", New(citibike), workload.CitiBikePool(citibike)},
	} {
		var srcs []string
		for i := 0; i < 1024; i++ {
			q := bc.pool[i*len(bc.pool)/1024].WithWindow(i%8, i%8+i%5)
			srcs = append(srcs, renderSQL(q, bc.table, false))
		}
		b.Run(bc.table, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bc.p.Parse(srcs[i%len(srcs)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
