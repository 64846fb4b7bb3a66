// Experiment registry shared by cmd/turbo-bench and tests.

package bench

import (
	"fmt"
	"sort"
)

// Experiment is a named, runnable reproduction of one paper table/figure.
type Experiment struct {
	Name string
	// Paper identifies the table/figure being reproduced.
	Paper string
	Run   func(Scale) (Result, error)
}

// Experiments lists every reproducible table and figure.
var Experiments = []Experiment{
	{"fig3", "Fig. 3 (demo: PMW vs Laplace vs Exact-Cache vs PMW-Bypass)", Fig3},
	{"fig8a", "Fig. 8(a) non-partitioned Covid kzipf=0", fig8(covid(102), "fig8a-covid-k0", 0)},
	{"fig8b", "Fig. 8(b) non-partitioned Covid kzipf=1", fig8(covid(103), "fig8b-covid-k1", 1)},
	{"fig8c", "Fig. 8(c) non-partitioned CitiBike kzipf=0", fig8(citibike(104), "fig8c-citibike-k0", 0)},
	{"fig8d", "Fig. 8(d) empirical convergence vs learning rate", Fig8d},
	{"fig9a", "Fig. 9(a) heuristic C0 sweep", Fig9a},
	{"fig9b", "Fig. 9(b) learning-rate sweep", Fig9b},
	{"q4", "§6.2 Q4 heuristic ablation (kzipf=1)", q4(1)},
	{"q4skew", "§6.2 Q4 heuristic ablation (kzipf=1.5)", q4(1.5)},
	{"fig10a", "Fig. 10(a) partitioned static Covid kzipf=0", fig10(covid(108), "fig10a-covid-k0", 0)},
	{"fig10b", "Fig. 10(b) partitioned static Covid kzipf=1", fig10(covid(109), "fig10b-covid-k1", 1)},
	{"fig10c", "Fig. 10(c) partitioned static CitiBike kzipf=0", fig10(citibike(110), "fig10c-citibike-k0", 0)},
	{"q6", "§6.3 Q6 tree vs flat structure", Q6TreeVsFlat},
	{"fig11a", "Fig. 11(a) streaming Covid kzipf=0", fig11(covid(112), "fig11a-covid-k0", 0)},
	{"fig11b", "Fig. 11(b) streaming Covid kzipf=1", fig11(covid(113), "fig11b-covid-k1", 1)},
	{"fig11c", "Fig. 11(c) streaming CitiBike kzipf=0", fig11(citibike(114), "fig11c-citibike-k0", 0)},
	{"fig11d", "Fig. 11(d) runtime per execution path", Fig11d},
	{"mem", "§6.5 memory footprint", Memory},
	{"appc", "Appendix C Laplace Histogram crossover", AppendixC},
	{"tau", "ablation: external-update margin τ (§4.3)", TauSweep},
	{"warmstart", "ablation: warm-start prior quality (Thm A.9)", WarmStartPriors},
	{"rdp", "ablation: RDP vs pure-DP composition (§A.6)", RDPvsPure},
	{"rdp-capacity", "App. B: pure-ε vs Rényi admission capacity (partitioned CitiBike)", RDPCapacity},
	{"drain", "ablation: adversarial budget drain and §A.5 cutoff", AdversarialDrain},
	{"evict", "storage: capped (segmented LRU) vs uncapped store, final avg budget and re-executions at caps of 1/4, 1/2 and 1x the working set", Evict},
	{"misspath", "perf: hit / exact-miss / tree-miss throughput and allocs/op", MissPath},
	{"batch", "batch plane: AnswerBatch at sizes 1/4/16/64 on a zipf-shared workload — answers/sec, admission lock acquisitions/query, allocs/query", Batch},
}

// Lookup finds an experiment by name.
func Lookup(name string) (Experiment, error) {
	for _, e := range Experiments {
		if e.Name == name {
			return e, nil
		}
	}
	names := make([]string, 0, len(Experiments))
	for _, e := range Experiments {
		names = append(names, e.Name)
	}
	sort.Strings(names)
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q (have %v)", name, names)
}
