// Package bench is the experiment harness that regenerates every table and
// figure of the Turbo paper's evaluation (§6). Each experiment is a
// function returning a Result — one or more named series of (x, y) points
// matching the rows/curves the paper plots — shared by the root-level Go
// benchmarks (bench_test.go) and the cmd/turbo-bench tool.
//
// Experiments run at a configurable Scale. ScaleSmall keeps `go test
// -bench` wall-clock in seconds while preserving every qualitative shape;
// ScalePaper reproduces the paper's workload sizes (§6.1) for the
// standalone tool.
package bench

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/dataset"
	"repro/internal/noise"
	"repro/internal/query"
	"repro/internal/workload"
)

// Scale sizes an experiment run.
type Scale struct {
	Name string
	// Queries is the workload length for the non-partitioned figures
	// (the paper runs 35K-70K).
	Queries int
	// PartitionedQueries is the workload length for Fig. 10/11 (paper:
	// 300K).
	PartitionedQueries int
	// Weeks is the number of time partitions (paper: 50).
	Weeks int
	// CovidRows / CitiBikeRows size the synthetic datasets.
	CovidRows, CitiBikeRows int
	// Checkpoints is the number of points recorded per budget curve.
	Checkpoints int
	// Workers is the goroutine ladder for the concurrency scaling
	// experiment; nil uses DefaultWorkers.
	Workers []int
	// ArrivalRatios is the queries-per-arrival ladder for the streaming
	// ingestion experiment; nil uses DefaultArrivalRatios.
	ArrivalRatios []int
	// Batch switches the scaling experiment to drive an HTTP server with
	// /query/batch requests of this size (turbo-bench -batch); 0 keeps
	// the in-process singleton drive.
	Batch int
	// TreeMissBaseline maps domain size (bins) to the committed
	// treemiss-qps baseline for -exp=misspath (turbo-bench -baseline
	// loads it from the first record of BENCH_misspath.json). When a
	// ladder point has an entry, the experiment hard-errors unless the
	// measured tree-miss throughput is at least 10x the baseline; nil or
	// missing entries skip the gate.
	TreeMissBaseline map[float64]float64
}

// ScaleSmall is the default for Go benchmarks: same shapes, seconds of
// wall-clock.
var ScaleSmall = Scale{
	Name:    "small",
	Queries: 15000, PartitionedQueries: 6000,
	Weeks:     16,
	CovidRows: 2_000_000, CitiBikeRows: 2_000_000,
	Checkpoints: 40,
}

// ScalePaper matches §6.1 for full runs through cmd/turbo-bench.
var ScalePaper = Scale{
	Name:    "paper",
	Queries: 70000, PartitionedQueries: 300000,
	Weeks:     50,
	CovidRows: 50_426_600, CitiBikeRows: 21_096_261,
	Checkpoints: 60,
}

// Point is one sample of a plotted curve.
type Point struct {
	X float64
	Y float64
}

// Series is one named curve or table column.
type Series struct {
	Name   string
	Points []Point
}

// Last returns the final Y value (the end-of-workload figure the paper's
// improvement factors quote), or 0 for an empty series.
func (s Series) Last() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	return s.Points[len(s.Points)-1].Y
}

// Result is the output of one experiment.
type Result struct {
	Name   string
	XLabel string
	YLabel string
	Series []Series
	Notes  []string
}

// Improvement returns how many times smaller the named system's final
// value is compared to the best (smallest) other series — the paper's
// "A× better than the best baseline" metric.
func (r Result) Improvement(system string) float64 {
	var mine float64
	best := -1.0
	for _, s := range r.Series {
		v := s.Last()
		if s.Name == system {
			mine = v
			continue
		}
		if best < 0 || v < best {
			best = v
		}
	}
	if mine <= 0 || best < 0 {
		return 0
	}
	return best / mine
}

// SeriesByName returns the named series, or an empty one.
func (r Result) SeriesByName(name string) Series {
	for _, s := range r.Series {
		if s.Name == name {
			return s
		}
	}
	return Series{Name: name}
}

// WriteTable renders the result as aligned columns (x then one column per
// series), the same rows the paper's plots are drawn from.
func (r Result) WriteTable(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s\n", r.Name); err != nil {
		return err
	}
	for _, n := range r.Notes {
		if _, err := fmt.Fprintf(w, "# %s\n", n); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "%-12s", r.XLabel)
	for _, s := range r.Series {
		fmt.Fprintf(w, " %22s", s.Name)
	}
	fmt.Fprintln(w)
	// Collect the union of X values across series.
	xsSet := map[float64]bool{}
	for _, s := range r.Series {
		for _, p := range s.Points {
			xsSet[p.X] = true
		}
	}
	xs := make([]float64, 0, len(xsSet))
	for x := range xsSet {
		xs = append(xs, x)
	}
	sort.Float64s(xs)
	for _, x := range xs {
		fmt.Fprintf(w, "%-12g", x)
		for _, s := range r.Series {
			y, ok := lookup(s, x)
			if ok {
				fmt.Fprintf(w, " %22.6g", y)
			} else {
				fmt.Fprintf(w, " %22s", "-")
			}
		}
		fmt.Fprintln(w)
	}
	return nil
}

func lookup(s Series, x float64) (float64, bool) {
	for _, p := range s.Points {
		if p.X == x {
			return p.Y, true
		}
	}
	return 0, false
}

// Env bundles a dataset with its query pool and deterministic randomness.
type Env struct {
	DS   *dataset.Dataset
	Pool []*query.Query
	Rng  *noise.Rng
	// Defaults from §6.1 for this dataset.
	Alpha, Beta, EpsG float64
	Tau               float64
	C0, S0            float64
	// PC0, PS0 are the heuristic settings §6.3 uses in partitioned runs.
	PC0, PS0       float64
	LRStart, LREnd float64
}

// NewCovidEnv builds the Covid microbenchmark environment with the §6.1
// default parameters (α=0.05, β=0.001, ε_G=10; lr 0.25→0.025; heuristic
// C0=100, S0=5; τ=0.05).
func NewCovidEnv(sc Scale, seed uint64) (*Env, error) {
	ds, err := workload.BuildCovid(workload.CovidConfig{
		Rows: sc.CovidRows, Weeks: sc.Weeks, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	rng := noise.NewRng(seed ^ 0xc0ffee)
	pool := workload.Shuffle(workload.CovidPool(ds.Domain()), rng.Fork())
	return &Env{
		DS: ds, Pool: pool, Rng: rng,
		Alpha: 0.05, Beta: 0.001, EpsG: 10,
		Tau: 0.05, C0: 100, S0: 5, PC0: 50, PS0: 1,
		LRStart: 0.25, LREnd: 0.025,
	}, nil
}

// NewCitiBikeEnv builds the CitiBike macrobenchmark environment with its
// §6.1 defaults (lr=0.5; heuristic C0=5, S0=1; τ=0.01). The reduced domain
// keeps default runs fast (see EXPERIMENTS.md).
func NewCitiBikeEnv(sc Scale, seed uint64, small bool) (*Env, error) {
	ds, err := workload.BuildCitiBike(workload.CitiBikeConfig{
		Rows: sc.CitiBikeRows, Weeks: sc.Weeks, Small: small, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	rng := noise.NewRng(seed ^ 0xb1ce)
	pool := workload.Shuffle(workload.CitiBikePool(ds.Domain()), rng.Fork())
	return &Env{
		DS: ds, Pool: pool, Rng: rng,
		Alpha: 0.05, Beta: 0.001, EpsG: 10,
		Tau: 0.01, C0: 5, S0: 1, PC0: 1, PS0: 1,
		LRStart: 0.5, LREnd: 0.5,
	}, nil
}
