// Package bench is the experiment harness that regenerates every table and
// figure of the Turbo paper's evaluation (§6). Each experiment is a
// function returning a Result — one or more named series of (x, y) points
// matching the rows/curves the paper plots — run by the cmd/turbo-bench
// tool and, for every deterministic experiment, pinned bit for bit by the
// golden record testdata/paper_small.json (TestPaperGolden).
//
// Experiments run at a configurable Scale. ScaleSmall keeps wall-clock in
// seconds while preserving every qualitative shape; ScalePaper reproduces
// the paper's workload sizes (§6.1) for the standalone tool.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/heuristic"
	"repro/internal/noise"
	"repro/internal/pmw"
	"repro/internal/query"
	"repro/internal/tree"
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
	// TreeMissBaseline maps domain size (bins) to the committed
	// treemiss-qps baseline for -exp=misspath (turbo-bench -baseline
	// loads it from the first record of BENCH_misspath.json). When a
	// ladder point has an entry, the experiment hard-errors unless the
	// measured tree-miss throughput is at least 10x the baseline; nil or
	// missing entries skip the gate.
	TreeMissBaseline map[float64]float64
}

// ScaleSmall is the default and the golden record's scale: same shapes,
// seconds of wall-clock.
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
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// Series is one named curve or table column.
type Series struct {
	Name   string  `json:"name"`
	Points []Point `json:"points"`
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

// Record is the machine-readable form of one experiment run: the schema of
// the BENCH_*.json trajectory files (turbo-bench -json) and of the golden
// paper record (testdata/paper_small.json). The wall-clock and machine
// fields are left out when zero, which is how the golden omits them.
type Record struct {
	Experiment string   `json:"experiment"`
	Paper      string   `json:"paper"`
	Scale      string   `json:"scale"`
	WallMS     float64  `json:"wall_ms,omitempty"`
	GOMAXPROCS int      `json:"gomaxprocs,omitempty"`
	NumCPU     int      `json:"num_cpu,omitempty"`
	XLabel     string   `json:"x_label"`
	YLabel     string   `json:"y_label"`
	Series     []Series `json:"series"`
	Notes      []string `json:"notes,omitempty"`
}

// Record flattens the result of experiment e run at scale sc.
func (r Result) Record(e Experiment, sc Scale) Record {
	return Record{
		Experiment: e.Name, Paper: e.Paper, Scale: sc.Name,
		XLabel: r.XLabel, YLabel: r.YLabel, Series: r.Series, Notes: r.Notes,
	}
}

// ReadRecords parses a JSON array of records.
func ReadRecords(path string) ([]Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []Record
	if err := json.Unmarshal(data, &recs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
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
	// full is the complete data a streaming env replays into DS week by
	// week; nil otherwise.
	full *dataset.Dataset
}

// envFn builds an experiment's environment at a scale.
type envFn func(Scale) (*Env, error)

// covid and citibike bind an environment constructor to its seed.
func covid(seed uint64) envFn {
	return func(sc Scale) (*Env, error) { return NewCovidEnv(sc, seed) }
}

func citibike(seed uint64) envFn {
	return func(sc Scale) (*Env, error) { return NewCitiBikeEnv(sc, seed, true) }
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

// lr returns the dataset's default learning-rate schedule (§6.1).
func (e *Env) lr() pmw.Schedule {
	if e.LRStart == e.LREnd {
		return pmw.Constant(e.LRStart)
	}
	return pmw.ExpDecay{Start: e.LRStart, End: e.LREnd, HalfLife: 300}
}

// sample draws n queries from the pool under Zipf(k), on a fork of Rng.
func (e *Env) sample(k float64, n int) ([]*query.Query, error) {
	z, err := workload.NewZipf(e.Pool, k, e.Rng.Fork())
	if err != nil {
		return nil, err
	}
	return z.SampleN(n), nil
}

// windowed samples n queries under Zipf(k) and attaches uniform
// contiguous windows (Fig. 10 methodology).
func (e *Env) windowed(n int, k float64) ([]*query.Query, error) {
	qs, err := e.sample(k, n)
	if err != nil {
		return nil, err
	}
	wins := workload.NewWindows(e.Rng.Fork())
	for i, q := range qs {
		qs[i] = q.WithWindow(wins.UniformContiguous(e.DS.Partitions()))
	}
	return qs, nil
}

// streaming turns an env built with every week present into one whose
// live dataset holds only week 0, keeping the rest to replay through feed.
func (e *Env) streaming() *Env {
	e.full = e.DS
	e.DS = dataset.New(e.full.Domain(), 1)
	e.feed(0)
	return e
}

// week returns the per-bin counts of week w of a streaming env's full data.
func (e *Env) week(w int) []int { return e.full.PartitionCounts(w) }

// feed copies week w of the full data into partition w of the live one.
func (e *Env) feed(w int) { _ = e.DS.BulkLoad(w, e.week(w)) }

// session builds a Turbo session over the env with its §6.1 settings; the
// partitioned modes use the §6.3 heuristic (Covid (50,1), CitiBike (1,1)).
func (e *Env) session(mode core.Mode, structure tree.Structure, seed uint64) (*core.Session, error) {
	return core.NewSession(e.config(mode, structure, seed), e.DS)
}

// config is the Config session builds its session from.
func (e *Env) config(mode core.Mode, structure tree.Structure, seed uint64) core.Config {
	cfg := core.Config{
		Mode:  mode,
		Alpha: e.Alpha, Beta: e.Beta, EpsilonGlobal: e.EpsG,
		Tau:       e.Tau,
		LR:        func() pmw.Schedule { return e.lr() },
		Structure: structure,
		Seed:      seed,
	}
	c0, s0 := e.C0, e.S0
	if mode != core.NonPartitioned {
		c0, s0 = e.PC0, e.PS0
	}
	cfg.Heuristic = func() heuristic.Heuristic { return heuristic.NewAdaptivePerBin(c0, s0) }
	return cfg
}
