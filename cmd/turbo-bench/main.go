// turbo-bench regenerates the tables and figures of the Turbo paper's
// evaluation (§6). Each experiment prints the same rows/series the paper
// plots, as aligned text columns suitable for plotting.
//
// Usage:
//
//	turbo-bench -exp=fig3                 # one experiment, small scale
//	turbo-bench -exp=all -scale=paper     # full reproduction (slow)
//	turbo-bench -list                     # enumerate experiments
//	turbo-bench -exp=fig10a -out=results  # write results/<name>.txt
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
)

// loadTreeMissBaseline extracts the treemiss-qps series of the FIRST
// misspath record in a BENCH_*.json trajectory file — the first record is
// the pinned perf baseline; later records are appended runs. A missing
// file skips the gate (nil map, no error) so fresh checkouts without the
// trajectory still run.
func loadTreeMissBaseline(path string) (map[float64]float64, error) {
	records, err := bench.ReadRecords(path)
	if err != nil {
		if os.IsNotExist(err) {
			fmt.Fprintf(os.Stderr, "turbo-bench: baseline %s not found; tree-miss gate skipped\n", path)
			return nil, nil
		}
		return nil, err
	}
	for _, rec := range records {
		if rec.Experiment != "misspath" {
			continue
		}
		for _, s := range rec.Series {
			if s.Name != "treemiss-qps" {
				continue
			}
			base := make(map[float64]float64, len(s.Points))
			for _, p := range s.Points {
				base[p.X] = p.Y
			}
			return base, nil
		}
		return nil, fmt.Errorf("%s: first misspath record has no treemiss-qps series", path)
	}
	return nil, fmt.Errorf("%s: no misspath record", path)
}

func main() {
	var (
		exp      = flag.String("exp", "fig3", "experiment name or 'all'")
		scale    = flag.String("scale", "small", "small | paper")
		outDir   = flag.String("out", "", "directory for per-experiment output files (default stdout)")
		list     = flag.Bool("list", false, "list experiments and exit")
		queries  = flag.Int("queries", 0, "override workload length")
		weeks    = flag.Int("weeks", 0, "override partition count")
		rows     = flag.Int("rows", 0, "override synthetic dataset rows (both datasets)")
		parallel = flag.String("parallel", "", "goroutine counts for -exp=scaling, e.g. 1,2,4,8,16")
		arrivals = flag.String("arrivals", "", "queries-per-arrival ratios for -exp=streaming, e.g. 400,100,25")
		baseline = flag.String("baseline", "", "for -exp=misspath: JSON trajectory file whose FIRST misspath record supplies the treemiss-qps baseline for the 10x hard gate (missing file or empty flag skips the gate)")
		jsonOut  = flag.String("json", "", "also write machine-readable results (a JSON array) to FILE")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments {
			fmt.Printf("%-8s %s\n", e.Name, e.Paper)
		}
		return
	}

	sc := bench.ScaleSmall
	switch *scale {
	case "small":
	case "paper":
		sc = bench.ScalePaper
	default:
		fmt.Fprintf(os.Stderr, "turbo-bench: unknown scale %q (small|paper)\n", *scale)
		os.Exit(2)
	}
	if *queries > 0 {
		sc.Queries = *queries
		sc.PartitionedQueries = *queries
	}
	if *weeks > 0 {
		sc.Weeks = *weeks
	}
	if *rows > 0 {
		sc.CovidRows = *rows
		sc.CitiBikeRows = *rows
	}
	if *parallel != "" {
		for _, part := range strings.Split(*parallel, ",") {
			w, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || w < 1 {
				fmt.Fprintf(os.Stderr, "turbo-bench: bad -parallel value %q\n", part)
				os.Exit(2)
			}
			sc.Workers = append(sc.Workers, w)
		}
	}
	if *baseline != "" {
		base, err := loadTreeMissBaseline(*baseline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "turbo-bench: -baseline: %v\n", err)
			os.Exit(2)
		}
		sc.TreeMissBaseline = base
	}
	if *arrivals != "" {
		for _, part := range strings.Split(*arrivals, ",") {
			r, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || r < 1 {
				fmt.Fprintf(os.Stderr, "turbo-bench: bad -arrivals value %q\n", part)
				os.Exit(2)
			}
			sc.ArrivalRatios = append(sc.ArrivalRatios, r)
		}
	}

	var todo []bench.Experiment
	if *exp == "all" {
		todo = bench.Experiments
	} else {
		e, err := bench.Lookup(*exp)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		todo = []bench.Experiment{e}
	}

	var records []bench.Record
	for _, e := range todo {
		start := time.Now()
		res, err := e.Run(sc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "turbo-bench: %s: %v\n", e.Name, err)
			os.Exit(1)
		}
		elapsed := time.Since(start).Round(time.Millisecond)
		if *jsonOut != "" {
			rec := res.Record(e, sc)
			rec.WallMS = float64(elapsed.Microseconds()) / 1000
			rec.GOMAXPROCS, rec.NumCPU = runtime.GOMAXPROCS(0), runtime.NumCPU()
			records = append(records, rec)
		}
		out := os.Stdout
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			f, err := os.Create(filepath.Join(*outDir, res.Name+".txt"))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			out = f
		}
		fmt.Fprintf(out, "# experiment: %s (%s), scale=%s, wall=%v\n", e.Name, e.Paper, sc.Name, elapsed)
		if err := res.WriteTable(out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if imp := res.Improvement("turbo"); imp > 0 {
			fmt.Fprintf(out, "# turbo improvement over best baseline: %.2fx\n", imp)
		}
		fmt.Fprintln(out)
		if out != os.Stdout {
			_ = out.Close()
			fmt.Printf("%s: wrote %s (%v)\n", e.Name, filepath.Join(*outDir, res.Name+".txt"), elapsed)
		}
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(records, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *jsonOut)
	}
}
