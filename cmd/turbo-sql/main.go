// turbo-sql is a standalone DP SQL shell over the dataset substrate: the
// repo's equivalent of the paper's turbo-sql library (§5). It loads a
// synthetic dataset, wraps it in a Turbo session enforcing a global
// (ε_G, 0)-DP guarantee, and answers linear COUNT queries read from the
// command line or stdin, printing the result, the execution path, and the
// remaining privacy budget.
//
// Usage:
//
//	turbo-sql -dataset=covid -q "SELECT COUNT(*) FROM covid WHERE positive = 1"
//	echo "SELECT COUNT(*) FROM covid WHERE age IN (0,1) AND time BETWEEN 0 AND 3" | turbo-sql -mode=partitioned
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/accountant"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/query"
	"repro/internal/sqlparser"
	"repro/internal/tree"
	"repro/internal/workload"
)

func main() {
	var (
		datasetName = flag.String("dataset", "covid", "covid | citibike")
		mode        = flag.String("mode", "non-partitioned", "non-partitioned | partitioned | streaming")
		rows        = flag.Int("rows", 2_000_000, "synthetic dataset rows")
		weeks       = flag.Int("weeks", 16, "time partitions")
		alpha       = flag.Float64("alpha", 0.05, "accuracy target α")
		beta        = flag.Float64("beta", 0.001, "accuracy failure probability β")
		epsG        = flag.Float64("epsg", 10, "global privacy budget ε_G")
		seed        = flag.Uint64("seed", 42, "deterministic seed")
		queryFlag   = flag.String("q", "", "single query (otherwise read lines from stdin)")
	)
	flag.Parse()

	ds, table, err := buildDataset(*datasetName, *rows, *weeks, *seed)
	if err != nil {
		fatal(err)
	}
	var m core.Mode
	switch *mode {
	case "non-partitioned":
		m = core.NonPartitioned
	case "partitioned":
		m = core.Partitioned
	case "streaming":
		m = core.Streaming
	default:
		fatal(fmt.Errorf("unknown mode %q", *mode))
	}
	sess, err := core.NewSession(core.Config{
		Mode: m, Alpha: *alpha, Beta: *beta, EpsilonGlobal: *epsG,
		Structure: tree.Binary, Seed: *seed,
	}, ds)
	if err != nil {
		fatal(err)
	}
	parser := sqlparser.New(ds.Domain())

	fmt.Printf("turbo-sql: %s over %s (%d rows, %d partitions), (α=%g, β=%g), ε_G=%g\n",
		m, ds.Domain(), ds.NRowsAll(), ds.Partitions(), *alpha, *beta, *epsG)

	answerOne := func(q *query.Query) (core.Answer, bool) {
		ans, err := sess.Answer(q)
		switch {
		case errors.Is(err, accountant.ErrBudgetExhausted):
			fmt.Println("error: global privacy budget exhausted; no further queries can be answered")
			return core.Answer{}, false
		case err != nil:
			fmt.Printf("error: %v\n", err)
			return core.Answer{}, false
		}
		return ans, true
	}
	rowsIn := func(q *query.Query) int {
		start, end := 0, ds.Partitions()-1
		if s, e, ok := q.Window(); ok {
			start, end = s, e
		}
		n, _ := ds.NRows(start, end)
		return n
	}

	exec := func(line string) {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "--") {
			return
		}
		gs, err := parser.ParseGrouped(line)
		if err != nil {
			fmt.Printf("error: %v\n", err)
			return
		}
		if !strings.EqualFold(gs.Table, table) {
			fmt.Printf("error: unknown table %q (have %q)\n", gs.Table, table)
			return
		}
		if len(gs.GroupBy) == 0 {
			q := gs.Groups[0].Query
			ans, ok := answerOne(q)
			if !ok {
				return
			}
			n := rowsIn(q)
			fmt.Printf("fraction=%.6f  count≈%.0f  (±%g w.p. %g)  path=%s  paid=%.3g  avg-budget=%.4f/%.4g\n",
				ans.Value, ans.Value*float64(n), *alpha, 1-*beta, ans.Source, ans.Paid,
				sess.AverageSpent(), *epsG)
			return
		}
		// GROUP BY: one row per group, each an independent Turbo query.
		dom := ds.Domain()
		for _, g := range gs.Groups {
			ans, ok := answerOne(g.Query)
			if !ok {
				return
			}
			labels := make([]string, len(g.Values))
			for j, v := range g.Values {
				labels[j] = dom.Attr(gs.GroupBy[j]).Name + "=" + dom.LevelName(gs.GroupBy[j], v)
			}
			fmt.Printf("%-40s fraction=%.6f  count≈%.0f  path=%s\n",
				strings.Join(labels, ","), ans.Value, ans.Value*float64(rowsIn(g.Query)), ans.Source)
		}
	}

	if *queryFlag != "" {
		exec(*queryFlag)
		return
	}
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for scanner.Scan() {
		exec(scanner.Text())
	}
	if err := scanner.Err(); err != nil {
		fatal(err)
	}
}

func buildDataset(name string, rows, weeks int, seed uint64) (ds *dataset.Dataset, table string, err error) {
	switch name {
	case "covid":
		d, err := workload.BuildCovid(workload.CovidConfig{Rows: rows, Weeks: weeks, Seed: seed})
		return d, "covid", err
	case "citibike":
		d, err := workload.BuildCitiBike(workload.CitiBikeConfig{Rows: rows, Weeks: weeks, Small: true, Seed: seed})
		return d, "citibike", err
	default:
		return nil, "", fmt.Errorf("unknown dataset %q (covid|citibike)", name)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "turbo-sql:", err)
	os.Exit(1)
}
