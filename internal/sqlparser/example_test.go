package sqlparser_test

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/sqlparser"
	"repro/internal/workload"
)

// Analyst SQL parsed by the turbo-sql grammar and answered by a
// partitioned Turbo session: the end-to-end path of Fig. 1, from SQL text
// to a DP answer with budget accounting. turbo-server's POST /query takes
// the same path.
func ExampleParser_Parse() {
	ds, err := workload.BuildCovid(workload.CovidConfig{
		Rows: 1_000_000, Weeks: 8, Seed: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	sess, err := core.NewSession(core.Config{
		Mode:          core.Partitioned, // weekly partitions, tree cache
		Alpha:         0.05,
		Beta:          0.001,
		EpsilonGlobal: 10,
		Seed:          9,
	}, ds)
	if err != nil {
		log.Fatal(err)
	}
	parser := sqlparser.New(ds.Domain())

	statements := []string{
		`SELECT COUNT(*) FROM covid WHERE positive = 'positive'`,
		`SELECT COUNT(*) FROM covid WHERE positive = 1 AND age = '1-17'`,
		`SELECT COUNT(*) FROM covid WHERE positive = 1 AND time BETWEEN 2 AND 5`,
		`SELECT COUNT(*) FROM covid WHERE age IN (2, 3) AND gender = 0 AND time BETWEEN 0 AND 3`,
		// Re-issuing an earlier query hits the exact cache for free.
		`SELECT COUNT(*) FROM covid WHERE positive = 1 AND time BETWEEN 2 AND 5`,
		// Unsupported constructs fail over with a descriptive error (the
		// "fail-to-host-engine" behaviour of §5).
		`SELECT COUNT(*) FROM covid WHERE positive = 1 OR age = 0`,
	}
	for _, sql := range statements {
		fmt.Printf("sql> %s\n", sql)
		st, err := parser.Parse(sql)
		if err != nil {
			fmt.Printf("  rejected: %v\n", err)
			continue
		}
		ans, err := sess.Answer(st.Query)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  -> %.4f of rows (path %s, paid ε=%.3g, avg budget %.4f)\n",
			ans.Value, ans.Source, ans.Paid, sess.AverageSpent())
	}

	// GROUP BY statements decompose into one primitive query per group
	// (the §6.1 methodology), each answered through the same pipeline.
	groupSQL := `SELECT COUNT(*) FROM covid WHERE positive = 1 GROUP BY age`
	fmt.Printf("sql> %s\n", groupSQL)
	gs, err := parser.ParseGrouped(groupSQL)
	if err != nil {
		log.Fatal(err)
	}
	for _, g := range gs.Groups {
		ans, err := sess.Answer(g.Query)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  age=%-6s -> %.4f (path %s)\n",
			ds.Domain().LevelName(1, g.Values[0]), ans.Value, ans.Source)
	}
	fmt.Printf("total consumed budget: %.4f of ε_G=10\n", sess.AverageSpent())

	// Output:
	// sql> SELECT COUNT(*) FROM covid WHERE positive = 'positive'
	//   -> 0.1192 of rows (path tree, paid ε=0.00122, avg budget 0.0002)
	// sql> SELECT COUNT(*) FROM covid WHERE positive = 1 AND age = '1-17'
	//   -> 0.0234 of rows (path tree, paid ε=0.00122, avg budget 0.0003)
	// sql> SELECT COUNT(*) FROM covid WHERE positive = 1 AND time BETWEEN 2 AND 5
	//   -> 0.1050 of rows (path tree, paid ε=0.00154, avg budget 0.0005)
	// sql> SELECT COUNT(*) FROM covid WHERE age IN (2, 3) AND gender = 0 AND time BETWEEN 0 AND 3
	//   -> 0.1601 of rows (path tree, paid ε=0.00128, avg budget 0.0007)
	// sql> SELECT COUNT(*) FROM covid WHERE positive = 1 AND time BETWEEN 2 AND 5
	//   -> 0.1050 of rows (path exact-hit, paid ε=0, avg budget 0.0007)
	// sql> SELECT COUNT(*) FROM covid WHERE positive = 1 OR age = 0
	//   rejected: sqlparser: OR at 46: turbo-sql supports conjunctive predicates only
	// sql> SELECT COUNT(*) FROM covid WHERE positive = 1 GROUP BY age
	//   age=1-17   -> 0.0234 (path exact-hit)
	//   age=18-49  -> 0.0443 (path tree)
	//   age=50-64  -> 0.0333 (path tree)
	//   age=65+    -> 0.0205 (path tree)
	// total consumed budget: 0.0011 of ε_G=10
}
