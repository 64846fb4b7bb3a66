//go:build !race

package sqlparser

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/query"
	"repro/internal/workload"
)

// exampleStatement is the statement ISSUE 23 profiled: three constrained
// attributes, two IN lists and a window, 50 tokens — the shape of the
// benchmark's hit_zipf and dash_batch traffic.
const exampleStatement = "SELECT COUNT(*) FROM covid WHERE age IN (1, 2, 3) AND gender = 0 " +
	"AND ethnicity IN (0, 1, 3, 4, 7) AND time BETWEEN 0 AND 2"

// TestParseAllocBudget pins what one parse allocates: the statement, and
// the query with its outer slice, its one array of values, its memo and
// its one key string — no builder, no token slice, no IN-list growth, no
// fmt. The parser it replaced made 42, and this one 9 while its builder
// lived on the heap with a slice per value set.
func TestParseAllocBudget(t *testing.T) {
	p := New(workload.CovidDomain())
	st, err := p.Parse(exampleStatement)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := st.Query.KeyWithWindow(), "\x01\x00\x02\x03\x0e\x01\x9b"; got != want {
		t.Fatalf("key %q, want %q", got, want)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := p.Parse(exampleStatement); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 6 {
		t.Fatalf("Parse allocates %v objects per statement, budget 6", allocs)
	}
	t.Logf("Parse: %v allocs/op", allocs)
}

// TestParseIntoKeyZeroAllocs: the handlers' half of a parse — the walk
// into a caller's Builder and the key rendered into a buffer that has
// grown — allocates nothing, so an exact hit builds no query.
func TestParseIntoKeyZeroAllocs(t *testing.T) {
	p := New(workload.CovidDomain())
	var (
		b   query.Builder
		key []byte
	)
	allocs := testing.AllocsPerRun(200, func() {
		table, err := p.ParseInto(exampleStatement, &b)
		if err == nil {
			key, err = b.AppendKey(key[:0])
		}
		if err != nil || table != "covid" || string(key) != "\x01\x00\x02\x03\x0e\x01\x9b" {
			t.Fatalf("ParseInto: %q %q %v", table, key, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ParseInto and AppendKey allocate %v objects per statement, want 0", allocs)
	}
}

// TestParseGroupedIntoZeroAllocs: the /groupby handler's half of a GROUP
// BY parse — the walk into a caller's Builder and attribute slice, and
// every cell's builder with its key — allocates nothing. ParseGrouped,
// which builds each cell, made a builder, a query and a value slice per
// cell.
func TestParseGroupedIntoZeroAllocs(t *testing.T) {
	p := New(workload.CovidDomain())
	const src = "SELECT COUNT(*) FROM covid WHERE gender = 0 AND time BETWEEN 0 AND 2 GROUP BY age, positive"
	var (
		b     query.Builder
		attrs []int
		key   []byte
	)
	cellVals := make([]int, 0, 2)
	allocs := testing.AllocsPerRun(200, func() {
		table, groupBy, err := p.ParseGroupedInto(src, &b, attrs)
		if err != nil || table != "covid" || len(groupBy) != 2 {
			t.Fatalf("ParseGroupedInto: %q %v %v", table, groupBy, err)
		}
		attrs = groupBy
		for c := range p.Cells(groupBy) {
			cell, cv := p.Cell(&b, groupBy, c, cellVals[:0])
			if key, err = cell.AppendKey(key[:0]); err != nil || len(cv) != 2 {
				t.Fatalf("cell %d: %v %v", c, cv, err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("a grouped walk and its cells' keys allocate %v objects, want 0", allocs)
	}
}

// TestParseIntoOutpacesOracle gates the one-pass walk's speed: over both
// pools' windowed statements, ParseInto runs at least 6 times as fast as
// the oracle parser it is checked against (oracle_test.go), which lexes
// each statement into a fresh token slice and builds its query. The two
// are timed in turn on each run of 64 statements, five rounds, and each
// run keeps its fastest time per parser: a neighbour's burst on a shared
// machine slows a run in one round, not in all five. On a 2-vCPU Xeon
// (go1.24) this walk reads 7.2-7.4x and the token-array parser it
// replaced 3.9-4.1x.
func TestParseIntoOutpacesOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate")
	}
	var srcs []string
	var parsers []*Parser
	for _, ps := range windowedStatements() {
		for _, src := range ps.srcs {
			srcs, parsers = append(srcs, src), append(parsers, ps.p)
		}
	}
	const run = 64
	fast := make([]time.Duration, len(srcs)/run)
	slow := make([]time.Duration, len(srcs)/run)
	var b query.Builder
	runtime.GC()
	for round := range 5 {
		for r := range fast {
			start := time.Now()
			for i := r * run; i < (r+1)*run; i++ {
				if _, err := parsers[i].ParseInto(srcs[i], &b); err != nil {
					t.Fatal(err)
				}
			}
			mid := time.Now()
			for i := r * run; i < (r+1)*run; i++ {
				if _, err := oracleParse(parsers[i], srcs[i]); err != nil {
					t.Fatal(err)
				}
			}
			end := time.Now()
			if d := mid.Sub(start); round == 0 || d < fast[r] {
				fast[r] = d
			}
			if d := end.Sub(mid); round == 0 || d < slow[r] {
				slow[r] = d
			}
		}
	}
	var walk, oracle time.Duration
	for r := range fast {
		walk, oracle = walk+fast[r], oracle+slow[r]
	}
	ratio := float64(oracle) / float64(walk)
	t.Logf("ParseInto %v, oracle %v over %d statements: %.1fx", walk, oracle, len(srcs), ratio)
	if ratio < 6 {
		t.Fatalf("ParseInto is %.1fx the oracle's speed, want at least 6x", ratio)
	}
}
