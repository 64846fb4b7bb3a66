//go:build !race

package sqlparser

import (
	"testing"

	"repro/internal/workload"
)

// exampleStatement is the statement ISSUE 23 profiled: three constrained
// attributes, two IN lists and a window, 50 tokens — the shape of the
// benchmark's hit_zipf and dash_batch traffic.
const exampleStatement = "SELECT COUNT(*) FROM covid WHERE age IN (1, 2, 3) AND gender = 0 " +
	"AND ethnicity IN (0, 1, 3, 4, 7) AND time BETWEEN 0 AND 2"

// TestParseAllocBudget pins what one parse allocates: the statement, the
// query with its value sets, outer slice, memo and key, and the builder —
// no token slice, no IN-list growth, no fmt. The parser it replaced made 42.
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
	if allocs > 14 {
		t.Fatalf("Parse allocates %v objects per statement, budget 14", allocs)
	}
	t.Logf("Parse: %v allocs/op", allocs)
}
