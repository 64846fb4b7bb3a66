// Adapters binding a PMW-Bypass to a partition range of the dataset
// substrate.

package pmw

import (
	"repro/internal/dataset"
	"repro/internal/query"
)

// RangeExecutor implements Executor over a fixed partition window of a
// dataset — the data view one PMW-Bypass (or tree node) owns.
type RangeExecutor struct {
	Exec       *dataset.Executor
	Start, End int
}

// True returns the non-private result of q over the window.
func (r RangeExecutor) True(q *query.Query) (float64, error) {
	return r.Exec.ExecuteNP(q, r.Start, r.End)
}

// DP returns the ε-DP result of q over the window.
func (r RangeExecutor) DP(q *query.Query, eps float64, trueResult float64) (float64, error) {
	return r.Exec.ExecuteDP(q, r.Start, r.End, eps, trueResult)
}
