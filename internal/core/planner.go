// The planner stage of the query pipeline: resolving an incoming
// linear query against the public dataset metadata — partition window,
// data version, view size — before any lock is taken or any budget is
// touched.

package core

import (
	"errors"
	"fmt"

	"repro/internal/dataset"
	"repro/internal/query"
)

// Planner resolves queries to execution plans. It holds no mutable state
// and only reads the dataset's published views, which no writer changes,
// so any number of request goroutines may plan concurrently without a
// lock. PlanWindow reads the partition count and the window's metadata
// from two views; an append between them only adds partitions, so the
// two agree.
type Planner struct {
	ds *dataset.Dataset
}

// NewPlanner creates a planner over ds.
func NewPlanner(ds *dataset.Dataset) *Planner { return &Planner{ds: ds} }

// Plan is a resolved query: the window it runs on, the public size of that
// view, and the data version that exact-cache entries must match.
type Plan struct {
	Query *query.Query
	// Start, End are the resolved partition window (a query without an
	// explicit window spans the whole store).
	Start, End int
	// Version is the window's data version at planning time.
	Version int
	// Rows is the public row count of the window.
	Rows int
}

// Plan validates q against the dataset and resolves its window, version,
// and view size.
func (p *Planner) Plan(q *query.Query) (Plan, error) {
	if err := p.check(q); err != nil {
		return Plan{}, err
	}
	pl, err := p.PlanWindow(q.Window())
	pl.Query = q
	return pl, err
}

// PlanWindow resolves a window — [start, end], or the whole store when
// windowed is false — to its plan, with no query: a statement is planned,
// and probed by its key, before its query is built.
func (p *Planner) PlanWindow(start, end int, windowed bool) (Plan, error) {
	if parts := p.ds.Partitions(); !windowed {
		start, end = 0, parts-1
	} else if start < 0 || end >= parts {
		return Plan{}, fmt.Errorf("core: window [%d,%d] out of range", start, end)
	}
	version, rows, err := p.ds.WindowMeta(start, end)
	if err != nil {
		return Plan{}, err
	}
	return Plan{Start: start, End: end, Version: version, Rows: rows}, nil
}

// check refuses a query the planner cannot plan: nil, or over another
// domain.
func (p *Planner) check(q *query.Query) error {
	if q == nil {
		return errors.New("core: nil query")
	}
	if q.Domain() != nil && !q.Domain().Equal(p.ds.Domain()) {
		return errors.New("core: query domain does not match session dataset")
	}
	return nil
}
