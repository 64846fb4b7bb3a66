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
// and performs only read operations on the dataset (which serializes its
// own metadata access), so any number of request goroutines may plan
// concurrently.
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
	if q == nil {
		return Plan{}, errors.New("core: nil query")
	}
	if q.Domain() != nil && !q.Domain().Equal(p.ds.Domain()) {
		return Plan{}, errors.New("core: query domain does not match session dataset")
	}
	start, end := 0, p.ds.Partitions()-1
	if a, b, ok := q.Window(); ok {
		start, end = a, b
		if a < 0 || b >= p.ds.Partitions() {
			return Plan{}, fmt.Errorf("core: window [%d,%d] out of range", a, b)
		}
	}
	version, rows, err := p.ds.WindowMeta(start, end)
	if err != nil {
		return Plan{}, err
	}
	return Plan{Query: q, Start: start, End: end, Version: version, Rows: rows}, nil
}

// PlanWith resolves q like Plan, but against a metadata snapshot the
// caller captured with Dataset.MetaSnapshot — the batch plane plans any
// number of queries under one dataset lock acquisition this way.
func (p *Planner) PlanWith(m *dataset.MetaSnapshot, q *query.Query) (Plan, error) {
	if q == nil {
		return Plan{}, errors.New("core: nil query")
	}
	if q.Domain() != nil && !q.Domain().Equal(p.ds.Domain()) {
		return Plan{}, errors.New("core: query domain does not match session dataset")
	}
	start, end := 0, m.Partitions()-1
	if a, b, ok := q.Window(); ok {
		start, end = a, b
		if a < 0 || b >= m.Partitions() {
			return Plan{}, fmt.Errorf("core: window [%d,%d] out of range", a, b)
		}
	}
	version, rows, err := m.WindowMeta(start, end)
	if err != nil {
		return Plan{}, err
	}
	return Plan{Query: q, Start: start, End: end, Version: version, Rows: rows}, nil
}
