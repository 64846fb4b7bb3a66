package core

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/domain"
	"repro/internal/query"
)

func plannerDS(t *testing.T, parts int) *dataset.Dataset {
	t.Helper()
	dom := domain.MustNew(
		domain.Attribute{Name: "a", Card: 2},
		domain.Attribute{Name: "b", Card: 3},
	)
	ds := dataset.New(dom, parts)
	for p := 0; p < parts; p++ {
		for bin := 0; bin < dom.Size(); bin++ {
			if err := addCount(ds, p, bin, 10+bin); err != nil {
				t.Fatal(err)
			}
		}
	}
	return ds
}

func TestPlanResolvesWindowAndVersion(t *testing.T) {
	ds := plannerDS(t, 4)
	p := NewPlanner(ds)
	q := query.MustNew(ds.Domain(), map[int][]int{0: {1}})

	pl, err := p.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Start != 0 || pl.End != 3 {
		t.Fatalf("full-store window = [%d,%d]", pl.Start, pl.End)
	}
	if pl.Rows != ds.NRowsAll() {
		t.Fatalf("Rows = %d, want %d", pl.Rows, ds.NRowsAll())
	}

	wq := q.WithWindow(1, 2)
	wpl, err := p.Plan(wq)
	if err != nil {
		t.Fatal(err)
	}
	if wpl.Start != 1 || wpl.End != 2 {
		t.Fatalf("window = [%d,%d]", wpl.Start, wpl.End)
	}
	if wpl.Rows >= pl.Rows {
		t.Fatalf("window rows %d should be smaller than full-store %d", wpl.Rows, pl.Rows)
	}

	if _, err := p.Plan(q.WithWindow(2, 9)); err == nil {
		t.Fatal("out-of-range window accepted")
	}
	other := domain.MustNew(domain.Attribute{Name: "x", Card: 5})
	if _, err := p.Plan(query.MustNew(other, nil)); err == nil {
		t.Fatal("foreign-domain query accepted")
	}
}
