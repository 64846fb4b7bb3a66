package core

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/domain"
	"repro/internal/query"
)

// rareDataset holds 10,000 rows of which only 10 are positive.
func rareDataset(t *testing.T, dom *domain.Domain) *dataset.Dataset {
	t.Helper()
	ds := dataset.New(dom, 1)
	if err := ds.AddCount(0, dom.Encode([]int{1, 0}), 10); err != nil {
		t.Fatal(err)
	}
	if err := ds.AddCount(0, dom.Encode([]int{0, 0}), 9990); err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestAnswerAverage(t *testing.T) {
	dom, ds := buildDS(t, 1)
	s, err := NewSession(defaultCfg(NonPartitioned), ds)
	if err != nil {
		t.Fatal(err)
	}
	// Average age-bracket midpoint among positive rows. Scale maps
	// bracket index to a nominal midpoint.
	midpoints := []float64{10, 30, 55, 75}
	base := query.MustNew(dom, map[int][]int{0: {1}})
	res, err := s.AnswerAverage(base, 1, func(v int) float64 { return midpoints[v] })
	if err != nil {
		t.Fatal(err)
	}

	// Ground truth from the raw counts.
	num, den := 0.0, 0.0
	for a := 0; a < 4; a++ {
		q := query.MustNew(dom, map[int][]int{0: {1}, 1: {a}})
		f, _ := ds.TrueFraction(q, 0, 0)
		num += midpoints[a] * f
		den += f
	}
	truth := num / den
	if math.Abs(res.Value-truth) > res.ErrorBound {
		t.Fatalf("average %g vs truth %g outside bound %g", res.Value, truth, res.ErrorBound)
	}
	if res.Paid <= 0 {
		t.Fatal("average consumed nothing despite cold caches")
	}
	if res.ErrorBound <= 0 {
		t.Fatal("no error bound")
	}
}

func TestAnswerAverageValidation(t *testing.T) {
	dom, ds := buildDS(t, 1)
	s, _ := NewSession(defaultCfg(NonPartitioned), ds)
	base := query.MustNew(dom, map[int][]int{0: {1}})
	if _, err := s.AnswerAverage(base, 9, func(int) float64 { return 0 }); err == nil {
		t.Error("attr out of range accepted")
	}
	if _, err := s.AnswerAverage(base, 1, nil); err == nil {
		t.Error("nil scale accepted")
	}
	constrained := query.MustNew(dom, map[int][]int{1: {0}})
	if _, err := s.AnswerAverage(constrained, 1, func(int) float64 { return 0 }); err == nil {
		t.Error("constrained attribute accepted")
	}
}

func TestAnswerAverageTinySelection(t *testing.T) {
	// A base predicate selecting fewer than ~α·n rows cannot support a
	// stable released average: the guard must refuse.
	dom, _ := buildDS(t, 1)
	ds := rareDataset(t, dom)
	s, err := NewSession(defaultCfg(NonPartitioned), ds)
	if err != nil {
		t.Fatal(err)
	}
	base := query.MustNew(dom, map[int][]int{0: {1}}) // positives are 0.1% of rows
	if _, err := s.AnswerAverage(base, 1, func(int) float64 { return 1 }); err == nil {
		t.Error("tiny selection accepted")
	}
}
