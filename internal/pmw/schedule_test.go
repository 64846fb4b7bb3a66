package pmw

import (
	"math"
	"strings"
	"testing"
)

func TestConstant(t *testing.T) {
	s := Constant(0.25)
	for _, u := range []int{0, 1, 1000} {
		if s.LR(u) != 0.25 {
			t.Fatalf("LR(%d) = %g", u, s.LR(u))
		}
	}
	if !strings.Contains(s.String(), "0.25") {
		t.Fatalf("String = %q", s.String())
	}
}

func TestExpDecay(t *testing.T) {
	s := ExpDecay{Start: 0.25, End: 0.025, HalfLife: 100}
	if s.LR(0) != 0.25 {
		t.Fatalf("LR(0) = %g", s.LR(0))
	}
	// One half-life: End + (Start−End)/2.
	want := 0.025 + (0.25-0.025)/2
	if math.Abs(s.LR(100)-want) > 1e-12 {
		t.Fatalf("LR(100) = %g, want %g", s.LR(100), want)
	}
	if got := s.LR(100000); math.Abs(got-0.025) > 1e-6 {
		t.Fatalf("LR(∞) = %g, want End", got)
	}
	// Monotone decreasing.
	prev := math.Inf(1)
	for u := 0; u < 1000; u += 50 {
		if lr := s.LR(u); lr > prev {
			t.Fatal("ExpDecay not monotone")
		} else {
			prev = lr
		}
	}
	// Degenerate half-life returns End.
	if (ExpDecay{Start: 1, End: 0.1}).LR(5) != 0.1 {
		t.Fatal("zero half-life should pin to End")
	}
}

func TestTheoreticalLR(t *testing.T) {
	if TheoreticalLR(0.05) != 0.05/8 {
		t.Fatal("theoretical lr is α/8")
	}
}

func TestScheduleStrings(t *testing.T) {
	for _, s := range []Schedule{
		Constant(0.1),
		ExpDecay{Start: 0.25, End: 0.025, HalfLife: 50},
	} {
		if s.String() == "" {
			t.Fatalf("%T has empty String()", s)
		}
	}
}
