package bench

import "testing"

// The ablation checks read the golden record (small scale), which
// TestPaperGolden pins to what the experiments produce.

func TestTauSweepRuns(t *testing.T) {
	r := golden(t, "tau")
	budget := r.SeriesByName("final-budget")
	updates := r.SeriesByName("updates")
	if len(budget.Points) != 5 || len(updates.Points) != 5 {
		t.Fatalf("points = %d/%d", len(budget.Points), len(updates.Points))
	}
	// A huge margin (τ=0.5 → margin 0.025 = α/2) must apply no more
	// updates than a small one: the update rule only fires outside τα.
	if updates.Points[4].Y > updates.Points[0].Y {
		t.Fatalf("updates not monotone-ish in tau: %v", updates.Points)
	}
}

func TestWarmStartPriorsOrdering(t *testing.T) {
	r := golden(t, "warmstart")
	s := r.SeriesByName("updates-to-converge")
	if len(s.Points) != 3 {
		t.Fatalf("points = %v", s.Points)
	}
	uniform, good, wrong := s.Points[0].Y, s.Points[1].Y, s.Points[2].Y
	// A prior carrying real structure converges no slower than uniform;
	// a reversed prior no faster than the good one.
	if good > uniform {
		t.Fatalf("good prior (%g) converged slower than uniform (%g)", good, uniform)
	}
	if wrong < good {
		t.Fatalf("wrong prior (%g) converged faster than good prior (%g)", wrong, good)
	}
	// λ ordering: uniform has λ=1; the others are flatter-bounded.
	l := r.SeriesByName("lambda")
	if l.Points[0].Y != 1 {
		t.Fatalf("uniform lambda = %g", l.Points[0].Y)
	}
	if l.Points[1].Y <= 1 || l.Points[2].Y <= 1 {
		t.Fatal("non-uniform priors must have λ > 1")
	}
}

func TestRDPvsPure(t *testing.T) {
	pts := golden(t, "rdp").Series[0].Points
	if len(pts) != 2 {
		t.Fatalf("points = %v", pts)
	}
	pure, rdp := pts[0].Y, pts[1].Y
	if rdp <= pure {
		t.Fatalf("RDP admitted %g payments, pure %g — RDP must compose better", rdp, pure)
	}
}

func TestAdversarialDrainCutoff(t *testing.T) {
	r := golden(t, "drain")
	no := r.SeriesByName("no-cutoff")
	cut := r.SeriesByName("cutoff-k500")
	if len(no.Points) == 0 || len(cut.Points) == 0 {
		t.Fatal("missing series")
	}
	// The cutoff must end cheaper than the unbounded drain.
	if cut.Last() >= no.Last() {
		t.Fatalf("cutoff (%g) did not bound the drain (%g)", cut.Last(), no.Last())
	}
	// And the drain itself must keep growing between the middle and the
	// end of the workload (it's linear by construction).
	mid := no.Points[len(no.Points)/2].Y
	if no.Last() <= mid {
		t.Fatal("unbounded drain did not keep growing")
	}
}
