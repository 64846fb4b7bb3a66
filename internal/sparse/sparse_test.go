package sparse

import (
	"testing"

	"repro/internal/noise"
)

func newSV(seed uint64) *SV {
	return New(0.5, 0.05, 10000, noise.NewRng(seed))
}

func TestLifecycle(t *testing.T) {
	sv := newSV(1)
	if sv.Live() {
		t.Fatal("fresh SV is live before Reset")
	}
	if sv.InitCost() != 1.5 {
		t.Fatalf("InitCost = %g, want 3ε = 1.5", sv.InitCost())
	}
	sv.Reset()
	if !sv.Live() {
		t.Fatal("SV not live after Reset")
	}
	resets, tests, passes := sv.Stats()
	if resets != 1 || tests != 0 || passes != 0 {
		t.Fatalf("stats = %d,%d,%d", resets, tests, passes)
	}
}

func TestAccurateEstimatesPass(t *testing.T) {
	// With εn = 5000 the threshold noise is tiny; an exact estimate must
	// pass essentially always.
	sv := newSV(2)
	sv.Reset()
	passCount := 0
	for i := 0; i < 1000 && sv.Live(); i++ {
		if sv.Test(0.3, 0.3) {
			passCount++
		}
	}
	if passCount < 999 {
		t.Fatalf("exact estimates passed only %d/1000", passCount)
	}
}

func TestGrossErrorsFail(t *testing.T) {
	// An estimate off by 10α must fail (threshold centre is α/2).
	fails := 0
	for seed := uint64(0); seed < 100; seed++ {
		sv := newSV(seed)
		sv.Reset()
		if !sv.Test(0.0, 0.5) {
			fails++
		}
	}
	if fails != 100 {
		t.Fatalf("gross errors failed only %d/100 times", fails)
	}
}

func TestBorderlineRespectsAlphaHalf(t *testing.T) {
	// Errors well under α/2 pass w.h.p.; errors well over α/2 fail w.h.p.
	passSmall, passBig := 0, 0
	for seed := uint64(0); seed < 200; seed++ {
		sv := newSV(seed)
		sv.Reset()
		if sv.Test(0.3, 0.3+0.005) { // error 0.1·α
			passSmall++
		}
		sv2 := newSV(seed + 1000)
		sv2.Reset()
		if sv2.Test(0.3, 0.3+0.045) { // error 0.9·α
			passBig++
		}
	}
	if passSmall < 190 {
		t.Fatalf("small errors passed only %d/200", passSmall)
	}
	if passBig > 10 {
		t.Fatalf("large errors passed %d/200", passBig)
	}
}

func TestFailureConsumesSV(t *testing.T) {
	sv := newSV(3)
	sv.Reset()
	if sv.Test(0, 1) {
		t.Fatal("wild estimate passed")
	}
	if sv.Live() {
		t.Fatal("SV live after failing test")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Test on consumed SV did not panic")
			}
		}()
		sv.Test(0, 0)
	}()
	// Reset revives it.
	sv.Reset()
	if !sv.Live() {
		t.Fatal("Reset did not revive SV")
	}
	resets, tests, passes := sv.Stats()
	if resets != 2 || tests != 1 || passes != 0 {
		t.Fatalf("stats = %d,%d,%d", resets, tests, passes)
	}
}

func TestTestBeforeResetPanics(t *testing.T) {
	sv := newSV(4)
	defer func() {
		if recover() == nil {
			t.Fatal("Test before Reset did not panic")
		}
	}()
	sv.Test(0, 0)
}

func TestNewValidations(t *testing.T) {
	rng := noise.NewRng(1)
	cases := []func(){
		func() { New(0, 0.05, 100, rng) },
		func() { New(0.5, 0, 100, rng) },
		func() { New(0.5, 0.05, 0, rng) },
		func() { New(0.5, 0.05, 100, nil) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestEpsilonAccessor(t *testing.T) {
	if got := newSV(1).Epsilon(); got != 0.5 {
		t.Fatalf("Epsilon = %g", got)
	}
}

func TestFalsePassRateNearThreshold(t *testing.T) {
	// Estimates exactly at the α/2 centre should pass about half the
	// time: the comparison is symmetric noise vs symmetric noise.
	passes := 0
	const trials = 2000
	for seed := uint64(0); seed < trials; seed++ {
		sv := newSV(seed)
		sv.Reset()
		if sv.Test(0.3, 0.3+0.025) { // error exactly α/2
			passes++
		}
	}
	rate := float64(passes) / trials
	if rate < 0.35 || rate > 0.65 {
		t.Fatalf("pass rate at threshold = %g, want ≈0.5", rate)
	}
}

// TestRecalibrateIsNew: a consumed SV, recalibrated, is the SV New makes
// with the same parameters, and draws the same threshold and tests from
// the same noise.
func TestRecalibrateIsNew(t *testing.T) {
	used := newSV(3)
	used.Reset()
	for used.Live() {
		used.Test(0, 1)
	}
	used.Recalibrate(0.25, 0.1, 500, noise.NewRng(9))
	fresh := New(0.25, 0.1, 500, noise.NewRng(9))
	u, f := *used, *fresh
	u.rng, f.rng = nil, nil // each its own generator, seeded alike
	if u != f {
		t.Fatalf("recalibrated %+v, new %+v", u, f)
	}
	used.Reset()
	fresh.Reset()
	for range 20 {
		if used.threshold != fresh.threshold || used.Test(0.5, 0.52) != fresh.Test(0.5, 0.52) || used.Live() != fresh.Live() {
			t.Fatalf("recalibrated %+v, new %+v", *used, *fresh)
		}
		if !used.Live() {
			break
		}
	}
}
