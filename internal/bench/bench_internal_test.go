package bench

import (
	"strings"
	"testing"
)

// tiny sizes the tests that still run experiments rather than read the
// golden record: the wall-clock experiments and the checkpoint clamp.
func tiny() Scale {
	return Scale{
		Name:    "tiny",
		Queries: 12000, PartitionedQueries: 800,
		Weeks:     8,
		CovidRows: 400_000, CitiBikeRows: 400_000,
		Checkpoints: 8,
	}
}

func TestResultHelpers(t *testing.T) {
	r := Result{
		Name: "x", XLabel: "q", YLabel: "b",
		Series: []Series{
			{Name: "a", Points: []Point{{1, 10}, {2, 20}}},
			{Name: "b", Points: []Point{{1, 5}, {2, 4}}},
		},
	}
	if r.SeriesByName("a").Last() != 20 {
		t.Fatal("Last")
	}
	if r.SeriesByName("zzz").Name != "zzz" {
		t.Fatal("missing series fallback")
	}
	// b's final 4 vs best-other 20 → improvement 5×.
	if got := r.Improvement("b"); got != 5 {
		t.Fatalf("Improvement = %g", got)
	}
	if (Series{}).Last() != 0 {
		t.Fatal("empty Last")
	}
	if (Result{}).Improvement("a") != 0 {
		t.Fatal("empty Improvement")
	}
	var sb strings.Builder
	if err := r.WriteTable(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"# x", "a", "b", "20", "4"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

func TestLookup(t *testing.T) {
	if _, err := Lookup("fig3"); err != nil {
		t.Fatal(err)
	}
	if _, err := Lookup("nope"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	seen := map[string]bool{}
	for _, e := range Experiments {
		if e.Name == "" || e.Paper == "" || e.Run == nil {
			t.Fatalf("malformed experiment %+v", e)
		}
		if seen[e.Name] {
			t.Fatalf("duplicate experiment %q", e.Name)
		}
		seen[e.Name] = true
	}
}

func TestEnvDefaultsMatchPaper(t *testing.T) {
	sc := tiny()
	covid, err := NewCovidEnv(sc, 1)
	if err != nil {
		t.Fatal(err)
	}
	if covid.Alpha != 0.05 || covid.Beta != 0.001 || covid.EpsG != 10 {
		t.Fatal("covid accuracy defaults")
	}
	if covid.C0 != 100 || covid.S0 != 5 || covid.Tau != 0.05 {
		t.Fatal("covid §6.1 defaults")
	}
	if covid.PC0 != 50 || covid.PS0 != 1 {
		t.Fatal("covid §6.3 partitioned defaults")
	}
	cb, err := NewCitiBikeEnv(sc, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if cb.C0 != 5 || cb.S0 != 1 || cb.Tau != 0.01 || cb.LRStart != 0.5 {
		t.Fatal("citibike §6.1 defaults")
	}
}

// The paper-shape checks below read the golden record (small scale),
// which TestPaperGolden pins to what the experiments produce.

func TestFig3ShapeTiny(t *testing.T) {
	// The core qualitative claim at any scale: PMW-Bypass ends below both
	// direct Laplace and vanilla PMW, and vanilla PMW is the worst early.
	r := golden(t, "fig3")
	bypass := r.SeriesByName("pmw-bypass").Last()
	lap := r.SeriesByName("laplace").Last()
	vanilla := r.SeriesByName("pmw").Last()
	if bypass >= lap {
		t.Fatalf("pmw-bypass %g not below laplace %g", bypass, lap)
	}
	if bypass >= vanilla {
		t.Fatalf("pmw-bypass %g not below vanilla pmw %g", bypass, vanilla)
	}
	early := r.SeriesByName("pmw").Points[1].Y
	earlyByp := r.SeriesByName("pmw-bypass").Points[1].Y
	if early <= earlyByp {
		t.Fatalf("vanilla pmw early spend %g not above bypass %g", early, earlyByp)
	}
}

func TestFig8aShapeTiny(t *testing.T) {
	if imp := golden(t, "fig8a").Improvement("turbo"); imp <= 1 {
		t.Fatalf("turbo improvement = %g, want > 1", imp)
	}
}

func TestFig10aShapeTiny(t *testing.T) {
	if imp := golden(t, "fig10a").Improvement("turbo"); imp <= 1 {
		t.Fatalf("turbo improvement = %g, want > 1", imp)
	}
}

func TestFig11aShapeTiny(t *testing.T) {
	r := golden(t, "fig11a")
	warm := r.SeriesByName("turbo-warm").Last()
	cold := r.SeriesByName("turbo-cold").Last()
	ec := r.SeriesByName("exact-cache").Last()
	if warm > ec {
		t.Fatalf("turbo-warm %g above exact-cache %g", warm, ec)
	}
	if warm > cold*1.1 {
		t.Fatalf("warm-start %g notably worse than cold %g", warm, cold)
	}
}

func TestFig11dRuns(t *testing.T) {
	sc := tiny()
	sc.Queries = 800
	r, err := Fig11d(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 2 {
		t.Fatalf("series = %d", len(r.Series))
	}
	for _, s := range r.Series {
		if len(s.Points) == 0 {
			t.Fatalf("no runtime points for %s", s.Name)
		}
	}
}

func TestMemoryRuns(t *testing.T) {
	pts := golden(t, "mem").Series[0].Points
	if len(pts) != 2 || pts[0].Y <= 0 || pts[1].Y <= 0 {
		t.Fatalf("memory points = %v", pts)
	}
	// CitiBike (N=1200) must dominate Covid (N=128) as §6.5 reports.
	if pts[1].Y <= pts[0].Y {
		t.Fatalf("citibike memory %g not above covid %g", pts[1].Y, pts[0].Y)
	}
}

func TestAppendixCRuns(t *testing.T) {
	r := golden(t, "appc")
	an := r.SeriesByName("analytic-crossover").Points
	if len(an) != 3 {
		t.Fatal("analytic series incomplete")
	}
	// |X|=128 → ≈146; crossover grows with domain size.
	if an[0].Y < 120 || an[0].Y > 170 {
		t.Fatalf("crossover for 128 = %g, want ≈146", an[0].Y)
	}
	if !(an[0].Y < an[1].Y && an[1].Y < an[2].Y) {
		t.Fatal("crossover not increasing in |X|")
	}
	sim := r.SeriesByName("simulated-crossover-n128").Points
	if len(sim) != 1 || sim[0].Y <= 0 {
		t.Fatalf("simulation did not find a crossover: %v", sim)
	}
}
