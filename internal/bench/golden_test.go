package bench

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"testing"
)

// update regenerates the golden paper record from this build's output. A
// change that means to move a curve reruns with it and says why; a
// refactor that does not mean to must pass without it.
var update = flag.Bool("update", false, "rewrite "+goldenPath+" from this build's output")

// goldenPath is every deterministic experiment's output at ScaleSmall.
const goldenPath = "testdata/paper_small.json"

// wallClock names the experiments the golden leaves out: their series are
// timings, throughputs, heap sizes or allocation counts, which no two runs
// repeat.
var wallClock = map[string]bool{
	"fig11d": true, "misspath": true, "batch": true,
}

// TestPaperGolden reruns every deterministic experiment at ScaleSmall and
// compares it with the golden record bit for bit, failing on the first
// point that differs.
func TestPaperGolden(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation multiplies the experiments' run time; the golden is compared in non-race builds")
	}
	if runtime.GOARCH != "amd64" {
		t.Skip("the golden's float bits are amd64's; other ports may fuse multiply-adds")
	}
	var want []Record
	if !*update {
		want = readGolden(t)
	}
	var got []Record
	for _, e := range Experiments {
		if wallClock[e.Name] {
			continue
		}
		res, err := e.Run(ScaleSmall)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		rec := res.Record(e, ScaleSmall)
		if !*update {
			if len(got) == len(want) {
				t.Fatalf("%s: no record in %s", e.Name, goldenPath)
			}
			if err := sameRecord(want[len(got)], rec); err != nil {
				t.Fatal(err)
			}
		}
		got = append(got, rec)
	}
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if len(got) != len(want) {
		t.Fatalf("%s holds %d records, the registry %d deterministic experiments", goldenPath, len(want), len(got))
	}
}

// sameRecord reports the first difference between two records, naming
// experiment / series / x.
func sameRecord(want, got Record) error {
	id := want.Experiment
	switch {
	case got.Experiment != want.Experiment:
		return fmt.Errorf("experiment %q, want %q", got.Experiment, want.Experiment)
	case got.Paper != want.Paper || got.Scale != want.Scale:
		return fmt.Errorf("%s: paper/scale %q/%q, want %q/%q", id, got.Paper, got.Scale, want.Paper, want.Scale)
	case got.XLabel != want.XLabel || got.YLabel != want.YLabel:
		return fmt.Errorf("%s: labels %q/%q, want %q/%q", id, got.XLabel, got.YLabel, want.XLabel, want.YLabel)
	case !slices.Equal(got.Notes, want.Notes):
		return fmt.Errorf("%s: notes %q, want %q", id, got.Notes, want.Notes)
	case len(got.Series) != len(want.Series):
		return fmt.Errorf("%s: %d series, want %d", id, len(got.Series), len(want.Series))
	}
	for i, ws := range want.Series {
		gs := got.Series[i]
		if gs.Name != ws.Name {
			return fmt.Errorf("%s: series %d is %q, want %q", id, i, gs.Name, ws.Name)
		}
		for j, wp := range ws.Points {
			if j == len(gs.Points) {
				return fmt.Errorf("%s / %s / x=%g: point missing", id, ws.Name, wp.X)
			}
			gp := gs.Points[j]
			if math.Float64bits(gp.X) != math.Float64bits(wp.X) {
				return fmt.Errorf("%s / %s / point %d: x=%g, want x=%g", id, ws.Name, j, gp.X, wp.X)
			}
			if math.Float64bits(gp.Y) != math.Float64bits(wp.Y) {
				return fmt.Errorf("%s / %s / x=%g: y=%v, want %v", id, ws.Name, wp.X, gp.Y, wp.Y)
			}
		}
		if len(gs.Points) > len(ws.Points) {
			return fmt.Errorf("%s / %s / x=%g: extra point", id, ws.Name, gs.Points[len(ws.Points)].X)
		}
	}
	return nil
}

// readGolden parses the golden paper record.
func readGolden(t *testing.T) []Record {
	t.Helper()
	recs, err := ReadRecords(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// golden returns experiment name's golden record as a Result, so shape
// assertions read the committed small-scale output instead of rerunning.
func golden(t *testing.T, name string) Result {
	t.Helper()
	for _, rec := range readGolden(t) {
		if rec.Experiment == name {
			return Result{Name: name, XLabel: rec.XLabel, YLabel: rec.YLabel, Series: rec.Series, Notes: rec.Notes}
		}
	}
	t.Fatalf("%s: no record in %s", name, goldenPath)
	return Result{}
}
