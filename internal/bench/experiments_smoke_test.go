package bench

import "testing"

// Every registered experiment produces named, non-empty series of finite,
// non-negative values: the golden's experiments as recorded, the
// wall-clock ones by running them at tiny scale.
func TestAllExperimentsRunAtTinyScale(t *testing.T) {
	sc := tiny()
	sc.Queries = 2500
	sc.PartitionedQueries = 600
	for _, e := range Experiments {
		t.Run(e.Name, func(t *testing.T) {
			if !wallClock[e.Name] {
				checkSeries(t, golden(t, e.Name))
				return
			}
			res, err := e.Run(sc)
			if err != nil {
				t.Fatalf("%s: %v", e.Name, err)
			}
			if res.Name == "" {
				t.Fatalf("%s: unnamed result", e.Name)
			}
			checkSeries(t, res)
		})
	}
}

func checkSeries(t *testing.T, res Result) {
	t.Helper()
	if len(res.Series) == 0 {
		t.Fatalf("%s: empty result", res.Name)
	}
	for _, s := range res.Series {
		if s.Name == "" {
			t.Fatalf("%s: unnamed series", res.Name)
		}
		if len(s.Points) == 0 {
			t.Fatalf("%s: series %s has no points", res.Name, s.Name)
		}
		for _, p := range s.Points {
			if p.Y != p.Y || p.Y < 0 {
				t.Fatalf("%s/%s: bad point %+v", res.Name, s.Name, p)
			}
		}
	}
}

// TestGoldenCoversRegistry: every registered experiment is either in the
// golden record or on the wall-clock list, never both, and each of those
// names a registered experiment.
func TestGoldenCoversRegistry(t *testing.T) {
	inGolden := map[string]bool{}
	for _, rec := range readGolden(t) {
		inGolden[rec.Experiment] = true
	}
	registered := map[string]bool{}
	for _, e := range Experiments {
		registered[e.Name] = true
		if inGolden[e.Name] == wallClock[e.Name] {
			t.Errorf("%s: in golden %v, wall-clock %v; want exactly one", e.Name, inGolden[e.Name], wallClock[e.Name])
		}
	}
	for _, names := range []map[string]bool{inGolden, wallClock} {
		for name := range names {
			if !registered[name] {
				t.Errorf("%s: not a registered experiment", name)
			}
		}
	}
}

// TestCheckpointsOutnumberQueries runs every experiment that samples a
// curve at checkpoints — those whose golden x axis is "queries" — on
// fewer queries than checkpoints, and fewer than ten: the sampling
// interval clamps to one query, so every query is a checkpoint.
func TestCheckpointsOutnumberQueries(t *testing.T) {
	sc := tiny()
	sc.Queries, sc.PartitionedQueries = 5, 5
	for _, rec := range readGolden(t) {
		if rec.XLabel != "queries" {
			continue
		}
		t.Run(rec.Experiment, func(t *testing.T) {
			e, err := Lookup(rec.Experiment)
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range res.Series {
				if len(s.Points) != 5 || s.Last() < 0 || s.Points[4].X != 5 {
					t.Fatalf("%s: points %v, want one per query", s.Name, s.Points)
				}
			}
		})
	}
}
