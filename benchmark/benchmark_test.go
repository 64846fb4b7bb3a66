package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// sequenceBytes concatenates the warm-up's and the timed sequence's
// requests in order.
func (w *generated) sequenceBytes() []byte {
	var out []byte
	for _, id := range append(append([]int32(nil), w.warm...), w.seq...) {
		out = append(out, w.reqs[id].raw...)
	}
	return out
}

func TestSameSeedSameSequence(t *testing.T) {
	const ckpt = 150
	for _, s := range specs {
		a, err := generate(s, 7, 0.005, ckpt)
		if err != nil {
			t.Fatal(err)
		}
		b, err := generate(s, 7, 0.005, ckpt)
		if err != nil {
			t.Fatal(err)
		}
		c, err := generate(s, 8, 0.005, ckpt)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.seq) <= ckpt {
			t.Fatalf("%s: sequence of %d does not pass the checkpoint", s.name, len(a.seq))
		}
		if !bytes.Equal(a.sequenceBytes(), b.sequenceBytes()) {
			t.Errorf("%s: seed 7 gave two different request sequences", s.name)
		}
		if bytes.Equal(a.sequenceBytes(), c.sequenceBytes()) {
			t.Errorf("%s: seeds 7 and 8 gave the same request sequence", s.name)
		}
		// Whatever the seed, the same requests have been sent by the
		// checkpoint: that is what makes the budget readings comparable.
		sent := func(w *generated) map[string]int {
			n := map[string]int{}
			for _, id := range w.seq[:ckpt] {
				n[string(w.reqs[id].raw)]++
			}
			return n
		}
		if !reflect.DeepEqual(sent(a), sent(c)) {
			t.Errorf("%s: seeds 7 and 8 send different requests before the checkpoint", s.name)
		}
	}
}

// miss_tree's point is that no (predicate, window) pair repeats.
func TestMissTreeNeverRepeats(t *testing.T) {
	w, err := generate(specByName("miss_tree"), 3, 0.02, 100)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, id := range w.seq {
		key := w.stmts[w.reqs[id].expect[0]].q.KeyWithWindow()
		if seen[key] {
			t.Fatalf("pair %s repeats", key)
		}
		seen[key] = true
	}
}

// stream_mix windows must only reach partitions whose append sits at
// least appendLag requests earlier in the sequence.
func TestStreamMixWindowsTrailAppends(t *testing.T) {
	w, err := generate(specByName("stream_mix"), 3, 0.02, 1234)
	if err != nil {
		t.Fatal(err)
	}
	parts, appends := w.baseParts, 0
	for i, id := range w.seq {
		r := w.reqs[id]
		if r.op == opAppend {
			if r.needParts != parts {
				t.Fatalf("append at %d expects %d partitions, sequence has placed %d", i, r.needParts, parts)
			}
			parts++
			appends++
			continue
		}
		if r.needParts > parts {
			t.Fatalf("query at %d needs %d partitions, only %d appended so far", i, r.needParts, parts)
		}
	}
	if appends == 0 {
		t.Fatal("no appends generated")
	}
}

func TestQuantileStatesSampleCount(t *testing.T) {
	q := quantileOf([]float64{5, 1, 4, 2, 3}, 0.5)
	if q.Value != 3 || q.N != 5 {
		t.Errorf("median of 1..5 = %v", q)
	}
	if got := quantileOf([]float64{0, 10}, 0.25); got.Value != 2.5 || got.N != 2 {
		t.Errorf("p25 of {0,10} = %v", got)
	}
	if got := quantileOf(nil, 0.99); got.N != 0 || got.Value != 0 {
		t.Errorf("empty quantile = %v", got)
	}
}

// quartiles must agree with Python's statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, med, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	q1, med, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || med != 2 || q3 != 3 {
		t.Errorf("quartiles(1..3) = %v %v %v, want 1 2 3", q1, med, q3)
	}
}

func TestParseProcStat(t *testing.T) {
	got, err := parseProcStat("cpu  100 5 50 800 10 0 5 30 7 0\ncpu0 1 2 3\n")
	if want := (cpuTicks{total: 1000, steal: 30, hasSteal: true}); err != nil || got != want {
		t.Errorf("with steal: %+v, %v; want %+v", got, err, want)
	}
	got, err = parseProcStat("cpu  100 5 50 800 10 0 5\n")
	if want := (cpuTicks{total: 970}); err != nil || got != want {
		t.Errorf("no steal column: %+v, %v; want %+v", got, err, want)
	}
	if _, err := parseProcStat("intr 1 2 3\n"); err == nil {
		t.Error("a file without a cpu line parsed")
	}
}

func TestQuietSliceSelection(t *testing.T) {
	ms := time.Millisecond
	// Four slices of 20 ticks: 0, 1 (5%), 2 (10%) and 0 stolen.
	samples := []cpuSample{
		{at: 0, cpuTicks: cpuTicks{total: 1000, steal: 50, hasSteal: true}, srvRunNs: 0},
		{at: 100 * ms, cpuTicks: cpuTicks{total: 1020, steal: 50, hasSteal: true}, srvRunNs: 10},
		{at: 200 * ms, cpuTicks: cpuTicks{total: 1040, steal: 51, hasSteal: true}, srvRunNs: 30},
		{at: 300 * ms, cpuTicks: cpuTicks{total: 1060, steal: 53, hasSteal: true}, srvRunNs: 60},
		{at: 400 * ms, cpuTicks: cpuTicks{total: 1080, steal: 53, hasSteal: true}, srvRunNs: 100},
	}
	tl := &timeline{slices: slicesFrom(samples)}
	want := []bool{true, true, false, true}
	for i, s := range tl.slices {
		if s.quiet != want[i] {
			t.Errorf("slice %d: quiet=%v, want %v (steal %.2f)", i, s.quiet, want[i], s.stealFrac)
		}
	}
	cases := []struct {
		start, end time.Duration
		want       bool
	}{
		{10 * ms, 90 * ms, true},    // inside one quiet slice
		{90 * ms, 150 * ms, true},   // spans two quiet slices
		{190 * ms, 210 * ms, false}, // ends in the noisy slice
		{250 * ms, 260 * ms, false}, // inside the noisy slice
		{290 * ms, 310 * ms, false}, // starts in the noisy slice
		{310 * ms, 390 * ms, true},
		{390 * ms, 410 * ms, false}, // runs past the last sample
	}
	for _, c := range cases {
		if got := tl.covers(c.start, c.end); got != c.want {
			t.Errorf("covers(%v,%v) = %v, want %v", c.start, c.end, got, c.want)
		}
	}
	dur, run, _, quietFrac := tl.counted()
	if dur != 300*ms || run != 10+20+40 || quietFrac != 0.75 {
		t.Errorf("counted() = %v, %d, quiet %.2f; want 300ms, 70, 0.75", dur, run, quietFrac)
	}
	if tl.requireQuiet() {
		t.Error("300 ms of quiet in 400 ms fell back to every slice")
	}
	tl.slices[0].quiet, tl.slices[1].quiet, tl.slices[3].quiet = false, false, false
	if !tl.requireQuiet() || !tl.covers(250*ms, 260*ms) {
		t.Error("a run with no quiet time must fall back to every slice")
	}

	// A host whose /proc/stat has no steal column is always quiet.
	for i := range samples {
		samples[i].hasSteal = false
	}
	for i, s := range slicesFrom(samples) {
		if !s.quiet {
			t.Errorf("no steal column: slice %d is not quiet", i)
		}
	}
}

// slowTarget answers every request 200 after a fixed delay.
type slowTarget struct{ delay time.Duration }

func (t slowTarget) do(*request, int, []byte) (int, []byte, error) {
	time.Sleep(t.delay)
	return 200, nil, nil
}
func (slowTarget) close() {}

// A connection that stops because the window closed may still owe an
// append; a peer waiting at the partition gate for it must stop too.
func TestGateOpensWhenWindowCloses(t *testing.T) {
	w := &generated{reqs: []request{
		{op: opQuery}, {op: opAppend}, {op: opQuery, needParts: 1},
	}}
	// Connection 0 gets positions 0 and 2, connection 1 positions 1 and 3.
	// Its first request outlasts the window, so the append at 2 is never
	// sent, and the query at 3 waits for that partition.
	seq := []int32{0, 0, 1, 2}
	done := make(chan []*connLog, 1)
	go func() {
		done <- drive(w, seq, []target{slowTarget{50 * time.Millisecond}, slowTarget{0}},
			driveOpts{t0: time.Now(), window: 10 * time.Millisecond})
	}()
	select {
	case logs := <-done:
		if n := len(logs[0].recs) + len(logs[1].recs); n != 2 {
			t.Errorf("%d requests were sent, want 2", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("drive hangs at the partition gate")
	}
}

// setup_s adds up each stretch's fastest instance across the tries, and
// the slowest connection decides the warm-up.
func TestSetupKeepsFastestStretches(t *testing.T) {
	ms := time.Millisecond
	recs := []record{{start: 0, end: 2 * ms}, {start: 3 * ms, end: 4 * ms}}
	if got := requestTimes(recs); len(got) != 2 || got[0] != 3*ms || got[1] != ms {
		t.Errorf("requestTimes = %v, want [3ms 1ms]", got)
	}
	var fastest setupTimes
	fastest.keepFastest(setupTimes{boot: 5 * ms, warm: [][]time.Duration{{10 * ms, 30 * ms}, {9 * ms, 9 * ms}}})
	fastest.keepFastest(setupTimes{boot: 7 * ms, warm: [][]time.Duration{{25 * ms, 11 * ms}, {9 * ms, 40 * ms}}})
	if got := fastest.total(); got != 5*ms+10*ms+11*ms {
		t.Errorf("total = %v, want 26ms", got)
	}
}

func TestSelfTimes(t *testing.T) {
	us := time.Microsecond
	spans := []span{
		{name: spPipeline, parent: -1, start: 0, end: 100 * us},    // 0: root
		{name: spDecode, parent: 0, start: 5 * us, end: 15 * us},   // 1
		{name: spGroupBy, parent: 0, start: 20 * us, end: 80 * us}, // 2
		{name: spAnswer, parent: 2, start: 25 * us, end: 45 * us},  // 3
		{name: spAnswer, parent: 2, start: 40 * us, end: 70 * us},  // 4: overlaps 3 by 5
		{name: spEncode, parent: 0, start: 90 * us, end: 110 * us}, // 5: runs past its parent
		{name: spPlan, parent: -1, start: 200 * us, end: 203 * us}, // 6: a root of its own
	}
	want := []time.Duration{
		100*us - 10*us - 60*us - 10*us, // root minus decode, groupby and the inside part of encode
		10 * us,
		60*us - 45*us, // the two answers cover [25,70] once
		20 * us,
		30 * us,
		20 * us,
		3 * us,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self %v, want %v", i, spanNames[spans[i].name], got[i], want[i])
		}
	}
}

// BENCHMARK.json is what the driver reads; the tables in main.go are what
// the program prints. They must say the same thing.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d specs", len(f.Workloads), len(specs))
	}
	for i, s := range specs {
		if f.Workloads[i].Name != s.name || f.Workloads[i].Why != s.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, spec is %q", i, f.Workloads[i].Name, s.name)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in main.go", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, main.go %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", f.EndToEnd, endToEnd)
	same("per_layer", f.PerLayer, perLayer)
}

// TestSmoke runs every workload end to end at 1/200 scale against a real
// server, then one traced run, so tier-1 exercises the whole harness.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts real turbo-server processes")
	}
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	bin, _, err := buildServer(root)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stopAll)
	cfg := runConfig{root: root, bin: bin, seed: 11, seconds: 2, scale: 1.0 / 200, setups: 2}
	check := func(res *result, defs []metricDef) {
		t.Helper()
		for _, v := range res.violations {
			t.Errorf("%s: %s", res.workload, v)
		}
		if res.attempted == 0 || res.failed != 0 {
			t.Errorf("%s: attempted %d, failed %d", res.workload, res.attempted, res.failed)
		}
		for _, d := range defs {
			v, ok := res.metrics[d.Name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: metric %s missing or not finite (%v)", res.workload, d.Name, v)
			}
			if ok && d.Bound > 0 && v <= 0 {
				t.Errorf("%s: gated metric %s = %v, must never be 0", res.workload, d.Name, v)
			}
		}
	}
	for _, s := range specs {
		res, err := runE2E(cfg, s)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		check(res, endToEnd)
	}
	res, err := runTraced(cfg, specByName("stream_mix"))
	if err != nil {
		t.Fatal(err)
	}
	check(res, nil)
	for _, name := range []string{"socket.p50_us", "handler.p50_us", "sqlparser.parse_us", "stream.append_us", "persist.save_ms"} {
		if res.metrics[name] <= 0 {
			t.Errorf("traced stream_mix: %s = %v, want > 0", name, res.metrics[name])
		}
	}
	if _, err := os.Stat(filepath.Join(outDir(root), "trace-stream_mix.json")); err != nil {
		t.Error(err)
	}
}
