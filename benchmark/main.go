// Command benchmark measures what a client sees at a real turbo-server
// socket — answers per second, latency, privacy budget spent, accuracy,
// memory — and attributes the time layer by layer in a separate traced
// run. See README.md for the workload and metric dictionary.
//
//	go -C benchmark run . --workload hit_zipf --seed 1 --seconds 10 --trace 0
//	go -C benchmark run . --workload hit_zipf --seed 1 --seconds 10 --trace 1
//	go -C benchmark run . -aa 10
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"
)

// metricDef mirrors one BENCHMARK.json metric entry.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the gated metrics, reported for every workload with
// --trace 0, at the issue's bounds (setup_s at the widest the driver
// allows, as its contract asks). The other metrics the issue wanted gated
// failed A/A at their bounds and are reported as loadgen.* in perLayer:
// the wall-clock ones move 20-50% with the steal level of the minute, and
// the budget spent repeats only to 2-3% (10% for the maximum) because the
// tree's sparse-vector outcomes are random.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"within_alpha_frac", "frac", "higher", 0.005},
	{"rss_peak_mb", "MiB", "lower", 0.10},
}

// perLayer are the ungated metrics reported with --trace 1: the layer
// attribution, the client-observed wall-clock figures, and the
// measurement-validity data. A metric that does not apply to a workload
// reads 0 there. loadgen.request_* time the workload's primary request
// type: /query everywhere except dash_batch, where it is /query/batch.
var perLayer = []metricDef{
	{Name: "socket.p50_us", Unit: "us", Better: "lower"},
	{Name: "handler.p50_us", Unit: "us", Better: "lower"},
	{Name: "net.self_us", Unit: "us", Better: "lower"},
	{Name: "server.self_us", Unit: "us", Better: "lower"},
	{Name: "server.decode_us", Unit: "us", Better: "lower"},
	{Name: "server.encode_us", Unit: "us", Better: "lower"},
	{Name: "accountant.average_spent_us", Unit: "us", Better: "lower"},
	{Name: "sqlparser.parse_us", Unit: "us", Better: "lower"},
	{Name: "sqlparser.parses_per_request", Unit: "count", Better: "lower"},
	{Name: "core.plan_us", Unit: "us", Better: "lower"},
	{Name: "cache.probe_us", Unit: "us", Better: "lower"},
	{Name: "cache.exact_hit_rate", Unit: "frac", Better: "higher"},
	{Name: "cache.fast_hit_rate", Unit: "frac", Better: "higher"},
	{Name: "store.gets_per_answer", Unit: "count", Better: "lower"},
	{Name: "store.bytes", Unit: "B", Better: "lower"},
	{Name: "core.answer_hit_us", Unit: "us", Better: "lower"},
	{Name: "core.answer_miss_us", Unit: "us", Better: "lower"},
	{Name: "core.flight_deduped", Unit: "count", Better: "higher"},
	{Name: "tree.sv_pass_rate", Unit: "frac", Better: "higher"},
	{Name: "tree.laplace_subs_per_miss", Unit: "count", Better: "lower"},
	{Name: "tree.node_updates_per_miss", Unit: "count", Better: "lower"},
	{Name: "tree.node_cache_hits", Unit: "count", Better: "higher"},
	{Name: "tree.stale_skips", Unit: "count", Better: "lower"},
	{Name: "noise.calib_memo_hit_rate", Unit: "frac", Better: "higher"},
	{Name: "dataset.mask_memo_hit_rate", Unit: "frac", Better: "higher"},
	{Name: "accountant.locks_per_answer", Unit: "count", Better: "lower"},
	{Name: "core.answer_batch_us_per_stmt", Unit: "us", Better: "lower"},
	{Name: "core.batch_dedup_rate", Unit: "frac", Better: "higher"},
	{Name: "core.groupby_us_per_group", Unit: "us", Better: "lower"},
	{Name: "stream.append_us", Unit: "us", Better: "lower"},
	{Name: "stream.epochs_per_batch", Unit: "frac", Better: "lower"},
	{Name: "stream.warm_started_leaves", Unit: "count", Better: "higher"},
	{Name: "stream.shed", Unit: "count", Better: "lower"},
	{Name: "persist.save_ms", Unit: "ms", Better: "lower"},
	{Name: "persist.load_ms", Unit: "ms", Better: "lower"},
	{Name: "persist.snapshot_bytes_per_partition", Unit: "B", Better: "lower"},
	{Name: "loadgen.answers_per_s", Unit: "1/s", Better: "higher"},
	{Name: "loadgen.raw_answers_per_s", Unit: "1/s", Better: "higher"},
	{Name: "loadgen.request_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.request_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.groupby_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.append_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.append_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.cpu_us_per_answer", Unit: "us", Better: "lower"},
	{Name: "loadgen.eps_spent_avg", Unit: "eps", Better: "lower"},
	{Name: "loadgen.eps_spent_max", Unit: "eps", Better: "lower"},
	{Name: "loadgen.fail_frac", Unit: "frac", Better: "lower"},
	{Name: "loadgen.steal_frac", Unit: "frac", Better: "lower"},
	{Name: "loadgen.quiet_frac", Unit: "frac", Better: "higher"},
	{Name: "loadgen.trace_overhead_frac", Unit: "frac", Better: "lower"},
	{Name: "loadgen.layer_sum_frac", Unit: "frac", Better: "lower"},
	{Name: "loadgen.build_s", Unit: "s", Better: "lower"},
	{Name: "loadgen.conns", Unit: "count", Better: "higher"},
}

// allMetrics lists every metric the program can print.
func allMetrics() []metricDef {
	return append(append([]metricDef(nil), endToEnd...), perLayer...)
}

// measured is one metric in the final JSON line.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the final line of standard output.
type report struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

// emit prints every measured metric by name and unit, then the report
// line restricted to defs.
func emit(res *result, defs []metricDef) {
	units := map[string]string{}
	for _, d := range allMetrics() {
		units[d.Name] = d.Unit
	}
	names := make([]string, 0, len(res.metrics))
	for n := range res.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		line := fmt.Sprintf("%-14s %-38s %14.6g %s", res.workload, n, res.metrics[n], units[n])
		if c, ok := res.counts[n]; ok {
			line += fmt.Sprintf("  (n=%d)", c)
		}
		fmt.Println(line)
	}
	for _, v := range res.violations {
		fmt.Printf("%-14s CHECK FAILED: %s\n", res.workload, v)
	}
	for _, v := range res.layerTableInvalid {
		fmt.Printf("%-14s LAYER TABLE INVALID: %s\n", res.workload, v)
	}
	rep := report{
		Correct: len(res.violations) == 0 && res.failed == 0, Attempted: res.attempted, Failed: res.failed,
		Metrics: map[string]measured{},
	}
	for _, d := range defs {
		rep.Metrics[d.Name] = measured{Value: res.metrics[d.Name], Unit: d.Unit}
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fatal(err) // a NaN or Inf metric: a bug in the harness
	}
	fmt.Println(string(line))
}

// fatal stops every child and exits non-zero without a report line.
func fatal(err error) {
	stopAll()
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// runOnce runs one workload, traced or not.
func runOnce(cfg runConfig, spec *spec, trace bool) (*result, error) {
	if trace {
		return runTraced(cfg, spec)
	}
	return runE2E(cfg, spec)
}

func main() {
	var (
		workloadName = flag.String("workload", "", "hit_zipf | miss_tree | dash_batch | stream_mix (empty: all four)")
		seed         = flag.Uint64("seed", 1, "workload seed; the server always runs with -seed 42")
		seconds      = flag.Float64("seconds", 10, "length of the timed window")
		trace        = flag.Int("trace", 0, "1: traced run, reports the per-layer metrics")
		aa           = flag.Int("aa", 0, "run K alternating sets of every workload and report each metric's spread against its bound")
	)
	flag.Parse()

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		stopAll()
		os.Exit(130)
	}()
	defer stopAll()

	root, err := repoRoot()
	if err != nil {
		fatal(err)
	}
	bin, buildTook, err := buildServer(root)
	if err != nil {
		fatal(err)
	}
	cfg := runConfig{root: root, bin: bin, seed: *seed, seconds: *seconds, scale: 1, setups: maxSetups}

	if *aa > 0 {
		if !runAA(cfg, *aa) {
			stopAll()
			os.Exit(1)
		}
		return
	}

	todo := specs
	if *workloadName != "" {
		s := specByName(*workloadName)
		if s == nil {
			fatal(fmt.Errorf("unknown workload %q", *workloadName))
		}
		todo = []*spec{s}
	}
	defs := endToEnd
	if *trace != 0 {
		defs = perLayer
	}
	ok := true
	for _, s := range todo {
		res, err := runOnce(cfg, s, *trace != 0)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", s.name, err))
		}
		res.metrics["loadgen.build_s"] = buildTook.Seconds()
		emit(res, defs)
		ok = ok && len(res.violations) == 0 && res.failed == 0
	}
	if !ok {
		stopAll()
		os.Exit(1)
	}
}
