// -aa K: the A/A evidence. K sets of every workload on one binary, each
// set with its own seed, the workload order alternating between sets. A
// metric passes when its interquartile spread, as a share of its median,
// stays within its bound, and when the second half's median is no worse
// than the first half's by more than the bound.

package main

import (
	"fmt"
	"math"
	"os"
)

// worseBy returns by what share of a the value b is worse than a.
func worseBy(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

func runAA(cfg runConfig, k int) bool {
	values := map[string]map[string][]float64{} // workload → metric → one value per set
	for set := 0; set < k; set++ {
		order := append([]*spec(nil), specs...)
		if set%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, s := range order {
			c := cfg
			c.seed = cfg.seed + uint64(set)
			res, err := runOnce(c, s, false)
			if err != nil {
				fatal(fmt.Errorf("%s (set %d): %w", s.name, set, err))
			}
			if len(res.violations) > 0 || res.failed > 0 {
				emit(res, endToEnd)
				return false
			}
			if values[s.name] == nil {
				values[s.name] = map[string][]float64{}
			}
			for _, d := range allMetrics() {
				if v, ok := res.metrics[d.Name]; ok {
					values[s.name][d.Name] = append(values[s.name][d.Name], v)
				}
			}
			fmt.Fprintf(os.Stderr, "aa: set %d/%d %s done\n", set+1, k, s.name)
		}
	}

	pass := true
	fmt.Printf("%-11s %-26s %12s %12s %12s %8s %8s %7s  %s\n",
		"workload", "metric", "q1", "median", "q3", "spread", "drift", "bound", "verdict")
	for _, s := range specs {
		for _, d := range allMetrics() {
			vs := values[s.name][d.Name]
			q1, med, q3 := quartiles(vs)
			if q1 == 0 && q3 == 0 {
				continue // not measured, or does not apply to this workload
			}
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / math.Abs(med)
			}
			_, first, _ := quartiles(vs[:len(vs)/2])
			_, second, _ := quartiles(vs[len(vs)/2:])
			drift := worseBy(d, first, second)
			verdict := "ungated"
			if d.Bound > 0 {
				verdict = "pass"
				if spread > d.Bound || (len(vs) >= 4 && drift > d.Bound) {
					verdict = "FAIL"
					pass = false
				}
			}
			fmt.Printf("%-11s %-26s %12.6g %12.6g %12.6g %8.4f %8.4f %7.3f  %s\n",
				s.name, d.Name, q1, med, q3, spread, drift, d.Bound, verdict)
		}
	}
	return pass
}
