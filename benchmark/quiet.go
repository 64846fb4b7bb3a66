// Quiet-slice selection. On a shared VM the hypervisor steals CPU in
// bursts that dwarf the 0.2 ms service time, so wall-clock metrics are
// computed only over 100 ms slices whose steal share of /proc/stat ticks
// is at most maxStealFrac. A host with no steal column is always quiet.

package main

import (
	"errors"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

const (
	sliceEvery    = 100 * time.Millisecond
	maxStealFrac  = 0.05
	minQuietFloor = 2 * time.Second
)

// cpuTicks is the aggregate "cpu" line of /proc/stat, in USER_HZ ticks.
type cpuTicks struct {
	total    uint64 // every column up to and including steal
	steal    uint64
	hasSteal bool
}

// cpuSample is one reading of /proc/stat plus the server's cumulative
// on-CPU time, stamped on the run's clock.
type cpuSample struct {
	at time.Duration
	cpuTicks
	srvRunNs uint64
}

// parseProcStat reads the aggregate cpu line: user nice system idle iowait
// irq softirq [steal [guest guest_nice]]. Guest ticks are already inside
// user/nice, so they are left out of the total.
func parseProcStat(text string) (cpuTicks, error) {
	var t cpuTicks
	line, _, _ := strings.Cut(text, "\n")
	f := strings.Fields(line)
	if len(f) < 5 || f[0] != "cpu" {
		return t, errors.New("quiet: no aggregate cpu line in /proc/stat")
	}
	cols := f[1:]
	if len(cols) > 8 {
		cols = cols[:8]
	}
	for i, c := range cols {
		v, err := strconv.ParseUint(c, 10, 64)
		if err != nil {
			return cpuTicks{}, err
		}
		t.total += v
		if i == 7 {
			t.steal, t.hasSteal = v, true
		}
	}
	return t, nil
}

// readProcStat reads the machine's tick counters. An unreadable or foreign
// /proc/stat yields zeroes, which every consumer treats as "no evidence".
func readProcStat() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	t, _ := parseProcStat(string(b))
	return t
}

// slice is the interval between two consecutive samples.
type slice struct {
	start, end time.Duration
	stealFrac  float64
	quiet      bool
	srvRunNs   uint64 // server on-CPU time spent inside the slice
}

// slicesFrom turns consecutive samples into slices and marks the quiet
// ones. A slice in which no tick elapsed carries no evidence of steal and
// counts as quiet.
func slicesFrom(samples []cpuSample) []slice {
	var out []slice
	for i := 1; i < len(samples); i++ {
		a, b := samples[i-1], samples[i]
		s := slice{start: a.at, end: b.at, quiet: true, srvRunNs: b.srvRunNs - a.srvRunNs}
		if b.hasSteal && b.total > a.total {
			s.stealFrac = float64(b.steal-a.steal) / float64(b.total-a.total)
			s.quiet = s.stealFrac <= maxStealFrac
		}
		out = append(out, s)
	}
	return out
}

// timeline answers "did [start,end] fall entirely inside quiet slices?".
type timeline struct {
	slices []slice
	// useAll drops the quiet filter: the fallback when a run collected too
	// little quiet time to measure anything.
	useAll bool
}

// requireQuiet switches to every slice when the quiet ones add up to less
// than 2 s, or a quarter of a shorter run, and reports whether it did.
func (t *timeline) requireQuiet() (fellBack bool) {
	if len(t.slices) == 0 {
		return false
	}
	need := (t.slices[len(t.slices)-1].end - t.slices[0].start) / 4
	if need > minQuietFloor {
		need = minQuietFloor
	}
	quiet, _, _, _ := t.counted()
	t.useAll = quiet < need
	return t.useAll
}

// covers reports whether [start,end] lies inside the sampled range and
// touches only counted slices.
func (t *timeline) covers(start, end time.Duration) bool {
	s := t.slices
	if len(s) == 0 || start < s[0].start || end > s[len(s)-1].end {
		return false
	}
	i := sort.Search(len(s), func(i int) bool { return s[i].end > start })
	for ; i < len(s) && s[i].start <= end; i++ {
		if !s[i].quiet && !t.useAll {
			return false
		}
	}
	return true
}

// counted sums the duration and server CPU of the slices that count, and
// the overall steal share and quiet share of the sampled range.
func (t *timeline) counted() (dur time.Duration, srvRunNs uint64, stealFrac, quietFrac float64) {
	var all, quiet time.Duration
	for _, s := range t.slices {
		d := s.end - s.start
		all += d
		stealFrac += s.stealFrac * float64(d)
		if s.quiet {
			quiet += d
		}
		if s.quiet || t.useAll {
			dur += d
			srvRunNs += s.srvRunNs
		}
	}
	if all > 0 {
		stealFrac /= float64(all)
		quietFrac = float64(quiet) / float64(all)
	}
	return dur, srvRunNs, stealFrac, quietFrac
}

// sampler reads /proc/stat and the server's schedstat every sliceEvery
// until stopped.
type sampler struct {
	t0      time.Time
	srv     func() uint64 // server cumulative on-CPU ns; nil for in-process targets
	stopc   chan struct{}
	done    sync.WaitGroup
	samples []cpuSample
}

func startSampler(t0 time.Time, srv func() uint64) *sampler {
	s := &sampler{t0: t0, srv: srv, stopc: make(chan struct{})}
	s.read()
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		tick := time.NewTicker(sliceEvery)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				s.read()
			case <-s.stopc:
				return
			}
		}
	}()
	return s
}

func (s *sampler) read() {
	smp := cpuSample{cpuTicks: readProcStat()}
	if s.srv != nil {
		smp.srvRunNs = s.srv()
	}
	smp.at = time.Since(s.t0)
	s.samples = append(s.samples, smp)
}

// stop takes a final sample and returns the run's timeline.
func (s *sampler) stop() *timeline {
	close(s.stopc)
	s.done.Wait()
	s.read()
	return &timeline{slices: slicesFrom(s.samples)}
}
