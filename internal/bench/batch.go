// The batch-plane microbenchmark (-exp=batch): cost of answering the
// same zipf-shared workload through core.AnswerBatch at batch sizes
// 1/4/16/64. Zipf sharing means a 64-query batch repeats hot predicates,
// so the batch plane's amortizations — one planner memo, one exact probe
// per distinct group, one admission round per accountant, one warm pass —
// all have material work to share. Three metrics per batch size:
//
//   - answers/sec over the steady-state (warmed) workload;
//   - admission lock acquisitions per query over a cold pass, counted by
//     the accountants themselves (Session.AdmissionLockAcquisitions);
//   - allocs per query over the steady-state workload.
//
// The plain Answer path is reported alongside as the singleton-*
// reference series. The experiment doubles as the batch-plane regression
// gate CI runs, mirroring the -exp=misspath gate: it FAILS if batch=64
// takes as many admission lock acquisitions per query as batch-1, or if
// batch=64 allocates more per query than batch-1. Both are counts, and
// repeat exactly; the speedup-vs-batch1 series is reported, not gated — a
// throughput ratio on a shared VM is a measurement, not an assertion, and
// this experiment runs inside go test. (Plain Answer is not
// the allocation comparator: its hit path allocates zero — enforced by
// -exp=misspath — while AnswerBatch must at minimum allocate its result
// slice; the gate pins the amortization, batch-64 vs batch-1.)

package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/tree"
	"repro/internal/workload"
)

// DefaultBatchSizes is the batch-size ladder the experiment climbs.
var DefaultBatchSizes = []int{1, 4, 16, 64}

// batchDistinct is the distinct (predicate, window) pool size the zipf
// stream draws from; small enough that a 64-query batch repeats hot
// queries, large enough that the cold pass has real admission traffic.
const batchDistinct = 128

// batchStream is the sampled stream length; divisible by every ladder
// size so batches tile it exactly.
const batchStream = 6144

// batchSession builds the partitioned session the batch study drives. A
// generous global budget keeps the cold pass from exhausting mid-stream.
func batchSession(env *Env) (*core.Session, error) {
	return core.NewSession(core.Config{
		Mode:  core.Partitioned,
		Alpha: env.Alpha, Beta: env.Beta, EpsilonGlobal: 1000,
		Tau:       env.Tau,
		Structure: tree.Binary,
		Seed:      173,
	}, env.DS)
}

// batchArm is one batch size's measurements over the stream: a cold
// pass on a fresh session for the lock metric, then steady-state
// throughput and allocations. size 0 means the plain singleton Answer
// path.
type batchArm struct {
	size                               int
	qps, locksPerQuery, allocsPerQuery float64
	op                                 func() error // one steady-state call (size answers; 1 for size 0)
}

// newBatchArm builds the arm's session and runs its cold pass — the
// whole stream once, counting admission-relevant lock acquisitions
// (admissions and payments both; metric reads are not counted — see
// accountant/batch.go). The warmed op closure it leaves behind is what
// the interleaved steady-state phases drive.
func newBatchArm(env *Env, stream []*query.Query, size int) (*batchArm, error) {
	sess, err := batchSession(env)
	if err != nil {
		return nil, err
	}
	arm := &batchArm{size: size}
	if size == 0 {
		j := 0
		arm.op = func() error {
			_, err := sess.Answer(stream[j])
			j = (j + 1) % len(stream)
			return err
		}
	} else {
		i := 0
		arm.op = func() error {
			res := sess.AnswerBatch(stream[i : i+size])
			i = (i + size) % len(stream)
			for _, r := range res {
				if r.Err != nil {
					return r.Err
				}
			}
			return nil
		}
	}
	locks0 := sess.AdmissionLockAcquisitions()
	calls := len(stream)
	if size > 0 {
		calls = len(stream) / size
	}
	for c := 0; c < calls; c++ {
		if err := arm.op(); err != nil {
			return nil, err
		}
	}
	arm.locksPerQuery = float64(sess.AdmissionLockAcquisitions()-locks0) / float64(len(stream))
	return arm, nil
}

// measureBatchArms runs the steady-state phase over all arms at once:
// every query is in every arm's exact cache, so the measured cost is
// the per-query pipeline overhead the batch plane amortizes.
// Throughput reps are interleaved round-robin across the arms and each
// arm keeps its best rep — machine drift over the measurement window
// (GC cycles, noisy neighbours) then lands on every arm instead of
// skewing whichever arm happened to run last, and a single rep is too
// short (a few ms at large sizes) for one GC pause not to matter.
func measureBatchArms(arms []*batchArm) error {
	const steadyAnswers = 96_000
	const allocAnswers = 12_000
	const batchReps = 7
	for r := 0; r < batchReps; r++ {
		for _, arm := range arms {
			perCall := arm.size
			if perCall == 0 {
				perCall = 1
			}
			callsPerSec, err := opsPerSec(steadyAnswers/perCall, arm.op)
			if err != nil {
				return err
			}
			if v := callsPerSec * float64(perCall); v > arm.qps {
				arm.qps = v
			}
		}
	}
	for _, arm := range arms {
		perCall := arm.size
		if perCall == 0 {
			perCall = 1
		}
		allocsPerCall, err := allocsPerOp(allocAnswers/perCall, arm.op)
		if err != nil {
			return err
		}
		arm.allocsPerQuery = allocsPerCall / float64(perCall)
	}
	return nil
}

// Batch is the batch-plane experiment. X is the batch size; the series
// are answers/sec, admission lock acquisitions per query (cold pass),
// allocs per query (steady state), and throughput speedup over batch-1,
// plus single-point singleton-* reference series for the plain Answer
// path.
func Batch(sc Scale) (Result, error) {
	env, err := NewCovidEnv(sc, 173)
	if err != nil {
		return Result{}, err
	}
	pool, err := env.windowed(batchDistinct, 0)
	if err != nil {
		return Result{}, err
	}
	z, err := workload.NewZipf(pool, 1.5, env.Rng.Fork())
	if err != nil {
		return Result{}, err
	}
	stream := z.SampleN(batchStream)

	// Build every arm (fresh session + cold pass) first, then measure
	// their steady states interleaved; the singleton Answer reference is
	// the size-0 arm.
	var arms []*batchArm
	for _, size := range append([]int{0}, DefaultBatchSizes...) {
		arm, err := newBatchArm(env, stream, size)
		if err != nil {
			return Result{}, fmt.Errorf("batch size %d: %w", size, err)
		}
		arms = append(arms, arm)
	}
	if err := measureBatchArms(arms); err != nil {
		return Result{}, err
	}
	single, bySize := arms[0], map[int]*batchArm{}
	for _, arm := range arms[1:] {
		bySize[arm.size] = arm
	}

	var qps, locks, allocs, speedup Series
	qps.Name, locks.Name, allocs.Name = "answers-per-sec", "admission-lock-acq-per-query", "allocs-per-query"
	speedup.Name = "speedup-vs-batch1"
	base := bySize[DefaultBatchSizes[0]]
	for _, size := range DefaultBatchSizes {
		arm, x := bySize[size], float64(size)
		qps.Points = append(qps.Points, Point{X: x, Y: arm.qps})
		locks.Points = append(locks.Points, Point{X: x, Y: arm.locksPerQuery})
		allocs.Points = append(allocs.Points, Point{X: x, Y: arm.allocsPerQuery})
		speedup.Points = append(speedup.Points, Point{X: x, Y: arm.qps / base.qps})
	}
	ref := func(name string, y float64) Series {
		return Series{Name: name, Points: []Point{{X: 1, Y: y}}}
	}

	// The regression gates (mirroring -exp=misspath): the largest batch
	// must amortize, not just keep up.
	last := DefaultBatchSizes[len(DefaultBatchSizes)-1]
	big := bySize[last]
	if big.locksPerQuery >= base.locksPerQuery {
		return Result{}, fmt.Errorf(
			"bench: batch=%d admission lock acquisitions/query %.4f not below batch-1 %.4f (regression)",
			last, big.locksPerQuery, base.locksPerQuery)
	}
	if big.allocsPerQuery > base.allocsPerQuery {
		return Result{}, fmt.Errorf(
			"bench: batch=%d allocs/query %.2f exceeds the batch-1 singleton baseline %.2f (regression)",
			last, big.allocsPerQuery, base.allocsPerQuery)
	}

	return Result{
		Name:   "batch-plane",
		XLabel: "batch size",
		YLabel: "answers/sec, lock-acq/query, allocs/query",
		Series: []Series{qps, locks, allocs, speedup,
			ref("singleton-qps", single.qps),
			ref("singleton-lock-acq-per-query", single.locksPerQuery),
			ref("singleton-allocs-per-query", single.allocsPerQuery)},
		Notes: []string{
			fmt.Sprintf("Covid, %d distinct windowed queries, zipf(1.5)-shared stream of %d; fresh session per arm",
				batchDistinct, batchStream),
			"lock-acq/query counted over the cold pass (admissions + payments); qps and allocs over the warmed steady state",
			"gates: batch-64 must be below batch-1 in lock acquisitions/query and at or below it in allocs/query; speedup-vs-batch1 is reported, not gated",
		},
	}, nil
}
