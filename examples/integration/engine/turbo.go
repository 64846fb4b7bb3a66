// The Turbo adapter: adds Turbo caching to the engine the way
// turbo-tumult adds it to Tumult (§5) — a new session type that routes
// supported linear queries through turbo-lib, implementing the Turbo API
// (Fig. 7b) over the engine's measurement primitives, and fails over to
// plain engine evaluation for everything else.

package engine

import (
	"errors"
	"fmt"

	"repro/internal/heuristic"
	"repro/internal/noise"
	"repro/internal/pmw"
	"repro/internal/query"
)

// TurboSession wraps an engine Session with a PMW-Bypass cache. Analysts
// keep the same Evaluate interface; supported queries may be answered
// from the histogram for free, and unsupported ones transparently fall
// back to the engine ("fail-to-Tumult", §5).
type TurboSession struct {
	inner *Session
	cache *pmw.PMW

	// Supported reports whether a query can take the Turbo path;
	// overridable for tests. The default accepts every whole-store
	// linear query (the non-partitioned turbo-lib scope of §5).
	Supported func(q *query.Query) bool

	turboAnswered int
	failedOver    int
}

// enginePayer implements pmw.Payer by submitting consume-only
// measurements — the engine's accountant stays the single source of truth
// for the global guarantee.
type enginePayer struct {
	core *Core
	eps  float64
}

func (p enginePayer) PayLaplace() error {
	_, err := p.core.Evaluate(consumeOnly{eps: p.eps})
	return err
}

func (p enginePayer) PaySVInit() error {
	_, err := p.core.Evaluate(consumeOnly{eps: 3 * p.eps})
	return err
}

func (p enginePayer) HasBudget() bool { return p.core.Remaining() > 0 }

// engineExecutor implements pmw.Executor over the engine's measurements:
// True runs the zero-cost non-private measurement; DP runs noise-only
// with zero *extra* accounting because the PMW already paid through the
// payer (mirroring how turbo-tumult splits payment from execution).
type engineExecutor struct {
	core *Core
}

func (e engineExecutor) True(q *query.Query) (float64, error) {
	return e.core.Evaluate(npCount{q: q})
}

func (e engineExecutor) DP(q *query.Query, eps float64, trueResult float64) (float64, error) {
	if trueResult != trueResult { // NaN: the bypass branch has no truth yet
		var err error
		trueResult, err = e.core.Evaluate(npCount{q: q})
		if err != nil {
			return 0, err
		}
	}
	// The PMW paid `eps` already via the payer, so the noise-only
	// measurement is submitted at zero reported cost.
	return noiseOnly{q: q, eps: eps, trueResult: trueResult}.Evaluate(e.core.ds, e.core.rng)
}

// NewTurboSession attaches Turbo to an engine session. Heuristic and lr
// may be nil for the package defaults.
func NewTurboSession(inner *Session, heur heuristic.Heuristic, lr pmw.Schedule, tau float64, seed uint64) (*TurboSession, error) {
	if inner == nil {
		return nil, errors.New("engine: nil inner session")
	}
	n := inner.core.ds.NRowsAll()
	if n == 0 {
		return nil, errors.New("engine: empty dataset")
	}
	alpha, beta := inner.Accuracy()
	eps := noise.EpsilonForAccuracy(alpha, beta, n)
	p, err := pmw.New(pmw.Config{
		Alpha: alpha, Beta: beta, N: n,
		DomainSize: inner.core.ds.Domain().Size(),
		Tau:        tau, LR: lr, Heuristic: heur,
	},
		engineExecutor{core: inner.core},
		enginePayer{core: inner.core, eps: eps},
		noise.NewRng(seed))
	if err != nil {
		return nil, fmt.Errorf("engine: wiring turbo: %w", err)
	}
	ts := &TurboSession{inner: inner, cache: p}
	ts.Supported = func(q *query.Query) bool {
		_, _, windowed := q.Window()
		return !windowed // turbo-lib scope: whole-store linear queries
	}
	return ts, nil
}

// Evaluate answers q through Turbo when supported, otherwise through the
// plain engine path. The analyst-visible contract is unchanged.
func (t *TurboSession) Evaluate(q *query.Query) (float64, error) {
	if !t.Supported(q) {
		t.failedOver++
		return t.inner.Evaluate(q)
	}
	res, err := t.cache.Run(q)
	if err != nil {
		return 0, err
	}
	t.turboAnswered++
	return res.Value, nil
}

// Stats reports how many queries took each route.
func (t *TurboSession) Stats() (turbo, failedOver int) { return t.turboAnswered, t.failedOver }

// PMW exposes the underlying cache for inspection.
func (t *TurboSession) PMW() *pmw.PMW { return t.cache }
