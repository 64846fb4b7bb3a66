// The single-flight stage of the query pipeline: deduplication of
// concurrent identical cache misses.
//
// Two analysts issuing the same query over the same window race each
// other between the exact-cache probe and execution; without coordination
// both would run the PMW machinery and both would pay budget, even though
// the exact cache makes the second execution free a moment later. A
// double-check under an executor lock cannot close that window for the
// tree: it releases its lock while it executes (claim → execute →
// commit), so two misses pay before either commits. The flight group
// closes it in front of both modes: every cache-missed plan is keyed by
// its exact-cache key, predicate and resolved window, the first goroutine
// in becomes the leader and executes, and concurrent duplicates wait and
// observe the leader's released answer — one execution, one budget
// payment, identical noisy values (exactly what the exact cache would
// have served them a moment later, so sharing is post-processing and
// privacy-free).
//
// The group holds only in-flight calls: the leader removes its key only
// after its fn completes — which, in the session, includes caching the
// released answer — so a duplicate that misses the map always finds the
// exact cache filled, and long-term reuse stays with the cache.
// A flight allocates nothing in steady state: the map holds the query's
// own key string only while the leader runs, and call records, latch
// included, are recycled.

package core

import (
	"errors"
	"sync"
)

// flightID is a flight's identity: the exact-cache key (KeyWithWindow).
// A served window's rows never change, so two plans of one key always
// ask the same question of the same data.
type flightID string

// flightOf returns the flight identity of a plan.
func flightOf(pl Plan) flightID {
	return flightID(pl.Query.KeyWithWindow())
}

// flightCall is one in-flight execution: a latch the duplicates wait on
// plus the leader's result. refs, guarded by the group's mutex, counts the
// leader and the joiners yet to read the result.
type flightCall struct {
	done sync.WaitGroup
	ans  Answer
	err  error
	refs int
}

// flightGroup deduplicates concurrent executions by identity. The zero
// value is ready to use.
type flightGroup struct {
	mu    sync.Mutex
	calls map[flightID]*flightCall
	// free holds call records no one reads any more, for the next leader.
	free []*flightCall
	// joins counts callers that attached to an already-in-flight call,
	// cumulatively — the group-level view of the session's Deduped.
	joins int64
}

// do executes fn once per identity among concurrent callers: the first
// caller runs it, later callers block until the leader finishes and share
// its result. shared reports whether the caller observed another flight's
// result rather than executing itself.
func (g *flightGroup) do(id flightID, fn func() (Answer, error)) (ans Answer, shared bool, err error) {
	g.mu.Lock()
	if g.calls == nil {
		g.calls = make(map[flightID]*flightCall)
	}
	if c, ok := g.calls[id]; ok {
		g.joins++
		c.refs++
		g.mu.Unlock()
		c.done.Wait()
		ans, err = c.ans, c.err
		g.release(c)
		return ans, true, err
	}
	var c *flightCall
	if n := len(g.free); n > 0 {
		c, g.free = g.free[n-1], g.free[:n-1]
	} else {
		c = new(flightCall)
	}
	c.refs = 1
	c.done.Add(1)
	g.calls[id] = c
	g.mu.Unlock()

	// The key is released and the joiners woken even if fn panics (the
	// panic still propagates): a wedged key would hang every future
	// identical query forever. Joiners of a panicked flight get an error,
	// not a zero answer.
	completed := false
	defer func() {
		if !completed {
			c.err = errors.New("core: flight leader panicked")
		}
		g.mu.Lock()
		delete(g.calls, id)
		g.mu.Unlock()
		c.done.Done()
		g.release(c)
	}()
	c.ans, c.err = fn()
	completed = true
	return c.ans, false, c.err
}

// release drops one reader of c; the last one recycles it. No joiner
// attaches once the leader has deleted c's identity.
func (g *flightGroup) release(c *flightCall) {
	g.mu.Lock()
	if c.refs--; c.refs == 0 {
		c.ans, c.err = Answer{}, nil
		g.free = append(g.free, c)
	}
	g.mu.Unlock()
}

// inFlight returns the number of identities currently executing, for
// tests and diagnostics.
func (g *flightGroup) inFlight() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.calls)
}

// joinCount returns the cumulative number of callers that shared an
// in-flight call.
func (g *flightGroup) joinCount() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.joins
}
