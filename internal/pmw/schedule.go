// Learning-rate schedules for PMW-Bypass (§4.3 "Learning rate").
//
// Prior PMW work hard-codes lr = α/8 for worst-case convergence; Turbo
// shows empirically that much larger rates converge faster, and uses a
// scheduler that starts high and decays as the histogram converges (the
// paper's Covid configuration starts at 0.25 and decays to 0.025).

package pmw

import (
	"fmt"
	"math"
)

// Schedule maps the number of purposeful updates applied so far to the
// learning rate of the next update.
type Schedule interface {
	// LR returns the step size for the update numbered updates (0-based).
	LR(updates int) float64
	// String describes the schedule for experiment output.
	String() string
}

// Constant is a fixed learning rate, as in the theoretical PMW protocol.
type Constant float64

// LR implements Schedule.
func (c Constant) LR(int) float64 { return float64(c) }

// String implements Schedule.
func (c Constant) String() string { return fmt.Sprintf("const(%g)", float64(c)) }

// ExpDecay decays geometrically from Start toward End with the given
// half-life in updates: lr(u) = End + (Start−End)·2^(−u/HalfLife).
type ExpDecay struct {
	Start    float64
	End      float64
	HalfLife float64
}

// LR implements Schedule.
func (e ExpDecay) LR(updates int) float64 {
	if e.HalfLife <= 0 {
		return e.End
	}
	return e.End + (e.Start-e.End)*math.Exp2(-float64(updates)/e.HalfLife)
}

// String implements Schedule.
func (e ExpDecay) String() string {
	return fmt.Sprintf("expdecay(%g->%g,hl=%g)", e.Start, e.End, e.HalfLife)
}

// TheoreticalLR returns α/8, the learning rate PMW theory fixes for
// worst-case convergence [58]; Fig. 8(d) shows empirical convergence is
// much faster at larger rates.
func TheoreticalLR(alpha float64) float64 { return alpha / 8 }
