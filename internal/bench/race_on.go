//go:build race

package bench

// raceEnabled: race instrumentation allocates, so the experiments'
// zero-allocation gates only hold in builds without it.
const raceEnabled = true
