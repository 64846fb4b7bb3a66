// Test-only accessors: methods no production code calls, kept for the
// package's own tests.

package workload

// PoolSize returns the number of distinct queries.
func (z *Zipf) PoolSize() int { return len(z.pool) }
