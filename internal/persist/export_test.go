// Test-only accessors: methods no production code calls, kept for the
// package's own tests.

package persist

// Sections returns the registered section tags in order.
func (r *Registry) Sections() []string {
	out := make([]string, len(r.order))
	for i, s := range r.order {
		out[i] = s.SnapshotSection()
	}
	return out
}
