// Test-only accessors: methods no production code calls, kept for the
// package's own tests.

package bench

// SeriesByName returns the named series, or an empty one.
func (r Result) SeriesByName(name string) Series {
	for _, s := range r.Series {
		if s.Name == name {
			return s
		}
	}
	return Series{Name: name}
}
