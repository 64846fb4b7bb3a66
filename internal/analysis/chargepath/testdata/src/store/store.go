// Package store is a fixture stub with the Backend/Mem shapes that
// chargepath keys on.
package store

type Backend interface {
	Set(k string, v float64) error
}

type Mem struct{ m map[string]float64 }

func (s *Mem) Set(k string, v float64) error {
	s.m[k] = v
	return nil
}
