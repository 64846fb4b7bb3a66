// Package store is the storage package: it implements the lease primitives
// themselves, so calling them is silent here.
package store

type Mem struct{}

func (s *Mem) SetNXLease(ns, k string, v any, ttl int64) (bool, error) { return true, nil }
func (s *Mem) CompareSwap(ns, k string, expect, next any) (bool, error) {
	return true, nil
}

type File struct{ index *Mem }

func (f *File) SetNXLease(ns, k string, v any, ttl int64) (bool, error) {
	return f.index.SetNXLease(ns, k, v, ttl)
}
