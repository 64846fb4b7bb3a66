// Package snap exercises snapshotdet: Snapshotter-shaped types whose
// payload construction ranges over maps.
package snap

import (
	"persist"
	"sort"
)

// raw encodes in map-iteration order: flagged.
type raw struct{ m map[string]int }

func (r *raw) SnapshotSection() string { return "raw" }

func (r *raw) SnapshotPayload() []byte {
	var out []byte
	for k := range r.m { // want `map iteration feeds a snapshot payload without an intervening sort`
		out = append(out, k...)
	}
	return out
}

func (r *raw) StagePayload(b []byte) (func(), error) { return func() {}, nil }

// ordered collects keys, sorts, then encodes: silent.
type ordered struct{ m map[string]int }

func (o *ordered) SnapshotSection() string { return "ordered" }

func (o *ordered) SnapshotPayload() []byte {
	var keys []string
	for k := range o.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []byte
	for _, k := range keys {
		out = append(out, k...)
	}
	return out
}

func (o *ordered) StagePayload(b []byte) (func(), error) { return func() {}, nil }

// codecRaw feeds the section codec in map-iteration order: flagged.
type codecRaw struct{ m map[string]int }

func (c *codecRaw) SnapshotSection() string { return "codec-raw" }

func (c *codecRaw) SnapshotPayload() []byte {
	var e persist.Encoder
	e.PutUvarint(uint64(len(c.m)))
	for k, v := range c.m { // want `map iteration feeds a snapshot payload without an intervening sort`
		e.PutString(k)
		e.PutInt(v)
	}
	return e.Payload()
}

func (c *codecRaw) StagePayload(b []byte) (func(), error) { return func() {}, nil }

// codecSorted feeds the codec over sorted keys: silent.
type codecSorted struct{ m map[string]int }

func (c *codecSorted) SnapshotSection() string { return "codec-sorted" }

func (c *codecSorted) SnapshotPayload() []byte {
	keys := make([]string, 0, len(c.m))
	for k := range c.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var e persist.Encoder
	e.PutUvarint(uint64(len(keys)))
	for _, k := range keys {
		e.PutString(k)
		e.PutInt(c.m[k])
	}
	return e.Payload()
}

func (c *codecSorted) StagePayload(b []byte) (func(), error) { return func() {}, nil }

// nested reaches the unsorted range through a plain helper function:
// still in scope, still flagged.
type nested struct{ m map[string]int }

func (n *nested) SnapshotSection() string { return "nested" }

func (n *nested) SnapshotPayload() []byte { return dumpRaw(n.m) }

func (n *nested) StagePayload(b []byte) (func(), error) { return func() {}, nil }

func dumpRaw(m map[string]int) []byte {
	var out []byte
	for k := range m { // want `map iteration feeds a snapshot payload without an intervening sort`
		out = append(out, k...)
	}
	return out
}

// copier only fills another map inside the range — order-independent,
// silent; the encode happens over sorted keys in a helper.
type copier struct{ m map[string]int }

func (c *copier) SnapshotSection() string { return "copier" }

func (c *copier) SnapshotPayload() []byte {
	tmp := make(map[string]int, len(c.m))
	for k, v := range c.m {
		tmp[k] = v
	}
	return encodeSorted(tmp)
}

func (c *copier) StagePayload(b []byte) (func(), error) { return func() {}, nil }

func encodeSorted(m map[string]int) []byte {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []byte
	for _, k := range keys {
		out = append(out, k...)
	}
	return out
}

// annotated carries the escape hatch: silent.
type annotated struct{ m map[string]int }

func (a *annotated) SnapshotSection() string { return "annotated" }

func (a *annotated) SnapshotPayload() []byte {
	var out []byte
	//turbo:allow(snapshotdet) single-key map by construction
	for k := range a.m {
		out = append(out, k...)
	}
	return out
}

func (a *annotated) StagePayload(b []byte) (func(), error) { return func() {}, nil }

// plain is not Snapshotter-shaped: out of scope, silent even though it
// encodes in map order.
type plain struct{ m map[string]int }

func (p *plain) Dump() []byte {
	var out []byte
	for k := range p.m {
		out = append(out, k...)
	}
	return out
}
