package cache

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/query"
	"repro/internal/store"
)

// TestEntryCodecRoundTrip checks the fixed-layout codec inverts itself on
// representative values, including the float edge cases.
func TestEntryCodecRoundTrip(t *testing.T) {
	cases := []Entry{
		{},
		{Value: 0.25, Eps: 0.05},
		{Value: -1.5e-300, Eps: 1e300},
		{Value: math.Inf(1), Eps: math.SmallestNonzeroFloat64},
	}
	for _, want := range cases {
		raw := want.AppendFast(nil)
		if len(raw) != entryWireLen {
			t.Fatalf("encoded %d bytes, want %d", len(raw), entryWireLen)
		}
		var got Entry
		if !got.DecodeFast(raw) {
			t.Fatalf("DecodeFast refused its own encoding of %+v", want)
		}
		if got != want {
			t.Fatalf("round trip %+v != %+v", got, want)
		}
	}
}

// TestEntryCodecDeterministic pins byte-for-byte determinism: a snapshot
// of equal cache contents must be equal bytes, so two encodings of one
// entry must be identical.
func TestEntryCodecDeterministic(t *testing.T) {
	e := Entry{Value: 0.125, Eps: 0.01}
	a := e.AppendFast(nil)
	b := e.AppendFast(make([]byte, 0, 64))
	if string(a) != string(b) {
		t.Fatalf("encodings differ: %x vs %x", a, b)
	}
}

// gobEntry is Entry{Value: 0.375, Eps: 0.04, Version: 1}, as the entry
// then was, as encoding/gob wrote it: the value bytes of cache sections
// from before the codec.
const gobEntry = "0\x7f\x03\x01\x01\x05Entry\x01\xff\x80\x00\x01\x03\x01\x05Value\x01\b\x00\x01\x03Eps\x01\b\x00\x01\aVersion\x01\x04\x00\x00\x00\x13\xff\x80\x01\xfe\xd8?\x01\xf8{\x14\xaeG\xe1z\xa4?\x01\x02\x00"

// TestEntryCodecRefusesGob checks DecodeFast declines gob bytes, the
// pre-codec snapshot wire format, and bytes that are one short of or one
// past the codec's, without touching the entry.
func TestEntryCodecRefusesGob(t *testing.T) {
	good := Entry{Value: 0.75, Eps: 0.2}.AppendFast(nil)
	for _, raw := range [][]byte{[]byte(gobEntry), good[:entryWireLen-1], append(good, 0)} {
		var e Entry
		if e.DecodeFast(raw) {
			t.Fatalf("DecodeFast accepted %x", raw)
		}
		if (e != Entry{}) {
			t.Fatalf("refused decode mutated the entry: %+v", e)
		}
	}
}

// TestBackendEntryCodecPath checks entries round-trip through both
// backends via the codec, stored as the codec's bytes.
func TestBackendEntryCodecPath(t *testing.T) {
	backends := map[string]store.Backend{
		"arena":        store.NewMem(store.MemConfig{}),
		"bounded-slru": store.NewMem(store.MemConfig{MaxBytes: 64 * (1 + entryWireLen)}),
	}
	for name, b := range backends {
		e := Entry{Value: 0.5, Eps: 0.1}
		if err := b.Set("k", e); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		raw := b.Export()["k"]
		if len(raw) != entryWireLen || raw[0] != entryTag {
			t.Fatalf("%s: stored bytes %x are not the codec format", name, raw)
		}
		var got Entry
		if found, err := b.Get("k", &got); err != nil || !found {
			t.Fatalf("%s: get: %v %v", name, found, err)
		}
		if got != e {
			t.Fatalf("%s: got %+v want %+v", name, got, e)
		}
	}
}

// TestStagePayloadGobFallback checks there is no gob fallback: a
// section whose value is a raw gob stream, as pre-codec snapshots held, is
// refused naming its key, and the cache keeps what it held.
func TestStagePayloadGobFallback(t *testing.T) {
	q := query.MustNew(dom(), map[int][]int{0: {1}}).WithWindow(0, 2)
	c, err := NewExact(store.NewMem(store.MemConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(q, 0.5, 0.1); err != nil {
		t.Fatal(err)
	}
	payload := section([]string{q.KeyWithWindow()}, [][]byte{[]byte(gobEntry)})
	if _, err := c.StagePayload(payload); err == nil || !strings.Contains(err.Error(), strconv.Quote(q.KeyWithWindow())) {
		t.Fatalf("gob value restored: err = %v", err)
	}
	if got, ok := c.get(q); !ok || got.Value != 0.5 {
		t.Fatalf("the refused restore lost the held entry: %+v %v", got, ok)
	}
}
