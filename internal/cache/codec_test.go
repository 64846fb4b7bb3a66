package cache

import (
	"math"
	"testing"

	"repro/internal/persist"
	"repro/internal/query"
	"repro/internal/store"
)

// TestEntryCodecRoundTrip checks the fixed-layout codec inverts itself on
// representative values, including the float edge cases gob also handles.
func TestEntryCodecRoundTrip(t *testing.T) {
	cases := []Entry{
		{},
		{Value: 0.25, Eps: 0.05, Version: 7},
		{Value: -1.5e-300, Eps: 1e300, Version: 1<<31 - 1},
		{Value: math.Inf(1), Eps: math.SmallestNonzeroFloat64, Version: -3},
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

// TestEntryCodecDeterministic pins byte-for-byte determinism: CompareDelete
// guards stale-entry invalidation by comparing stored bytes against a
// re-encoding, so two encodings of one entry must be identical.
func TestEntryCodecDeterministic(t *testing.T) {
	e := Entry{Value: 0.125, Eps: 0.01, Version: 42}
	a := e.AppendFast(nil)
	b := e.AppendFast(make([]byte, 0, 64))
	if string(a) != string(b) {
		t.Fatalf("encodings differ: %x vs %x", a, b)
	}
}

// TestEntryCodecRefusesGob checks DecodeFast declines gob bytes (the
// pre-codec snapshot wire format) so store.DecodeValue falls back to gob.
func TestEntryCodecRefusesGob(t *testing.T) {
	want := Entry{Value: 0.75, Eps: 0.2, Version: 9}
	raw, err := store.EncodeValue("ns", "k", struct{ V Entry }{want}) // gob: no FastEncoder
	if err != nil {
		t.Fatal(err)
	}
	var e Entry
	if e.DecodeFast(raw) {
		t.Fatalf("DecodeFast accepted gob bytes %x", raw)
	}
	if (e != Entry{}) {
		t.Fatalf("refused decode mutated the entry: %+v", e)
	}
}

// TestBackendEntryCodecPath checks entries round-trip through both
// backends via the codec — including the CompareDelete guard, which
// depends on re-encoded bytes matching stored ones.
func TestBackendEntryCodecPath(t *testing.T) {
	backends := map[string]store.Backend{
		"striped-map":  store.NewMem(store.MemConfig{}),
		"bounded-slru": store.NewMem(store.MemConfig{MaxEntries: 64}),
	}
	for name, b := range backends {
		e := Entry{Value: 0.5, Eps: 0.1, Version: 3}
		if err := b.SetWeighted("c", "k", e, e.Eps); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		raw := b.ExportNamespace("c")["k"].Val
		if len(raw) != entryWireLen || raw[0] != entryTag {
			t.Fatalf("%s: stored bytes %x are not the codec format", name, raw)
		}
		var got Entry
		if found, err := b.Get("c", "k", &got); err != nil || !found {
			t.Fatalf("%s: get: %v %v", name, found, err)
		}
		if got != e {
			t.Fatalf("%s: got %+v want %+v", name, got, e)
		}
		if b.CompareDelete("c", "k", Entry{Value: 0.5, Eps: 0.1, Version: 4}) {
			t.Fatalf("%s: CompareDelete erased a mismatched entry", name)
		}
		if !b.CompareDelete("c", "k", e) {
			t.Fatalf("%s: CompareDelete refused the matching entry", name)
		}
	}
}

// TestRestorePayloadGobFallback checks a pre-codec snapshot — stripe
// values stored as raw gob streams, under the textual keys of their day —
// still restores, and that restored entries serve hits.
func TestRestorePayloadGobFallback(t *testing.T) {
	q := query.MustNew(dom(), map[int][]int{0: {1}}).WithWindow(0, 2)
	want := Entry{Value: 0.375, Eps: 0.04, Version: 1}
	gobBytes, err := persist.Encode(want) // the pre-codec value encoding
	if err != nil {
		t.Fatal(err)
	}
	payload, err := persist.Encode(exactState{Stripes: []exactStripeState{{
		Keys: []string{"0:1;@[0,2]"},
		Vals: [][]byte{gobBytes},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewExact(store.NewMem(store.MemConfig{}), "fallback")
	if err != nil {
		t.Fatal(err)
	}
	c.SetDomain(dom())
	if err := c.RestorePayload(payload); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(q, 1)
	if !ok || got != want {
		t.Fatalf("restored entry: got %+v (ok=%v), want %+v", got, ok, want)
	}
}
