package persist

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"runtime/debug"
	"testing"
)

// putAll writes one of every codec value.
func putAll(e *Encoder) {
	e.PutUvarint(1 << 40)
	e.PutInt(-7)
	e.PutBool(true)
	e.PutFloat(math.Copysign(0, -1))
	e.PutFloats([]float64{1.5, math.Inf(-1), math.SmallestNonzeroFloat64})
	e.PutFloats(nil)
	e.PutBytes([]byte{0, 0xE7})
	e.PutString("tree/nodes")
}

// TestCodecRoundTrip: every value decodes to itself bit for bit, in the
// order written, and the layout is exactly its values.
func TestCodecRoundTrip(t *testing.T) {
	var e Encoder
	putAll(&e)
	d := NewDecoder(e.Payload())
	if v := d.Uvarint(); v != 1<<40 {
		t.Fatalf("Uvarint = %d", v)
	}
	if v := d.Int(); v != -7 {
		t.Fatalf("Int = %d", v)
	}
	if !d.Bool() {
		t.Fatal("Bool = false")
	}
	if v := d.Float(); math.Float64bits(v) != math.Float64bits(math.Copysign(0, -1)) {
		t.Fatalf("Float = %v, want -0", v)
	}
	fs := d.Floats()
	if len(fs) != 3 || fs[0] != 1.5 || !math.IsInf(fs[1], -1) || fs[2] != math.SmallestNonzeroFloat64 {
		t.Fatalf("Floats = %v", fs)
	}
	if fs := d.Floats(); fs != nil {
		t.Fatalf("empty Floats = %v, want nil", fs)
	}
	if b := d.Bytes(); !bytes.Equal(b, []byte{0, 0xE7}) {
		t.Fatalf("Bytes = %x", b)
	}
	if s := string(d.Bytes()); s != "tree/nodes" {
		t.Fatalf("string = %q", s)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	var again Encoder
	putAll(&again)
	if !bytes.Equal(again.Payload(), e.Payload()) {
		t.Fatal("two encodings of the same values differ")
	}
}

// TestCodecRefusals: a payload cut anywhere, one with a byte left over, a
// bool that is neither 0 nor 1 and a varint that overflows are errors, and
// the first one sticks.
func TestCodecRefusals(t *testing.T) {
	var e Encoder
	putAll(&e)
	full := e.Payload()
	decodeAll := func(p []byte) error {
		d := NewDecoder(p)
		d.Uvarint()
		d.Int()
		d.Bool()
		d.Float()
		d.Floats()
		d.Floats()
		d.Bytes()
		d.Bytes()
		return d.Finish()
	}
	for cut := 0; cut < len(full); cut++ {
		if err := decodeAll(full[:cut]); err == nil {
			t.Fatalf("payload cut at %d of %d decoded", cut, len(full))
		}
	}
	if err := decodeAll(append(full[:len(full):len(full)], 0)); err == nil {
		t.Fatal("a trailing byte was accepted")
	}
	d := NewDecoder([]byte{2, 1})
	if d.Bool(); d.Finish() == nil {
		t.Fatal("bool byte 2 accepted")
	}
	d = NewDecoder(bytes.Repeat([]byte{0xff}, 11))
	if d.Uvarint(); d.Finish() == nil {
		t.Fatal("an overflowing varint decoded")
	}
	d = NewDecoder([]byte{1})
	d.Float()
	if v := d.Uvarint(); v != 0 || d.Finish() != errShort {
		t.Fatalf("after a short Float: Uvarint = %d, err %v; want the first error to stick", v, d.Finish())
	}
}

// TestCodecCountBoundsAllocation: a count of 2^40 with a few bytes behind
// it is refused before anything is sized by it. The bytes are averaged
// over refusals, as testing.AllocsPerRun averages its counts, with the
// collector off: the runtime at times allocates for itself inside the
// window (5,624 bytes in 448-, 1,152- and 2,048-byte objects, with no
// collection between, were seen on a busy 2-CPU machine), which no
// decode asked for.
func TestCodecCountBoundsAllocation(t *testing.T) {
	p := append(binary.AppendUvarint(nil, 1<<40), make([]byte, 16)...)
	const runs = 100
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		d := NewDecoder(p)
		if fs := d.Floats(); fs != nil || d.Finish() == nil {
			t.Fatal("a 2^40-float count was accepted")
		}
	}
	runtime.ReadMemStats(&after)
	if grew := (after.TotalAlloc - before.TotalAlloc) / runs; grew > 4096 {
		t.Fatalf("refusing a 2^40 count allocated %d bytes", grew)
	}
	d := NewDecoder(p)
	if n := d.Count(8); n != 0 || d.Finish() == nil {
		t.Fatalf("Count = %d for 16 bytes of 8-byte elements claiming 2^40", n)
	}
}
