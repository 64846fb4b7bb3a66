package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Section payload codec. Every layer writes its section as a fixed
// sequence of these values — counts and ints as varints, floats as their
// IEEE-754 bits (little-endian, so -0, NaN payloads and subnormals
// round-trip exactly), slices and byte strings behind a uvarint length —
// with no field names, type descriptors or padding: the layout is the
// section's code, and the envelope version is the only compatibility
// contract. The encoding is a pure function of the values written, so a
// layer whose writes are ordered produces byte-identical payloads
// (snapshotdet; core.TestSnapshotBytesDeterministic).

// Encoder appends section values to a payload. The zero value is ready.
type Encoder struct{ buf []byte }

// PutUvarint appends an unsigned varint.
func (e *Encoder) PutUvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// PutInt appends a signed varint.
func (e *Encoder) PutInt(v int) { e.buf = binary.AppendVarint(e.buf, int64(v)) }

// PutBool appends one byte, 1 or 0.
func (e *Encoder) PutBool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	e.buf = append(e.buf, b)
}

// PutFloat appends a float64's bits.
func (e *Encoder) PutFloat(v float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
}

// PutFloats appends a float slice: its length, then each value's bits. A
// nil and an empty slice encode alike and decode as nil.
func (e *Encoder) PutFloats(vs []float64) {
	e.PutUvarint(uint64(len(vs)))
	for _, v := range vs {
		e.PutFloat(v)
	}
}

// PutBytes appends a byte string behind its length.
func (e *Encoder) PutBytes(b []byte) {
	e.PutUvarint(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// PutString appends a string behind its length; it decodes with Bytes.
func (e *Encoder) PutString(s string) {
	e.PutUvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Payload returns the encoded section.
func (e *Encoder) Payload() []byte { return e.buf }

// Decoder reads section values back in the order they were put. Its error
// is sticky: after the first failure every read returns a zero value, and
// Finish reports the failure, so a layer decodes its whole layout and
// checks once. A length or count never sizes an allocation beyond the
// bytes left in the payload.
type Decoder struct {
	buf []byte
	err error
}

// NewDecoder reads payload. Bytes returns sub-slices of it.
func NewDecoder(payload []byte) *Decoder { return &Decoder{buf: payload} }

var errShort = errors.New("persist: payload ends inside a value")

func (d *Decoder) fail(err error) {
	if d.err == nil {
		d.err, d.buf = err, nil
	}
}

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail(errShort)
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// Int reads a signed varint.
func (d *Decoder) Int() int {
	v, n := binary.Varint(d.buf)
	if n <= 0 || int64(int(v)) != v {
		d.fail(errShort)
		return 0
	}
	d.buf = d.buf[n:]
	return int(v)
}

// Bool reads one byte, which must be 0 or 1.
func (d *Decoder) Bool() bool {
	if len(d.buf) == 0 {
		d.fail(errShort)
		return false
	}
	b := d.buf[0]
	if b > 1 {
		d.fail(fmt.Errorf("persist: bool byte %d", b))
		return false
	}
	d.buf = d.buf[1:]
	return b == 1
}

// Float reads a float64's bits.
func (d *Decoder) Float() float64 {
	if len(d.buf) < 8 {
		d.fail(errShort)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf))
	d.buf = d.buf[8:]
	return v
}

// Count reads the length of a sequence whose elements take at least min
// bytes each (min >= 1), refusing one the rest of the payload cannot hold,
// so the caller may size the sequence by it.
func (d *Decoder) Count(min int) int {
	n := d.Uvarint()
	if left := uint64(len(d.buf) / min); n > left {
		d.fail(fmt.Errorf("persist: count %d exceeds what the %d bytes left can hold", n, len(d.buf)))
		return 0
	}
	return int(n)
}

// Floats reads a float slice; an empty one is nil.
func (d *Decoder) Floats() []float64 {
	n := d.Count(8)
	if n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.Float()
	}
	return out
}

// Bytes reads a byte string (written by PutBytes or PutString) as a
// sub-slice of the payload.
func (d *Decoder) Bytes() []byte {
	n := d.Count(1)
	b := d.buf[:n:n]
	d.buf = d.buf[n:]
	return b
}

// Err reports the first decode failure so far, for a layer that must stop
// a loop early; Finish is the check that ends a decode.
func (d *Decoder) Err() error { return d.err }

// Finish reports the first decode failure, or trailing bytes after the
// layout: a payload is exactly its values.
func (d *Decoder) Finish() error {
	if d.err == nil && len(d.buf) > 0 {
		d.err = fmt.Errorf("persist: %d trailing bytes after the section's values", len(d.buf))
	}
	return d.err
}
