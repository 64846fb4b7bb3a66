// Fixed-layout binary codec for cache entries, the values every Backend
// stores (store.FastEncoder / FastDecoder). Entry is written on every miss
// fill and decoded on every hit, so the codec is a straight-line append
// into a caller-provided slice and a straight-line load out of one — zero
// allocations either way.
//
// Wire format (25 bytes, little-endian):
//
//	[0]     entryTag (0xE7) — self-identification byte
//	[1:9]   Value   float64 bits
//	[9:17]  Eps     float64 bits
//	[17:25] Version int64
//
// The format is deterministic (CompareDelete compares stored bytes
// against a re-encoding) and recognizable by tag+length, so DecodeFast
// refuses bytes it does not own: the backend counts them as a poisoned
// entry, and a snapshot carrying them is refused.
package cache

import (
	"encoding/binary"
	"math"

	"repro/internal/store"
)

// entryTag is the first byte of every codec-encoded Entry.
const entryTag = 0xE7

// entryWireLen is the exact encoded length: tag + 3×8 bytes.
const entryWireLen = 25

// AppendFast implements store.FastEncoder: it appends the entry's
// fixed-layout encoding to dst and returns the extended slice.
func (e Entry) AppendFast(dst []byte) []byte {
	var buf [entryWireLen]byte
	buf[0] = entryTag
	binary.LittleEndian.PutUint64(buf[1:9], math.Float64bits(e.Value))
	binary.LittleEndian.PutUint64(buf[9:17], math.Float64bits(e.Eps))
	binary.LittleEndian.PutUint64(buf[17:25], uint64(int64(e.Version)))
	return append(dst, buf[:]...)
}

// DecodeFast implements store.FastDecoder: it reports whether data
// carries the codec wire format, decoding into e when it does.
// Unrecognized bytes leave e untouched.
func (e *Entry) DecodeFast(data []byte) bool {
	if len(data) != entryWireLen || data[0] != entryTag {
		return false
	}
	e.Value = math.Float64frombits(binary.LittleEndian.Uint64(data[1:9]))
	e.Eps = math.Float64frombits(binary.LittleEndian.Uint64(data[9:17]))
	e.Version = int(int64(binary.LittleEndian.Uint64(data[17:25])))
	return true
}

// compile-time checks: Entry values round-trip through the backend codec
// seam (Put encodes from a pooled *Entry, Lookup decodes into one and a
// stale entry's CompareDelete re-encodes it; a restore passes Entry by
// value).
var (
	_ store.FastEncoder = Entry{}
	_ store.FastDecoder = (*Entry)(nil)
)
