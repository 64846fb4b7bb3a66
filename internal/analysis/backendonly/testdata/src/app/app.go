// Package app sits outside the storage package: the backendonly rule
// applies.
package app

import (
	"cache"
	"gob"
)

func encodeEntry(enc *gob.Encoder, e cache.Entry) error {
	return enc.Encode(&e) // want `raw gob Encode of cache\.Entry`
}

func decodeEntry(dec *gob.Decoder, e *cache.Entry) error {
	return dec.Decode(e) // want `raw gob Decode of cache\.Entry`
}

func encodeEntryAllowed(enc *gob.Encoder, e cache.Entry) error {
	//turbo:allow(backendonly) legacy pre-codec snapshot writer
	return enc.Encode(&e)
}

// Other payloads may gob-encode freely.
func encodeOther(enc *gob.Encoder, counts map[string]int) error {
	return enc.Encode(counts)
}
