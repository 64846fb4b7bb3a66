// Package app sits outside the storage package: both backendonly rules
// apply.
package app

import (
	"cache"
	"gob"
	"store"
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

func takeLease(kv *store.Mem) {
	_, _ = kv.SetNXLease("!turbo/budget", "owner/0", "me", 0) // want `cross-replica lease primitive SetNXLease outside the protocol-owning packages`
}

func swapSpend(kv *store.Mem) {
	_, _ = kv.CompareSwap("!turbo/budget", "spent/0", 0.1, 0.2) // want `cross-replica lease primitive CompareSwap outside the protocol-owning packages`
}

func leaseAllowed(kv *store.Mem) {
	//turbo:allow(backendonly) harness planting a stale lease to test takeover
	_, _ = kv.SetNXLease("!turbo/flight", "k", "dead", 0)
}
