// Package store is the storage package: it owns the value codec and its
// gob fallback, so raw gob of an entry is silent here.
package store

import (
	"cache"
	"gob"
)

func decodeFallback(dec *gob.Decoder, e *cache.Entry) error {
	return dec.Decode(e)
}
