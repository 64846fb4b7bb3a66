// Package persist is a fixture stub of the section codec; snapshotdet
// keys on its Put method names.
package persist

type Encoder struct{ buf []byte }

func (e *Encoder) PutUvarint(v uint64) {}
func (e *Encoder) PutInt(v int)        {}
func (e *Encoder) PutString(s string)  {}
func (e *Encoder) Payload() []byte     { return e.buf }
