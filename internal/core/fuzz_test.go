package core

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"maps"
	"runtime"
	"slices"
	"testing"

	"repro/internal/persist"
	"repro/internal/query"
)

// fuzzSession builds the session FuzzSnapshot saves: shape picks the mode
// (non-partitioned, partitioned, streaming), Gaussian accounting, and
// whether an appended partition rides the dataset section;
// each op byte is one query — its predicate and window.
func fuzzSession(t *testing.T, shape byte, ops []byte) (Config, *Session) {
	const parts = 4
	cfg := defaultCfg([]Mode{NonPartitioned, Partitioned, Streaming}[shape%3])
	if shape&4 != 0 {
		cfg.Gaussian, cfg.DeltaGlobal = true, 1e-6
	}
	dom, ds := buildDS(t, parts)
	s, err := NewSession(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	if shape&8 != 0 && cfg.Mode != NonPartitioned {
		arrive(t, s, []int{5, 0, 7, 1, 9, 2, 4, 8})
	}
	for _, op := range ops[:min(len(ops), 48)] {
		allowed := map[int][]int{}
		if v := int(op & 3); v < 2 {
			allowed[0] = []int{v}
		}
		for a := 0; a < 4; a++ {
			if op&(4<<a) != 0 {
				allowed[1] = append(allowed[1], a)
			}
		}
		q := query.MustNew(dom, allowed)
		if cfg.Mode != NonPartitioned {
			start := int(op>>6) % ds.Partitions()
			q = q.WithWindow(start, min(ds.Partitions()-1, start+int(op&3)))
		}
		_, _ = s.Answer(q) // a refusal is state too
	}
	return cfg, s
}

// restoreInto loads snap into a fresh session of cfg over a fresh copy of
// fuzzSession's initial dataset; a refused load must leave the session as
// it was (loadAllOrNothing).
func restoreInto(t *testing.T, cfg Config, snap []byte) (*Session, error) {
	_, ds := buildDS(t, 4)
	s, err := NewSession(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	return s, loadAllOrNothing(t, s, snap)
}

// replaceSection is snap with the named section's payload replaced by p.
func replaceSection(t *testing.T, snap []byte, name string, p []byte) []byte {
	return rewriteSections(t, snap, func(n string, q []byte) []byte {
		if n == name {
			return p
		}
		return q
	})
}

// refusingSection names the section a SectionError refuses, or "" for
// any other error.
func refusingSection(err error) string {
	var se *persist.SectionError
	if errors.As(err, &se) {
		return se.Section
	}
	return ""
}

// allocatedDuring returns the bytes allocated while fn ran.
func allocatedDuring(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzSnapshot checks the v8 snapshot both ways over sessions driven by
// the input. Random state encodes and decodes to equal state: the
// snapshot restores into a fresh session whose own snapshot is the same
// bytes. Damage refuses, never panics: any section payload cut short is a
// SectionError naming it, one with a byte flipped restores or is refused
// by a SectionError (the flip may surface in a later section's check), the
// envelope cut anywhere past its header is ErrTruncated, and a frame or
// payload claiming 2^40 is refused allocating a fraction of that. Every
// refusal leaves the target as it was: its snapshot is a fresh session's.
func FuzzSnapshot(f *testing.F) {
	for shape := byte(0); shape < 32; shape += 3 {
		f.Add(shape, []byte{0x05, 0x46, 0x8b, 0xcd, 0x13, 0xfe, 0x05, 0x46}, uint32(shape)*977, byte(1<<(shape%8)))
	}
	f.Fuzz(func(t *testing.T, shape byte, ops []byte, at uint32, flip byte) {
		cfg, src := fuzzSession(t, shape, ops)
		var snap bytes.Buffer
		if err := src.SaveState(&snap); err != nil {
			t.Fatal(err)
		}
		dst, err := restoreInto(t, cfg, snap.Bytes())
		if err != nil {
			t.Fatalf("restoring an intact snapshot: %v", err)
		}
		var again bytes.Buffer
		if err := dst.SaveState(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), snap.Bytes()) {
			t.Fatal("the restored session's snapshot differs from the one it restored")
		}

		payloads, err := persist.ReadSections(bytes.NewReader(snap.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		order := slices.Sorted(maps.Keys(payloads))
		i := int(at) % len(order)
		name, p := order[i], payloads[order[i]]
		pos := int(at>>8) % len(p)
		cut := replaceSection(t, snap.Bytes(), name, p[:pos])
		if _, err := restoreInto(t, cfg, cut); refusingSection(err) != name {
			t.Fatalf("%s cut to %d of %d bytes: err = %v, want its SectionError", name, pos, len(p), err)
		}
		flipped := append([]byte(nil), p...)
		flipped[pos] ^= flip | 1
		if _, err := restoreInto(t, cfg, replaceSection(t, snap.Bytes(), name, flipped)); err != nil && refusingSection(err) == "" {
			t.Fatalf("%s with byte %d flipped: err = %v, want nil or a SectionError", name, pos, err)
		}
		env := snap.Bytes()
		n := 12 + int(at>>16)%(len(env)-12)
		if _, err := restoreInto(t, cfg, env[:n]); !errors.Is(err, persist.ErrTruncated) {
			t.Fatalf("envelope cut to %d of %d bytes: err = %v, want ErrTruncated", n, len(env), err)
		}

		huge := binary.AppendUvarint(nil, 1<<40)
		var grew uint64
		if flip&1 == 0 {
			// The section's frame claims 2^40 payload bytes.
			var frames bytes.Buffer
			gz := gzip.NewWriter(&frames)
			frame := append(binary.AppendUvarint(nil, uint64(len(name))), name...)
			_, _ = gz.Write(append(append(frame, huge...), p...))
			_ = gz.Close()
			bad := append(append([]byte(nil), env[:12]...), frames.Bytes()...)
			grew = allocatedDuring(func() {
				if _, err := restoreInto(t, cfg, bad); !errors.Is(err, persist.ErrTruncated) {
					t.Fatalf("a %s frame claiming 2^40 bytes: err = %v, want ErrTruncated", name, err)
				}
			})
		} else {
			// The section's payload opens with a 2^40 count or value.
			bad := replaceSection(t, snap.Bytes(), name, append(huge, p...))
			grew = allocatedDuring(func() {
				if _, err := restoreInto(t, cfg, bad); refusingSection(err) == "" {
					t.Fatalf("%s opening with 2^40: err = %v, want a SectionError", name, err)
				}
			})
		}
		if grew > 64<<20 {
			t.Fatalf("refusing a 2^40 claim in %s allocated %d bytes", name, grew)
		}
	})
}
