package domain

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func covid() *Domain {
	return MustNew(
		Attribute{Name: "positive", Card: 2, Levels: []string{"negative", "positive"}},
		Attribute{Name: "age", Card: 4},
		Attribute{Name: "gender", Card: 2},
		Attribute{Name: "ethnicity", Card: 8},
	)
}

func TestNewValidations(t *testing.T) {
	cases := []struct {
		name  string
		attrs []Attribute
	}{
		{"no attributes", nil},
		{"empty name", []Attribute{{Name: "", Card: 2}}},
		{"zero cardinality", []Attribute{{Name: "a", Card: 0}}},
		{"negative cardinality", []Attribute{{Name: "a", Card: -1}}},
		{"duplicate names", []Attribute{{Name: "a", Card: 2}, {Name: "a", Card: 3}}},
		{"levels mismatch", []Attribute{{Name: "a", Card: 3, Levels: []string{"x"}}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := New(c.attrs...); err == nil {
				t.Fatalf("New(%v) succeeded, want error", c.attrs)
			}
		})
	}
}

func TestSizeOverflow(t *testing.T) {
	attrs := make([]Attribute, 8)
	for i := range attrs {
		attrs[i] = Attribute{Name: string(rune('a' + i)), Card: 1 << 10}
	}
	if _, err := New(attrs...); err == nil {
		t.Fatal("expected overflow error for 2^80 domain")
	}
}

func TestSizeAndStrides(t *testing.T) {
	d := covid()
	if d.Size() != 128 {
		t.Fatalf("Size = %d, want 128", d.Size())
	}
	if d.NumAttrs() != 4 {
		t.Fatalf("NumAttrs = %d, want 4", d.NumAttrs())
	}
	wantStrides := []int{64, 16, 8, 1}
	for i, w := range wantStrides {
		if d.Stride(i) != w {
			t.Errorf("Stride(%d) = %d, want %d", i, d.Stride(i), w)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	d := covid()
	seen := make(map[int]bool)
	for p := 0; p < 2; p++ {
		for a := 0; a < 4; a++ {
			for g := 0; g < 2; g++ {
				for e := 0; e < 8; e++ {
					idx := d.Encode([]int{p, a, g, e})
					if idx < 0 || idx >= d.Size() {
						t.Fatalf("Encode(%d,%d,%d,%d) = %d out of range", p, a, g, e, idx)
					}
					if seen[idx] {
						t.Fatalf("Encode collision at %d", idx)
					}
					seen[idx] = true
					for i, want := range []int{p, a, g, e} {
						if got := d.Value(idx, i); got != want {
							t.Fatalf("Value(%d, %d) = %d, want %d", idx, i, got, want)
						}
					}
				}
			}
		}
	}
	if len(seen) != d.Size() {
		t.Fatalf("encoded %d distinct indices, want %d", len(seen), d.Size())
	}
}

func TestEncodeDecodeQuick(t *testing.T) {
	d := MustNew(
		Attribute{Name: "a", Card: 5},
		Attribute{Name: "b", Card: 7},
		Attribute{Name: "c", Card: 3},
	)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tuple := []int{r.Intn(5), r.Intn(7), r.Intn(3)}
		idx := d.Encode(tuple)
		for i := range tuple {
			if d.Value(idx, i) != tuple[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEncodePanics(t *testing.T) {
	d := covid()
	for _, tuple := range [][]int{
		{0, 0, 0},       // short
		{0, 0, 0, 0, 0}, // long
		{2, 0, 0, 0},    // out of range
		{0, -1, 0, 0},   // negative
		{0, 0, 0, 8},    // out of range last
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Encode(%v) did not panic", tuple)
				}
			}()
			d.Encode(tuple)
		}()
	}
}

func TestAttrIndexAndLevels(t *testing.T) {
	d := covid()
	if i := d.AttrIndex("age"); i != 1 {
		t.Errorf("AttrIndex(age) = %d, want 1", i)
	}
	if i := d.AttrIndex("missing"); i != -1 {
		t.Errorf("AttrIndex(missing) = %d, want -1", i)
	}
	if got := d.LevelName(0, 1); got != "positive" {
		t.Errorf("LevelName(0,1) = %q, want positive", got)
	}
	if got := d.LevelName(1, 2); got != "2" {
		t.Errorf("LevelName(1,2) = %q, want 2 (no levels registered)", got)
	}
	if v := d.LevelValue(0, "POSITIVE"); v != 1 {
		t.Errorf("LevelValue case-insensitive = %d, want 1", v)
	}
	if v := d.LevelValue(1, "3"); v != 3 {
		t.Errorf("LevelValue numeric fallback = %d, want 3", v)
	}
	if v := d.LevelValue(1, "9"); v != -1 {
		t.Errorf("LevelValue out-of-range numeric = %d, want -1", v)
	}
	if v := d.LevelValue(0, "maybe"); v != -1 {
		t.Errorf("LevelValue unknown = %d, want -1", v)
	}
}

func TestString(t *testing.T) {
	s := covid().String()
	if !strings.Contains(s, "N=128") || !strings.Contains(s, "positive(2)") {
		t.Errorf("String() = %q, want domain description", s)
	}
}

func TestEqual(t *testing.T) {
	a, b := covid(), covid()
	if !a.Equal(b) {
		t.Error("identical domains not Equal")
	}
	if !a.Equal(a) {
		t.Error("domain not Equal to itself")
	}
	if a.Equal(nil) {
		t.Error("domain Equal(nil)")
	}
	c := MustNew(Attribute{Name: "positive", Card: 2})
	if a.Equal(c) {
		t.Error("different-shape domains Equal")
	}
	d := MustNew(
		Attribute{Name: "positive", Card: 2},
		Attribute{Name: "age", Card: 5}, // different card
		Attribute{Name: "gender", Card: 2},
		Attribute{Name: "ethnicity", Card: 8},
	)
	if a.Equal(d) {
		t.Error("different-cardinality domains Equal")
	}
}
