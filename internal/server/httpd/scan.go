// The request side of the wire codec: a JSON scanner that decodes the
// three request shapes (QueryRequest, BatchQueryRequest, AppendRequest)
// as encoding/json's Decoder decodes them — the same value for every body
// it accepts, and an error for every body it refuses — without reflection
// and without copying what needs no unescaping. FuzzDecodeAnalyst and
// FuzzDecodeAppend hold it to encoding/json.
//
// What encoding/json does, and the scanner does with it:
//   - it reads one value and ignores what follows it; an empty body is
//     io.EOF, a body cut inside its value io.ErrUnexpectedEOF;
//   - a top-level null decodes to nothing, any other value but an object
//     is an error;
//   - a member's key names a field exactly or, failing that, under
//     Unicode simple case folding; a member naming no field is skipped,
//     and a repeated one decodes again into what the first left;
//   - a null member or element leaves its target as it was, except that
//     a null slice is set to nil;
//   - an array decodes into its slice's own elements while its capacity
//     lasts, and a slice that ends up empty is a new empty slice;
//   - strings unescape with invalid UTF-8 and lone surrogates coerced to
//     U+FFFD; an int takes only an integer literal that fits;
//   - nesting deeper than 10000 is an error.

package httpd

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// maxDepth is encoding/json's nesting limit.
const maxDepth = 10000

var errTooDeep = errors.New("exceeded max depth")

// decoder reads JSON off s from position i; depth counts the objects and
// arrays it is inside.
type decoder struct {
	s     string
	i     int
	depth int
}

// scanQuery decodes a /query or /groupby body into *sql. The statement
// views s unless it needed unescaping.
func scanQuery(s string, sql *string) error {
	d := decoder{s: s}
	return d.request("sql", func() error { return d.text(sql) })
}

// scanQueries decodes a /query/batch body's statements into dst, as
// encoding/json decodes BatchQueryRequest{Queries: dst}. The statements
// view s unless they needed unescaping. It is the decode into a fresh
// request when dst holds "" over all its capacity.
func scanQueries(s string, dst []string) ([]string, error) {
	d := decoder{s: s}
	err := d.request("queries", func() (err error) {
		dst, err = array(&d, dst, "an array of strings", d.text)
		return err
	})
	return dst, err
}

// scanAppend decodes a /append body into req. With bufs nil it is
// encoding/json's decode into req. With bufs, a partition's counts that
// grow from nothing start from its slot's array in *bufs, cleared, and
// leave there the array they outgrew it into: when req.Partitions holds
// zero partitions over all its capacity, that is the decode into a fresh
// request, into arrays a connection keeps from one /append to the next.
// The counts never view s.
func scanAppend(s string, req *AppendRequest, bufs *[][]int) error {
	d := decoder{s: s}
	return d.request("partitions", func() (err error) {
		n := 0
		req.Partitions, err = array(&d, req.Partitions, "an array of partitions", func(p *appendPartition) error {
			buf := bufFor(bufs, n)
			n++
			switch d.peek() {
			case 'n':
				return d.literal("null")
			case '{':
				return d.object(func(key string) error {
					if !field(key, "counts") {
						return d.skip()
					}
					var err error
					p.Counts, err = d.ints(p.Counts, buf)
					return err
				})
			}
			return d.mismatch("a partition")
		})
		return err
	})
}

// request decodes the top-level value, an object whose member name
// decode decodes. A null decodes nothing; an empty body or any other
// value is an error.
func (d *decoder) request(name string, decode func() error) error {
	switch d.peek() {
	case 0:
		if d.i == len(d.s) {
			return io.EOF
		}
	case '{':
		return d.object(func(key string) error {
			if field(key, name) {
				return decode()
			}
			return d.skip()
		})
	case 'n':
		return d.literal("null")
	}
	return d.mismatch("a request")
}

// object reads an object, its '{' peeked, handing each member's key to
// member, which reads the member's value.
func (d *decoder) object(member func(key string) error) error {
	err := d.open()
	for first, more := true, err == nil; more && err == nil; first = false {
		if more, err = d.more('}', first); !more || err != nil {
			break
		}
		if d.peek() != '"' {
			return d.fail()
		}
		var key string
		if key, err = d.str(); err != nil {
			return err
		}
		if d.peek() != ':' {
			return d.fail()
		}
		d.i++
		err = member(key)
	}
	return err
}

// more reads past the ',' before a container's next member or element,
// or else its closing byte end; first is whether none has been read.
func (d *decoder) more(end byte, first bool) (bool, error) {
	switch c := d.peek(); {
	case c == end:
		d.i++
		d.depth--
		return false, nil
	case first:
		return true, nil
	case c == ',':
		d.i++
		return true, nil
	}
	return false, d.fail()
}

// open reads a container's opening byte, which the caller has peeked.
func (d *decoder) open() error {
	d.i++
	if d.depth++; d.depth > maxDepth {
		return errTooDeep
	}
	return nil
}

// array decodes an array of what elem decodes into dst, as encoding/json
// decodes an array into a slice: element n decodes into dst's own while
// dst's capacity lasts, past its length too, so it starts from what dst
// held there; past the capacity dst grows by one element; dst is then
// cut to the array's length, and an empty array is a new empty slice. A
// null sets dst to nil.
func array[T any](d *decoder, dst []T, into string, elem func(*T) error) ([]T, error) {
	switch d.peek() {
	case 'n':
		return nil, d.literal("null")
	case '[':
	default:
		return dst, d.mismatch(into)
	}
	err := d.open()
	for n, first := 0, true; err == nil; n, first = n+1, false {
		var more bool
		if more, err = d.more(']', first); !more || err != nil {
			if n == 0 {
				return []T{}, err
			}
			return dst[:n], err
		}
		if n == cap(dst) {
			dst = slices.Grow(dst, 1)
		}
		dst = dst[:max(len(dst), n+1)]
		err = elem(&dst[n])
	}
	return dst, err
}

// bufFor is partition i's slot in bufs: nil without bufs, and past the
// partitions a batch may hold, so a body of more cannot grow them.
func bufFor(bufs *[][]int, i int) *[]int {
	if bufs == nil || i >= maxAppendPartitions {
		return nil
	}
	for len(*bufs) <= i {
		*bufs = append(*bufs, nil)
	}
	return &(*bufs)[i]
}

// ints decodes an array of ints into dst. When dst has no array and buf
// is not nil, it decodes into *buf's, cleared, and leaves in *buf the
// array it outgrew it into.
func (d *decoder) ints(dst []int, buf *[]int) ([]int, error) {
	if cap(dst) == 0 && buf != nil {
		dst = (*buf)[:0]
		clear(dst[:cap(dst)])
	}
	dst, err := array(d, dst, "an array of counts", d.integer)
	if buf != nil && cap(dst) > cap(*buf) {
		*buf = dst[:0]
	}
	return dst, err
}

// text decodes a string into *dst; null leaves *dst as it was.
func (d *decoder) text(dst *string) error {
	switch d.peek() {
	case '"':
		s, err := d.str()
		if err == nil {
			*dst = s
		}
		return err
	case 'n':
		return d.literal("null")
	}
	return d.mismatch("a string")
}

// integer decodes an integer literal that fits an int into *dst; null
// leaves *dst as it was.
func (d *decoder) integer(dst *int) error {
	switch c := d.peek(); {
	case c == 'n':
		return d.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		start := d.i
		if err := d.number(); err != nil {
			return err
		}
		v, err := strconv.ParseInt(d.s[start:d.i], 10, strconv.IntSize)
		if err != nil {
			return fmt.Errorf("cannot unmarshal number %s into an int", d.s[start:d.i])
		}
		*dst = int(v)
		return nil
	}
	return d.mismatch("an int")
}

// field reports whether key names the field name, lower-case ASCII, as
// encoding/json matches a key: exactly, or else equal under its folding
// (ASCII letters to upper case, other runes to the least of their
// simple-fold orbit).
func field(key, name string) bool {
	if key == name {
		return true
	}
	i := 0
	for _, r := range key {
		if i == len(name) || fold(r) != fold(rune(name[i])) {
			return false
		}
		i++
	}
	return i == len(name)
}

func fold(r rune) rune {
	if r < utf8.RuneSelf {
		if 'a' <= r && r <= 'z' {
			r -= 'a' - 'A'
		}
		return r
	}
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}

// skip reads past one value of any kind.
func (d *decoder) skip() error {
	switch c := d.peek(); {
	case c == '{':
		return d.object(func(string) error { return d.skip() })
	case c == '[':
		err := d.open()
		for first, more := true, err == nil; more && err == nil; first = false {
			if more, err = d.more(']', first); more && err == nil {
				err = d.skip()
			}
		}
		return err
	case c == '"':
		_, err := d.str()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		return d.number()
	}
	return d.fail()
}

// str reads a string, its opening quote peeked: a view of s when it
// holds no escape and is valid UTF-8, else its unescaped text. A
// printable span up to the next quote skips the per-byte walk.
func (d *decoder) str() (string, error) {
	d.i++
	start, plain := d.i, true
	if n := strings.IndexByte(d.s[start:], '"'); n >= 0 && printable(d.s[start:start+n]) {
		d.i = start + n + 1
		return d.s[start : d.i-1], nil
	}
	for d.i < len(d.s) {
		switch c := d.s[d.i]; {
		case c == '"':
			d.i++
			if plain {
				return d.s[start : d.i-1], nil
			}
			return unquote(d.s[start : d.i-1]), nil
		case c == '\\':
			plain = false
			if err := d.escape(); err != nil {
				return "", err
			}
		case c < ' ':
			return "", d.fail()
		case c < utf8.RuneSelf:
			d.i++
		default:
			r, n := utf8.DecodeRuneInString(d.s[d.i:])
			plain = plain && (r != utf8.RuneError || n > 1)
			d.i += n
		}
	}
	return "", io.ErrUnexpectedEOF
}

// printable reports whether s, a JSON string's body, holds no '\',
// control byte or byte past ASCII, eight bytes a step: a byte past ASCII
// has its high bit set, one below ' ' sets it once ' ' is taken from
// each, and a '\' XORed away is a zero byte, which sets it once 1 is
// taken; the lowest failing byte borrows from none below, so it shows.
func printable(s string) bool {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	for ; len(s) >= 8; s = s[8:] {
		w := uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
			uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
		bs := w ^ '\\'*ones
		if (w|(w-' '*ones)|(bs-ones)&^bs)&highs != 0 {
			return false
		}
	}
	for i := 0; i < len(s); i++ {
		if c := s[i]; c-' ' >= utf8.RuneSelf-' ' || c == '\\' {
			return false
		}
	}
	return true
}

// escape reads one escape sequence, at its '\'.
func (d *decoder) escape() error {
	d.i++
	n := 1
	switch d.peekByte() {
	case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
	case 'u':
		for n = 1; n < 5; n++ {
			if d.i+n == len(d.s) {
				d.i += n
				return io.ErrUnexpectedEOF
			}
			if unhex(d.s[d.i+n]) < 0 {
				d.i += n
				return d.fail()
			}
		}
	default:
		return d.fail()
	}
	d.i += n
	return nil
}

// unquote is a string's text once its escapes are read, as encoding/json
// unquotes it: invalid UTF-8 and lone surrogates become U+FFFD. s is
// known to hold only well-formed escapes.
func unquote(s string) string {
	b := make([]byte, 0, len(s))
	for i := 0; i < len(s); {
		switch c := s[i]; {
		case c == '\\' && s[i+1] == 'u':
			r := u4(s[i:])
			i += 6
			if 0xD800 <= r && r < 0xE000 {
				if r2 := u4(s[i:]); r < 0xDC00 && 0xDC00 <= r2 && r2 < 0xE000 {
					r = (r-0xD800)<<10 | (r2 - 0xDC00) + 0x10000
					i += 6
				} else {
					r = utf8.RuneError
				}
			}
			b = utf8.AppendRune(b, r)
		case c == '\\':
			b = append(b, unescaped[s[i+1]])
			i += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, n := utf8.DecodeRuneInString(s[i:])
			b = utf8.AppendRune(b, r)
			i += n
		}
	}
	return string(b)
}

// unescaped maps the byte after '\' in a one-byte escape to what it
// stands for.
var unescaped = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

// u4 is the code point of the \uXXXX escape s starts with, or -1.
func u4(s string) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range []byte(s[2:6]) {
		r = r<<4 | unhex(c)
	}
	return r
}

func unhex(c byte) rune {
	switch {
	case '0' <= c && c <= '9':
		return rune(c - '0')
	case 'a' <= c && c <= 'f':
		return rune(c - 'a' + 10)
	case 'A' <= c && c <= 'F':
		return rune(c - 'A' + 10)
	}
	return -1
}

// number reads a number literal.
func (d *decoder) number() error {
	if d.peekByte() == '-' {
		d.i++
	}
	switch c := d.peekByte(); {
	case c == '0':
		d.i++
	case '1' <= c && c <= '9':
		d.digits()
	default:
		return d.fail()
	}
	if d.peekByte() == '.' {
		d.i++
		if err := d.someDigits(); err != nil {
			return err
		}
	}
	if c := d.peekByte(); c == 'e' || c == 'E' {
		d.i++
		if c := d.peekByte(); c == '+' || c == '-' {
			d.i++
		}
		return d.someDigits()
	}
	return nil
}

// someDigits reads one digit or more.
func (d *decoder) someDigits() error {
	if c := d.peekByte(); c < '0' || c > '9' {
		return d.fail()
	}
	d.digits()
	return nil
}

func (d *decoder) digits() {
	for c := d.peekByte(); '0' <= c && c <= '9'; c = d.peekByte() {
		d.i++
	}
}

// literal reads lit, a true, false or null.
func (d *decoder) literal(lit string) error {
	for k := range len(lit) {
		if d.peekByte() != lit[k] {
			return d.fail()
		}
		d.i++
	}
	return nil
}

// peek skips whitespace and returns the next byte, 0 at the end.
func (d *decoder) peek() byte {
	for d.i < len(d.s) {
		switch d.s[d.i] {
		case ' ', '\t', '\r', '\n':
			d.i++
			continue
		}
		return d.s[d.i]
	}
	return 0
}

// peekByte returns the next byte, 0 at the end.
func (d *decoder) peekByte() byte {
	if d.i < len(d.s) {
		return d.s[d.i]
	}
	return 0
}

// fail is the error at d.i: the body ended early, or holds a byte JSON
// does not allow there.
func (d *decoder) fail() error {
	if d.i >= len(d.s) {
		return io.ErrUnexpectedEOF
	}
	return fmt.Errorf("invalid character %q at offset %d", d.s[d.i], d.i)
}

// mismatch is the error for a value, next in s, of a kind into that
// cannot take it.
func (d *decoder) mismatch(into string) error {
	kind := ""
	switch c := d.peek(); {
	case c == '"':
		kind = "string"
	case c == '{':
		kind = "object"
	case c == '[':
		kind = "array"
	case c == 't' || c == 'f':
		kind = "bool"
	case c == '-' || '0' <= c && c <= '9':
		kind = "number"
	default:
		return d.fail()
	}
	return fmt.Errorf("cannot unmarshal %s into %s", kind, into)
}
