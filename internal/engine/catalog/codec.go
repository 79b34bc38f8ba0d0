package catalog

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"unsafe"
)

// EncodeTuple appends the binary encoding of t (per schema s) to dst and
// returns the extended slice. Layout: fixed 8-byte little-endian words for
// Int64/Date/Float64 columns; uvarint length + bytes for String columns.
func EncodeTuple(dst []byte, s Schema, t Tuple) ([]byte, error) {
	if len(t) != len(s.Cols) {
		return nil, fmt.Errorf("catalog: tuple arity %d != schema arity %d", len(t), len(s.Cols))
	}
	var w [8]byte
	for i, c := range s.Cols {
		switch c.Type {
		case Int64, Date:
			binary.LittleEndian.PutUint64(w[:], uint64(t[i].I))
			dst = append(dst, w[:]...)
		case Float64:
			binary.LittleEndian.PutUint64(w[:], math.Float64bits(t[i].F))
			dst = append(dst, w[:]...)
		case String:
			dst = binary.AppendUvarint(dst, uint64(len(t[i].S)))
			dst = append(dst, t[i].S...)
		default:
			return nil, fmt.Errorf("catalog: unknown column type %v", c.Type)
		}
	}
	return dst, nil
}

// DecodeTuple parses one tuple of schema s from src, returning the tuple
// and the number of bytes consumed. The tuple is owned: it shares no
// memory with src (one Datum slab, one backing for all string columns).
func DecodeTuple(src []byte, s Schema) (Tuple, int, error) {
	return NewDecoder(s, nil).DecodeOwned(src)
}

// DecodeTupleBorrowed is DecodeTuple into a caller-supplied scratch tuple
// (replaced if shorter than the schema) without copying anything: string
// columns alias src. The result is valid only while src is not written
// to — page frames never are — and until the scratch is decoded into
// again; a caller that keeps the row takes Owned first. It is the
// all-columns Decoder, built per call: a caller that decodes many rows
// builds its Decoder once.
func DecodeTupleBorrowed(dst Tuple, src []byte, s Schema) (Tuple, int, error) {
	return NewDecoder(s, nil).Decode(dst, src)
}

// A Decoder decodes one column set of a schema. It is a short program,
// built once: skip n fixed-width bytes, load a fixed-width column, or walk
// a string (keeping it if it is read), ending after the last column read.
// A column outside the set is never written: it keeps what the scratch
// held, which Scratch makes the poison datum, so a read the set did not
// declare sees the poison instead of a plausible value.
type Decoder struct {
	s     Schema
	read  []bool // nil: every column
	steps []step
}

type stepKind uint8

const (
	skipFixed stepKind = iota
	loadInt
	loadFloat
	skipString
	loadString
)

// step is one instruction: col is the column it reads (for a skip of
// several fixed-width columns, the first), n the bytes a skip passes.
type step struct {
	kind stepKind
	col  int32
	n    int32
}

// poison is what an unread column of a scratch tuple holds.
var poison = Datum{I: math.MinInt64, F: math.NaN()}

// Poisoned reports whether d is the datum a Decoder leaves in a column
// outside its set.
func Poisoned(d Datum) bool { return d.I == math.MinInt64 && math.IsNaN(d.F) && d.S == "" }

// NewDecoder builds the decoder of the columns of s whose read entry is
// true; a nil read means every column. It panics if read is non-nil and
// not of the schema's arity, or on an unknown column type: both are
// programming errors.
func NewDecoder(s Schema, read []bool) *Decoder {
	if read != nil && len(read) != len(s.Cols) {
		panic(fmt.Sprintf("catalog: column set of %d for a schema of %d", len(read), len(s.Cols)))
	}
	last := len(s.Cols) - 1
	if read != nil {
		for last >= 0 && !read[last] {
			last--
		}
	}
	d := &Decoder{s: s, read: read, steps: make([]step, 0, last+1)}
	for i, c := range s.Cols[:last+1] {
		in := read == nil || read[i]
		var k stepKind
		switch c.Type {
		case Int64, Date:
			k = loadInt
		case Float64:
			k = loadFloat
		case String:
			k = skipString
			if in {
				k = loadString
			}
		default:
			panic(fmt.Sprintf("catalog: unknown column type %v", c.Type))
		}
		switch {
		case c.Type == String || in:
			d.steps = append(d.steps, step{kind: k, col: int32(i)})
		case len(d.steps) > 0 && d.steps[len(d.steps)-1].kind == skipFixed:
			d.steps[len(d.steps)-1].n += 8
		default:
			d.steps = append(d.steps, step{kind: skipFixed, col: int32(i), n: 8})
		}
	}
	return d
}

// Scratch returns a new tuple of the schema's arity whose columns outside
// the set hold the poison datum.
func (d *Decoder) Scratch() Tuple {
	t := make(Tuple, len(d.s.Cols))
	if d.read != nil {
		for i, in := range d.read {
			if !in {
				t[i] = poison
			}
		}
	}
	return t
}

// Decode decodes src into dst, a scratch of this decoder or of one that
// reads a subset of its columns, and returns it with the number of bytes
// walked, which ends at the last column read. A dst shorter than the
// schema is replaced by a new Scratch. String columns alias src, as in
// DecodeTupleBorrowed. It allocates nothing when dst is long enough.
func (d *Decoder) Decode(dst Tuple, src []byte) (Tuple, int, error) {
	if len(dst) < len(d.s.Cols) {
		dst = d.Scratch()
	}
	off := 0
	for i := range d.steps {
		st := &d.steps[i]
		switch st.kind {
		case skipFixed:
			off += int(st.n)
			if off > len(src) {
				return nil, 0, d.truncated(st.col)
			}
		case loadInt:
			if len(src)-off < 8 {
				return nil, 0, d.truncated(st.col)
			}
			dst[st.col] = Datum{I: int64(binary.LittleEndian.Uint64(src[off:]))}
			off += 8
		case loadFloat:
			if len(src)-off < 8 {
				return nil, 0, d.truncated(st.col)
			}
			dst[st.col] = Datum{F: math.Float64frombits(binary.LittleEndian.Uint64(src[off:]))}
			off += 8
		default: // skipString, loadString
			if off >= len(src) {
				return nil, 0, d.truncated(st.col)
			}
			n, w := uint64(src[off]), 1
			if n >= 0x80 {
				n, w = binary.Uvarint(src[off:])
			}
			if w <= 0 || n > uint64(len(src)-off-w) {
				return nil, 0, d.truncated(st.col)
			}
			off += w
			if st.kind == loadString {
				var v string
				if n > 0 {
					v = unsafe.String(&src[off], int(n))
				}
				dst[st.col] = Datum{S: v}
			}
			off += int(n)
		}
	}
	return dst, off, nil
}

// DecodeOwned is Decode into a new tuple that shares no memory with src
// (one Datum slab, one backing for all string columns).
func (d *Decoder) DecodeOwned(src []byte) (Tuple, int, error) {
	t, n, err := d.Decode(nil, src)
	if err != nil {
		return nil, 0, err
	}
	t.OwnStrings()
	return t, n, nil
}

func (d *Decoder) truncated(col int32) error {
	c := d.s.Cols[col]
	return fmt.Errorf("catalog: truncated %s column %q", c.Type, c.Name)
}

// Owned returns a copy of t that shares no memory with the buffer a
// borrowed decode aliased, nor with t itself.
func (t Tuple) Owned() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	out.OwnStrings()
	return out
}

// OwnStrings repoints every string of t, in place, into one freshly
// allocated backing, so a row costs one string allocation however many
// string columns it has. It is Owned for a tuple whose slab the caller
// already owns.
func (t Tuple) OwnStrings() {
	n := 0
	for i := range t {
		n += len(t[i].S)
	}
	if n == 0 {
		return
	}
	var b strings.Builder
	b.Grow(n)
	for i := range t {
		b.WriteString(t[i].S)
	}
	all := b.String()
	for i := range t {
		l := len(t[i].S)
		t[i].S, all = all[:l], all[l:]
	}
}
