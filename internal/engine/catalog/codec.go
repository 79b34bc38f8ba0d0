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
	t, n, err := DecodeTupleBorrowed(make(Tuple, len(s.Cols)), src, s)
	if err != nil {
		return nil, 0, err
	}
	t.OwnStrings()
	return t, n, nil
}

// DecodeTupleBorrowed is DecodeTuple into a caller-supplied scratch tuple
// (grown if shorter than the schema) without copying anything: string
// columns alias src. The result is valid only while src is not written
// to — page frames never are — and until the scratch is decoded into
// again; a caller that keeps the row takes Owned first. It allocates
// nothing once the scratch has the schema's arity.
func DecodeTupleBorrowed(dst Tuple, src []byte, s Schema) (Tuple, int, error) {
	if cap(dst) < len(s.Cols) {
		dst = make(Tuple, len(s.Cols))
	}
	dst = dst[:len(s.Cols)]
	off := 0
	for i, c := range s.Cols {
		switch c.Type {
		case Int64, Date:
			if off+8 > len(src) {
				return nil, 0, fmt.Errorf("catalog: truncated int column %q", c.Name)
			}
			dst[i] = Datum{I: int64(binary.LittleEndian.Uint64(src[off:]))}
			off += 8
		case Float64:
			if off+8 > len(src) {
				return nil, 0, fmt.Errorf("catalog: truncated float column %q", c.Name)
			}
			dst[i] = Datum{F: math.Float64frombits(binary.LittleEndian.Uint64(src[off:]))}
			off += 8
		case String:
			n, w := binary.Uvarint(src[off:])
			if w <= 0 || n > uint64(len(src)-off-w) {
				return nil, 0, fmt.Errorf("catalog: truncated string column %q", c.Name)
			}
			off += w
			dst[i] = Datum{}
			if n > 0 {
				dst[i].S = unsafe.String(&src[off], int(n))
			}
			off += int(n)
		default:
			return nil, 0, fmt.Errorf("catalog: unknown column type %v", c.Type)
		}
	}
	return dst, off, nil
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
