package exec

import (
	"fmt"
	"unsafe"

	"hstoragedb/internal/engine/catalog"
)

// The operators that keep rows (a hash join's build side, a hash
// aggregate's groups) pack them into arenas they own, as PostgreSQL's
// hash join packs its tuples into chunks (nodeHash.c, dense_alloc): the
// Datums of all rows back to back in a few chunks, their string bytes in
// a few more. Every row of one arena has the same width, so a row needs
// no header, and a table that keeps a million rows makes a few dozen
// allocations instead of two per row.
//
// Chunks are sized to the build: a reset may name the number of rows to
// come (a spilled partition knows its count), and otherwise each new
// chunk holds half the rows stored so far, so a small build stays small
// and a large one wastes at most a third of its space. A reset keeps
// the chunks for the next fill, so a grace hash join's partitions reuse
// the space of the first. Rows and strings handed out are valid until
// the next reset: a reset overwrites them, which is why an operator
// resets only once every row it returned is dead (the borrow contract of
// Operator.Next) and no map still holds one of its strings.

// rowRef names a row of a rowArena: its chunk in the top 8 bits, its
// position in the chunk below.
type rowRef uint32

const (
	refShift     = 24
	refMask      = 1<<refShift - 1
	maxChunks    = 255 // chunk 255 would make noRow a row
	minChunkRows = 8
	minChunkLen  = 256 // the fewest bytes a byteArena chunk holds

	noRow rowRef = ^rowRef(0)
)

// rowArena keeps rows of one width back to back in chunks.
type rowArena struct {
	width  int               // of every row since the last reset
	chunks [][]catalog.Datum // kept across resets; full to len unless the last in use
	starts []int             // the sequence number of each used chunk's first row
	fill   int               // rows in the last used chunk
	n      int               // rows stored
	hint   int               // rows announced at the last reset
	strs   byteArena
}

// reset empties the arena, keeping its chunks; hint > 0 announces that
// many rows.
func (a *rowArena) reset(hint int) {
	a.fill, a.n, a.hint = 0, 0, hint
	a.starts = a.starts[:0]
	a.strs.reset()
}

// free drops the chunks.
func (a *rowArena) free() { *a = rowArena{} }

// room is the number of rows chunk i holds at the arena's width.
func (a *rowArena) room(i int) int { return len(a.chunks[i]) / max(a.width, 1) }

// add copies t, its strings included, into the arena.
func (a *rowArena) add(t catalog.Tuple) (rowRef, error) {
	if a.n == 0 {
		a.width = len(t)
	} else if len(t) != a.width {
		return noRow, fmt.Errorf("exec: rows of %d and %d columns in one table", a.width, len(t))
	}
	c := len(a.starts) - 1
	if c < 0 || a.fill == a.room(c) {
		if c+1 == maxChunks {
			return noRow, fmt.Errorf("exec: table of %d rows is out of chunks", a.n)
		}
		c++
		if c == len(a.chunks) || a.room(c) == 0 {
			rows := min(max(minChunkRows, a.n/2, a.hint-a.n), refMask)
			chunk := make([]catalog.Datum, rows*max(a.width, 1))
			if c == len(a.chunks) {
				a.chunks = append(a.chunks, chunk)
			} else {
				a.chunks[c] = chunk
			}
		}
		a.starts = append(a.starts, a.n)
		a.fill = 0
	}
	r := rowRef(c)<<refShift | rowRef(a.fill)
	row := a.row(r)
	copy(row, t)
	for i := range row {
		row[i].S = a.strs.copy(row[i].S)
	}
	a.fill++
	a.n++
	return r, nil
}

// row returns the stored row r (written into by aggregates).
func (a *rowArena) row(r rowRef) catalog.Tuple {
	off := int(r&refMask) * a.width
	return a.chunks[r>>refShift][off : off+a.width : off+a.width]
}

// seq is r's position in arrival order.
func (a *rowArena) seq(r rowRef) int { return a.starts[r>>refShift] + int(r&refMask) }

// first returns the first row stored, or noRow.
func (a *rowArena) first() rowRef {
	if a.n == 0 {
		return noRow
	}
	return 0
}

// following returns the row stored after r, or noRow.
func (a *rowArena) following(r rowRef) rowRef {
	c, next := int(r>>refShift), int(r&refMask)+1
	switch last := len(a.starts) - 1; {
	case c == last && next == a.fill:
		return noRow
	case c < last && next == a.room(c):
		return rowRef(c+1) << refShift
	}
	return r + 1
}

// byteArena keeps string bytes back to back in chunks, with the same
// growth and reuse as rowArena.
type byteArena struct {
	chunks [][]byte // kept across resets
	inUse  int      // chunks in use; the last of them is being filled
	used   int      // bytes of that chunk in use
	total  int      // bytes stored since the last reset
}

func (b *byteArena) reset() { b.inUse, b.used, b.total = 0, 0, 0 }

// copy returns s stored in the arena.
func (b *byteArena) copy(s string) string {
	if s == "" {
		return ""
	}
	if b.inUse == 0 || b.used+len(s) > len(b.chunks[b.inUse-1]) {
		c := b.inUse
		if c == len(b.chunks) || len(b.chunks[c]) < len(s) {
			chunk := make([]byte, max(minChunkLen, b.total/2, len(s)))
			if c == len(b.chunks) {
				b.chunks = append(b.chunks, chunk)
			} else {
				b.chunks[c] = chunk
			}
		}
		b.inUse++
		b.used = 0
	}
	dst := b.chunks[b.inUse-1][b.used:]
	copy(dst, s)
	b.used += len(s)
	b.total += len(s)
	return unsafe.String(&dst[0], len(s))
}

// bytes returns key stored in the arena, as a string.
func (b *byteArena) bytes(key []byte) string {
	return b.copy(unsafe.String(unsafe.SliceData(key), len(key)))
}
