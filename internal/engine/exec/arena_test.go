package exec

import (
	"fmt"
	"strings"
	"testing"

	"hstoragedb/internal/engine/catalog"
)

func arenaRow(i, width int) catalog.Tuple {
	t := make(catalog.Tuple, width)
	for c := range t {
		t[c] = catalog.Datum{I: int64(i*width + c), S: strings.Repeat("s", (i+c)%5)}
	}
	return t
}

// TestRowArenaKeepsRowsInOrder: rows come back as they went in, in
// arrival order through following and by number through seq, across
// chunk boundaries, after a reset at another width, and with a hint; the
// strings are copies.
func TestRowArenaKeepsRowsInOrder(t *testing.T) {
	var a rowArena
	for round, c := range []struct{ width, hint, rows int }{
		{3, 0, 1000}, {5, 0, 700}, {2, 400, 400}, {4, 10, 3000}, {0, 0, 20}, {1, 0, 1},
	} {
		a.reset(c.hint)
		refs := make([]rowRef, c.rows)
		for i := range refs {
			src := arenaRow(i, c.width)
			r, err := a.add(src)
			if err != nil {
				t.Fatal(err)
			}
			for k := range src {
				src[k] = catalog.Datum{S: "scribbled"}
			}
			refs[i] = r
		}
		for i, r := range refs {
			if got, want := a.row(r), arenaRow(i, c.width); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("round %d: row %d = %v, want %v", round, i, got, want)
			}
			if a.seq(r) != i {
				t.Fatalf("round %d: row %d has number %d", round, i, a.seq(r))
			}
		}
		n := 0
		for r := a.first(); r != noRow; r = a.following(r) {
			if r != refs[n] {
				t.Fatalf("round %d: row %d follows as %x, stored as %x", round, n, r, refs[n])
			}
			n++
		}
		if n != c.rows {
			t.Fatalf("round %d: %d rows follow, %d stored", round, n, c.rows)
		}
	}
}

// TestRowArenaRejectsOtherWidth: a row of another width is an error, not
// a row read back misaligned.
func TestRowArenaRejectsOtherWidth(t *testing.T) {
	var a rowArena
	a.reset(0)
	if _, err := a.add(arenaRow(0, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.add(arenaRow(1, 4)); err == nil {
		t.Fatal("a 4-column row joined 3-column rows")
	}
}

// TestArenaReuseAllocatesNothing: a reset keeps the chunks, so a second
// fill no larger than the first allocates nothing, and a hinted fill
// takes one chunk for its rows.
func TestArenaReuseAllocatesNothing(t *testing.T) {
	var a rowArena
	rows := make([]catalog.Tuple, 500)
	for i := range rows {
		rows[i] = arenaRow(i, 4)
	}
	fill := func() {
		a.reset(0)
		for _, r := range rows {
			if _, err := a.add(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	fill()
	if n := testing.AllocsPerRun(20, fill); n != 0 {
		t.Errorf("refilling the arena allocates %.1f times, want 0", n)
	}
	var h rowArena
	h.reset(len(rows))
	if n := testing.AllocsPerRun(1, func() {
		if _, err := h.add(rows[0]); err != nil {
			t.Fatal(err)
		}
	}); n > 3 { // the chunk, the starts slice, the first string chunk
		t.Errorf("a hinted first row allocates %.1f times", n)
	}
	if got := h.room(0); got != len(rows) {
		t.Errorf("a hint of %d rows made a chunk of %d", len(rows), got)
	}
}
