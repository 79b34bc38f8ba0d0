package heap

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"hstoragedb/internal/engine/bufferpool"
	"hstoragedb/internal/engine/catalog"
	"hstoragedb/internal/engine/policy"
	"hstoragedb/internal/pagestore"
)

// TestTailAppendersMatchOneAppender is the oracle of NewTailAppender: k
// one-row tail appenders, each closed before the next opens, hand out the
// RIDs and leave the page images one Appender given the same k rows
// does. Rows of random sizes cross page boundaries at irregular fills.
// With the small pool, resumed pages come back from the storage system
// zero-padded, so the seed must stop at the used bytes.
func TestTailAppendersMatchOneAppender(t *testing.T) {
	for _, poolPages := range []int{4096, 4} {
		t.Run(fmt.Sprintf("pool%d", poolPages), func(t *testing.T) {
			h := newHarness(t, poolPages)
			_ = h.store.Create(1)
			_ = h.store.Create(2)
			one := NewFile(1, testSchema(), policy.Table)
			tails := NewFile(2, testSchema(), policy.Table)
			app := one.NewAppender(&h.clk, h.pool, 0)
			rng := rand.New(rand.NewSource(5))
			for i := 0; i < 400; i++ {
				r := randRow(rng)
				want, err := app.Append(r)
				if err != nil {
					t.Fatal(err)
				}
				tail, err := tails.NewTailAppender(&h.clk, h.pool, h.store.Pages(2))
				if err != nil {
					t.Fatal(err)
				}
				got, err := tail.Append(r)
				if err != nil {
					t.Fatal(err)
				}
				if err := tail.Close(); err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("row %d: tail appender gave %v, one appender %v", i, got, want)
				}
			}
			if err := app.Close(); err != nil {
				t.Fatal(err)
			}
			pages := h.store.Pages(1)
			if pages < 4 || h.store.Pages(2) != pages {
				t.Fatalf("one appender spans %d pages, tail appenders %d", pages, h.store.Pages(2))
			}
			tag := func(obj pagestore.ObjectID) policy.Tag { return policy.Tag{Object: obj, Content: policy.Table} }
			if poolPages > int(2*pages) {
				// Both files are pool-resident: the frames are the exact
				// images the appenders Put.
				for p := int64(0); p < pages; p++ {
					a, _ := h.pool.Get(&h.clk, tag(1), p)
					b, _ := h.pool.Get(&h.clk, tag(2), p)
					if !bytes.Equal(a, b) {
						t.Fatalf("page %d frame differs (%d vs %d bytes)", p, len(a), len(b))
					}
				}
			}
			if err := h.pool.FlushAll(&h.clk); err != nil {
				t.Fatal(err)
			}
			for p := int64(0); p < pages; p++ {
				a, _, _ := h.store.Read(1, p)
				b, _, _ := h.store.Read(2, p)
				if !bytes.Equal(a, b) {
					t.Fatalf("page %d stored image differs", p)
				}
			}
		})
	}
}

// fixedRow is a row of constant encoded size.
func fixedRow(k int64) catalog.Tuple {
	return catalog.Tuple{catalog.IntDatum(k), catalog.StringDatum(strings.Repeat("f", 100))}
}

// TestTailAppenderEdges resumes the pages a table's last page can be, and
// checks the RID the next row gets, the page locks the appender takes
// (S: pool read, X: pool write, through a bound transaction's Acquire
// hook) and every row of the file afterwards. A second tail appender that
// appends nothing must read the new last page and write nothing.
func TestTailAppenderEdges(t *testing.T) {
	enc, err := catalog.EncodeTuple(nil, testSchema(), fixedRow(0))
	if err != nil {
		t.Fatal(err)
	}
	perPage := (pagestore.PageSize - pageHeader) / (2 + len(enc))
	cases := []struct {
		name  string
		rows  int   // fixed rows an Appender writes first
		dead  []int // slots of page 0 deleted afterwards
		zero  bool  // the file is one page extended but never written
		want  catalog.RID
		locks string // lock requests of NewTailAppender + Append + Close
	}{
		{name: "empty file", want: catalog.RID{Page: 0, Slot: 0}, locks: "X0"},
		{name: "zero page left by Extend", zero: true, want: catalog.RID{Page: 0, Slot: 0}, locks: "S0 X0"},
		{name: "part-filled page", rows: 3, want: catalog.RID{Page: 0, Slot: 3}, locks: "S0 X0"},
		{name: "tombstones after deletes", rows: 10, dead: []int{3, 9}, want: catalog.RID{Page: 0, Slot: 10}, locks: "S0 X0"},
		{name: "all slots deleted", rows: 4, dead: []int{0, 1, 2, 3}, want: catalog.RID{Page: 0, Slot: 4}, locks: "S0 X0"},
		{name: "full page", rows: perPage, want: catalog.RID{Page: 1, Slot: 0}, locks: "S0 X1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t, 64)
			_ = h.store.Create(1)
			f := NewFile(1, testSchema(), policy.Table)
			model := map[catalog.RID]catalog.Tuple{}
			app := f.NewAppender(&h.clk, h.pool, 0)
			for i := 0; i < tc.rows; i++ {
				rid, err := app.Append(fixedRow(int64(i)))
				if err != nil {
					t.Fatal(err)
				}
				model[rid] = fixedRow(int64(i))
			}
			if err := app.Close(); err != nil {
				t.Fatal(err)
			}
			if tc.rows > 0 && h.store.Pages(1) != 1 {
				t.Fatalf("setup spans %d pages, want 1", h.store.Pages(1))
			}
			for _, s := range tc.dead {
				rid := catalog.RID{Page: 0, Slot: uint16(s)}
				if ok, err := f.Delete(&h.clk, h.pool, rid, 0); !ok || err != nil {
					t.Fatalf("delete %v: %v %v", rid, ok, err)
				}
				model[rid] = nil
			}
			if tc.zero {
				if err := h.store.Extend(1, 1); err != nil {
					t.Fatal(err)
				}
			}

			var locks []string
			h.pool.BindTxn(&h.clk, &bufferpool.TxnHooks{ID: 1, Acquire: func(_ policy.Tag, page int64, write bool) error {
				mode := "S"
				if write {
					mode = "X"
				}
				locks = append(locks, fmt.Sprintf("%s%d", mode, page))
				return nil
			}})
			tail, err := f.NewTailAppender(&h.clk, h.pool, h.store.Pages(1))
			if err != nil {
				t.Fatal(err)
			}
			rid, err := tail.Append(fixedRow(99))
			if err != nil {
				t.Fatal(err)
			}
			if err := tail.Close(); err != nil {
				t.Fatal(err)
			}
			if rid != tc.want {
				t.Errorf("row went to %v, want %v", rid, tc.want)
			}
			if got := strings.Join(locks, " "); got != tc.locks {
				t.Errorf("locks %q, want %q", got, tc.locks)
			}
			model[rid] = fixedRow(99)

			locks = nil
			idle, err := f.NewTailAppender(&h.clk, h.pool, h.store.Pages(1))
			if err != nil {
				t.Fatal(err)
			}
			if err := idle.Close(); err != nil {
				t.Fatal(err)
			}
			if want := fmt.Sprintf("S%d", rid.Page); strings.Join(locks, " ") != want {
				t.Errorf("an idle tail appender took %q, want %q", strings.Join(locks, " "), want)
			}
			h.pool.UnbindTxn(&h.clk)

			if got := h.store.Pages(1); got != rid.Page+1 {
				t.Errorf("file spans %d pages, want %d", got, rid.Page+1)
			}
			for r, want := range model {
				got, err := f.Fetch(&h.clk, h.pool, r, 0)
				if err != nil || !reflect.DeepEqual(got, want) {
					t.Errorf("rid %v: %v (%v), want %v", r, got, err, want)
				}
			}
		})
	}
}

// TestTailAppenderAllocatesOnePage: a tail appender that appends one row
// and closes builds one page image, the resumed page's, and Close does
// not allocate the next page. Rows, Pages and a second Close read the
// closed appender as before.
func TestTailAppenderAllocatesOnePage(t *testing.T) {
	h := newHarness(t, 64)
	_ = h.store.Create(1)
	f := NewFile(1, testSchema(), policy.Table)
	app := f.NewAppender(&h.clk, h.pool, 0)
	if _, err := app.Append(fixedRow(0)); err != nil {
		t.Fatal(err)
	}
	if err := app.Close(); err != nil {
		t.Fatal(err)
	}
	if app.Rows() != 1 || app.Pages() != 1 {
		t.Fatalf("closed appender: %d rows over %d pages, want 1 over 1", app.Rows(), app.Pages())
	}
	if err := app.Close(); err != nil || app.Pages() != 1 || h.store.Pages(1) != 1 {
		t.Fatalf("a second Close: %v, %d pages, file %d", err, app.Pages(), h.store.Pages(1))
	}

	// Twenty rows fill no page, so every round resumes page 0.
	const rounds = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := int64(1); i <= rounds; i++ {
		tail, err := f.NewTailAppender(&h.clk, h.pool, h.store.Pages(1))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tail.Append(fixedRow(i)); err != nil {
			t.Fatal(err)
		}
		if err := tail.Close(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if h.store.Pages(1) != 1 {
		t.Fatalf("the rows spread over %d pages", h.store.Pages(1))
	}
	if perRound := (after.TotalAlloc - before.TotalAlloc) / rounds; perRound >= 2*pagestore.PageSize {
		t.Errorf("a one-row tail appender allocates %d bytes, want one page image (%d)", perRound, pagestore.PageSize)
	}
}
