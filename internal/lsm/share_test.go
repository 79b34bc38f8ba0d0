package lsm

import (
	"bytes"
	"runtime"
	"testing"

	"hstoragedb/internal/pagestore"
)

// sameBlock reports whether a and b share a backing array.
func sameBlock(a, b []byte) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// TestBlocksAreShared pins the immutable-block rule (package doc): Write
// keeps a page's bytes or copies them once, and from then on the
// memtable, every table the page passes through and every reader hold
// the same slice. Pages are read from the memtable and from the tree, then
// overwritten, flushed and compacted; every slice handed out must still
// hold its bytes, and the compaction's output data blocks must be the
// very slices its inputs held.
func TestBlocksAreShared(t *testing.T) {
	const pages = 16
	s := New(Config{MemtablePages: 1 << 20, L0Tables: 2})
	if err := s.Create(1); err != nil {
		t.Fatal(err)
	}
	type held struct {
		page int64
		data []byte
		want []byte
	}
	var reads []held
	read := func(page int64) []byte {
		t.Helper()
		d, _, err := s.Read(1, page)
		if err != nil {
			t.Fatalf("Read(1,%d): %v", page, err)
		}
		reads = append(reads, held{page, d, bytes.Clone(d)})
		return d
	}

	for p := int64(0); p < pages; p++ {
		mustWrite(t, s, 1, p, pat(1, p, 1))
	}
	memHit := read(0)
	if err := s.Sync(); err != nil { // flush: the memtable becomes L0 table 1
		t.Fatal(err)
	}
	if got := s.TablesPerLevel(); got[0] != 1 || got[1] != 0 {
		t.Fatalf("tables per level after the first flush = %v, want [1 0]", got)
	}
	l0 := s.levels[0][0]
	if !sameBlock(s.disk[l0.dataStart], memHit) {
		t.Fatal("flush copied the memtable block instead of storing it")
	}

	// The newest version of every page, as the compaction's inputs hold
	// it: rewritten even pages from the memtable (soon L0 table 2), odd
	// pages from L0 table 1.
	for p := int64(0); p < pages; p += 2 {
		mustWrite(t, s, 1, p, pat(1, p, 2))
	}
	newest := make([][]byte, pages)
	for p := int64(0); p < pages; p++ {
		newest[p] = read(p)
	}
	if !sameBlock(newest[1], s.disk[l0.dataStart+1]) {
		t.Fatal("a tree probe returned a copy of the table's block")
	}
	if err := s.Sync(); err != nil { // flush, then L0 is full: compaction
		t.Fatal(err)
	}
	if got := s.TablesPerLevel(); got[0] != 0 || got[1] != 1 {
		t.Fatalf("tables per level after the compaction = %v, want [0 1]", got)
	}
	out := s.levels[1][0]
	if len(out.keys) != pages {
		t.Fatalf("compaction output holds %d entries, want %d", len(out.keys), pages)
	}
	for i, k := range out.keys {
		if blk := s.disk[out.dataStart+int64(i)]; !sameBlock(blk, newest[k.page]) {
			t.Fatalf("compaction output block of page %d is a copy, not the input's slice", k.page)
		}
	}

	// Replaced and freed blocks keep the bytes their readers were given.
	for p := int64(0); p < pages; p++ {
		mustWrite(t, s, 1, p, pat(1, p, 3))
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	for _, h := range reads {
		if !bytes.Equal(h.data, h.want) {
			t.Fatalf("a slice read from page %d changed under its reader", h.page)
		}
	}
	for p := int64(0); p < pages; p++ {
		checkPage(t, s, 1, p, pat(1, p, 3))
	}
}

// TestCompactionAllocationBudget: a flush plus the compaction it
// triggers move pages by reference, so they allocate keys, bloom and
// index blocks and bookkeeping, far below one page per entry. Copying
// each page into a fresh block costs a PageSize allocation per entry in
// the flush and again in the compaction.
func TestCompactionAllocationBudget(t *testing.T) {
	const pages = 512
	s := New(Config{MemtablePages: 1 << 20, L0Tables: 2})
	if err := s.Create(1); err != nil {
		t.Fatal(err)
	}
	for rev := 1; rev <= 2; rev++ {
		for p := int64(0); p < pages; p++ {
			mustWrite(t, s, 1, p, pat(1, p, rev))
		}
		if rev == 2 {
			break
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := s.Sync(); err != nil { // flush of `pages` entries + compaction of 2×pages
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := s.TablesPerLevel(); got[0] != 0 || got[1] != 1 {
		t.Fatalf("tables per level = %v, want one compacted L1 table", got)
	}
	perEntry := float64(after.TotalAlloc-before.TotalAlloc) / pages
	if budget := float64(pagestore.PageSize) / 8; perEntry > budget {
		t.Fatalf("flush + compaction allocated %.0f B per entry, budget %.0f (a page is %d)",
			perEntry, budget, pagestore.PageSize)
	}
	t.Logf("flush + compaction allocated %.0f B per entry", perEntry)
}
