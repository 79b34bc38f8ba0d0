package bufferpool

import (
	"testing"

	"hstoragedb/internal/pagestore"
)

// BenchmarkEvictDirty measures a dirty page's way through the pool: each
// op Puts a fresh page-capacity image of a page the pool does not hold,
// which evicts the least recently used frame, also dirty, and writes it
// back through the storage manager into a pagestore.Store. The pages
// cycle through a working set four times the pool's size, so every Put
// evicts and the store holds at most that set. Run with -benchmem: the
// store keeps the image the pool hands it, so the image the loop builds
// is the only page-sized allocation per op.
func BenchmarkEvictDirty(b *testing.B) {
	const frames = 64
	h := newHarness(b)
	p := New(h.mgr, frames)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		img := make([]byte, 0, pagestore.PageSize)
		img = append(img, byte(i), byte(i>>8))
		if err := p.Put(&h.clk, tag(1), int64(i%(4*frames)), img); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if wb := p.Stats().WriteBack; b.N > frames && wb == 0 {
		b.Fatal("no dirty frame was written back")
	}
}
