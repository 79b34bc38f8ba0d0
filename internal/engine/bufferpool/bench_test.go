package bufferpool

import (
	"testing"

	"hstoragedb/internal/pagestore"
	"hstoragedb/internal/simclock"
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

// BenchmarkGet measures one Get per op from one goroutine, on each of
// its paths: a resident frame (hit), a page read through the storage
// manager into a frame that evicts a clean one (miss), and on a
// snapshot-bound stream a page the version chain serves
// (snapshot-chain), one the frame serves (snapshot-frame) and one read
// from storage (snapshot-miss). The misses cycle through a working set
// four times the pool's size, so every Get reads. Run with -benchmem.
func BenchmarkGet(b *testing.B) {
	const frames = 64
	rows := []struct {
		name     string
		snapshot bool
		// miss cycles the ops through pages 1 to 4*frames; the others get
		// page 0, resident, on which chain puts a pending version before
		// the snapshot binds.
		miss, chain bool
	}{
		{"hit", false, false, false},
		{"miss", false, true, false},
		{"snapshot-chain", true, false, true},
		{"snapshot-frame", true, false, false},
		{"snapshot-miss", true, true, false},
	}
	for _, r := range rows {
		b.Run(r.name, func(b *testing.B) {
			h := newHarness(b)
			p := New(h.mgr, frames)
			if _, err := p.Get(&h.clk, tag(1), 0); err != nil {
				b.Fatal(err)
			}
			if r.chain {
				wclk := &simclock.Clock{}
				p.BindTxn(wclk, &TxnHooks{ID: 1})
				if err := p.Put(wclk, tag(1), 0, make([]byte, 16)); err != nil {
					b.Fatal(err)
				}
			}
			clk := &h.clk
			if r.snapshot {
				clk = &simclock.Clock{}
				p.BindSnapshot(clk, func() int64 { return 5 })
			}
			before := p.Stats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				page := int64(0)
				if r.miss {
					page = 1 + int64(i)%(4*frames)
				}
				if _, err := p.Get(clk, tag(1), page); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			s := p.Stats()
			hits, misses := s.Hits-before.Hits, s.Misses-before.Misses
			switch {
			case r.chain && hits+misses != 0:
				b.Fatalf("the chain served %d hits and %d misses", hits, misses)
			case r.miss && misses != int64(b.N):
				b.Fatalf("%d misses in %d ops", misses, b.N)
			case !r.chain && !r.miss && hits != int64(b.N):
				b.Fatalf("%d hits in %d ops", hits, b.N)
			}
		})
	}
}
