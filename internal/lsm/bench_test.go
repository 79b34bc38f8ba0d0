package lsm

import (
	"testing"

	"hstoragedb/internal/pagestore"
)

// benchPages is the working set of the LSM benchmarks: large enough that
// a compaction rewrites an L1 run of thousands of entries.
const benchPages = 4096

// BenchmarkWrite measures one page write at the default geometry, with
// the memtable flushes and compactions the writes trigger amortized into
// it: the pages cycle through a working set of benchPages, so every
// fourth flush merges L0 into an L1 run holding the whole set. Run with
// -benchmem: each write hands Write a fresh page image, which the
// memtable keeps, and that image is the only per-page allocation on
// this path.
func BenchmarkWrite(b *testing.B) {
	s := New(Config{})
	if err := s.Create(1); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		page := int64(i % benchPages)
		payload := make([]byte, pagestore.PageSize)
		payload[0] = byte(i)
		if _, err := s.Write(1, page, payload); err != nil {
			b.Fatal(err)
		}
		if i%1024 == 1023 {
			s.DrainMaintenance()
		}
	}
}

// BenchmarkRead measures one page read: a memtable hit, and a tree
// probe through the bloom filter and key index of an L0 table spanning
// the working set and of the L1 table holding the page (the plan the
// probe returns included).
func BenchmarkRead(b *testing.B) {
	b.Run("memtable", func(b *testing.B) {
		s := New(Config{})
		if err := s.Create(1); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Write(1, 0, pat(1, 0, 1)); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := s.Read(1, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("tree", func(b *testing.B) {
		s := New(Config{})
		if err := s.Create(1); err != nil {
			b.Fatal(err)
		}
		for p := int64(0); p < benchPages; p++ {
			if _, err := s.Write(1, p, pat(1, p, 1)); err != nil {
				b.Fatal(err)
			}
		}
		// An L0 table spanning the set, so most probes consult its
		// bloom filter before they reach L1.
		for p := int64(0); p < benchPages; p += benchPages / 8 {
			if _, err := s.Write(1, p, pat(1, p, 2)); err != nil {
				b.Fatal(err)
			}
		}
		if err := s.Sync(); err != nil {
			b.Fatal(err)
		}
		if got := s.TablesPerLevel(); got[0] != 1 || got[1] == 0 {
			b.Fatalf("tables per level %v, want one L0 table over an L1 run", got)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := s.Read(1, int64(i*7919)%benchPages); err != nil {
				b.Fatal(err)
			}
		}
	})
}
