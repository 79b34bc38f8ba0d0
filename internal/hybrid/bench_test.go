package hybrid

import (
	"testing"
	"time"

	"hstoragedb/internal/dss"
)

// BenchmarkPriorityCache times the priority cache per request, driven
// from one goroutine as the golden replay is: each request is submitted
// at the previous one's completion. The rows:
//   - read-hit: a random read of a cached block;
//   - miss-admit: a random read miss admitted into free space (the cache
//     is rebuilt, off the clock, each time it fills);
//   - evict: a random read miss admitted in place of the least recently
//     used block of its group (a cyclic sweep over twice the cache);
//   - wb-destage: a Rule 4 update into the write buffer, which flushes
//     whenever it passes its budget; each update is destaged to the HDD
//     once, and the scheduler is drained after every budget's worth so
//     the destage's dispatch is part of the cost.
func BenchmarkPriorityCache(b *testing.B) {
	const benchBlocks = 4096 // cache size
	space := dss.DefaultPolicySpace()
	newCache := func(b *testing.B) System {
		sys, err := New(Config{Mode: HStorage, CacheBlocks: benchBlocks})
		if err != nil {
			b.Fatal(err)
		}
		return sys
	}
	// fill reads every block of [0, benchBlocks) once at priority RandLow.
	fill := func(sys System) (at time.Duration) {
		for lba := int64(0); lba < benchBlocks; lba++ {
			at = sys.Submit(at, read(dss.Class(space.RandLow), lba, 1))
		}
		return at
	}
	// check fails the row unless its requests took the path it names.
	check := func(b *testing.B, sys System, what string, got func(Snapshot) int64, want int) {
		b.StopTimer()
		if n := got(sys.Stats()); n < int64(want) {
			b.Fatalf("%d %s, want at least %d", n, what, want)
		}
	}
	b.Run("read-hit", func(b *testing.B) {
		sys := newCache(b)
		at := fill(sys)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			at = sys.Submit(at, read(dss.Class(space.RandLow), int64(i%benchBlocks), 1))
		}
		check(b, sys, "hits", func(s Snapshot) int64 { return s.Hits }, b.N)
	})
	b.Run("miss-admit", func(b *testing.B) {
		sys := newCache(b)
		var at time.Duration
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i > 0 && i%benchBlocks == 0 {
				b.StopTimer()
				sys, at = newCache(b), 0
				b.StartTimer()
			}
			at = sys.Submit(at, read(dss.Class(space.RandLow), int64(i%benchBlocks), 1))
		}
		check(b, sys, "read allocations", func(s Snapshot) int64 { return s.ReadAllocs }, (b.N-1)%benchBlocks+1)
	})
	b.Run("evict", func(b *testing.B) {
		sys := newCache(b)
		at := fill(sys)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			at = sys.Submit(at, read(dss.Class(space.RandLow), int64((benchBlocks+i)%(2*benchBlocks)), 1))
		}
		check(b, sys, "evictions", func(s Snapshot) int64 { return s.Evictions }, b.N)
	})
	b.Run("wb-destage", func(b *testing.B) {
		sys := newCache(b)
		budget := int(float64(benchBlocks)*space.WriteBufferFrac) + 1
		var at time.Duration
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			at = sys.Submit(at, write(dss.ClassWriteBuffer, int64(i%(2*budget)), 1))
			if i%budget == budget-1 {
				sys.Sched().Drain()
			}
		}
		check(b, sys, "write-buffer flushes", func(s Snapshot) int64 { return s.WBFlushes }, b.N/budget)
	})
}
