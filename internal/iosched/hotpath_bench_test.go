package iosched

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"hstoragedb/internal/device"
	"hstoragedb/internal/dss"
)

// BenchmarkSubmitGrant measures the pick/grant engine against standing
// queue depth: each round enqueues `depth` foreground requests and
// drains them, so every grant picks from a deep queue at O(log depth).
// Run with -benchmem; pair with benchstat via `make bench`.
func BenchmarkSubmitGrant(b *testing.B) {
	for _, depth := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			dev := device.New(device.Cheetah15K())
			g := NewGroup(Config{
				Readahead:       DisableReadahead,
				BackgroundShare: DisableBackgroundShare,
			})
			s := g.Attach(dev, seqClass)
			// Reused waiters: the benchmark isolates scheduler cost,
			// not waiter construction (Submit pools those).
			ws := make([]*waiter, depth)
			for i := range ws {
				ws[i] = bareWaiter(dss.Class(2), dss.DefaultTenant)
			}
			rng := rand.New(rand.NewSource(1))
			lbas := make([]int64, 8192)
			for i := range lbas {
				lbas[i] = int64(rng.Intn(1 << 22))
			}
			classes := [4]dss.Class{dss.ClassLog, dss.Class(1), dss.Class(2), seqClass}
			b.ReportAllocs()
			b.ResetTimer()
			var at time.Duration
			li := 0
			for n := 0; n < b.N; {
				round := depth
				if rem := b.N - n; rem < round {
					round = rem
				}
				s.mu.Lock()
				for j := 0; j < round; j++ {
					at += time.Microsecond
					w := ws[j]
					w.ready = false
					w.remaining = 0
					w.completion = 0
					s.enqueueLocked(w, at, device.Read, lbas[li&8191], 1,
						classes[j&3], dss.DefaultTenant)
					li++
				}
				s.mu.Unlock()
				g.Drain()
				n += round
			}
		})
	}
}

// BenchmarkSubmitOpportunistic runs the full public submit→grant→
// complete path single-threaded on an idle scheduler: the steady-state
// per-request cost including waiter pooling, request pooling, and the
// batched completion flush. The headline -benchmem claim (~0 allocs/op)
// is this benchmark's.
func BenchmarkSubmitOpportunistic(b *testing.B) {
	dev := device.New(device.Cheetah15K())
	g := NewGroup(Config{Readahead: DisableReadahead, BackgroundShare: DisableBackgroundShare})
	s := g.Attach(dev, seqClass)
	rng := rand.New(rand.NewSource(1))
	lbas := make([]int64, 8192)
	for i := range lbas {
		lbas[i] = int64(rng.Intn(1 << 22))
	}
	b.ReportAllocs()
	b.ResetTimer()
	var at time.Duration
	for i := 0; i < b.N; i++ {
		at += time.Microsecond
		s.Submit(at, device.Read, lbas[i&8191], 1, dss.Class(2), dss.DefaultTenant, nil)
	}
}

// BenchmarkSubmitParallel runs the opportunistic submit path from
// GOMAXPROCS goroutines over two devices in one group: with per-scheduler
// locks the two device populations share only the group's atomics, so
// ns/op should hold up as -cpu grows. Run with `-cpu 1,2,4 -benchmem`
// (`make bench` does); with fewer host cores than -cpu it measures
// contention overhead, not parallel speedup.
func BenchmarkSubmitParallel(b *testing.B) {
	g := NewGroup(Config{Readahead: DisableReadahead})
	scheds := []*Scheduler{
		g.Attach(device.New(device.Cheetah15K()), seqClass),
		g.Attach(device.New(device.Intel320()), seqClass),
	}
	var workers atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// Distinct virtual-time cursor and LBA region per worker so
		// workers contend on locks, not on device state semantics.
		w := workers.Add(1)
		s := scheds[w%2]
		at := time.Duration(w) * time.Hour
		lba := w << 32
		for pb.Next() {
			at += time.Microsecond
			lba += 7
			s.Submit(at, device.Read, lba, 1, dss.Class(2), dss.DefaultTenant, nil)
		}
	})
}
