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

// BenchmarkSubmitBackgroundBacklog measures one superseding background
// write against a deferred backlog of `depth` background reads queued at
// the same LBA: each op absorbs the previous op's pending destage and
// queues its own, so the depth holds and nothing is granted (the device
// is busy far past the arrivals and no foreground deposits write-back
// credit). Absorption takes the head of the LBA's destage list, so ns/op
// should not grow with depth; a walk over the LBA's boundary list would
// make it linear.
func BenchmarkSubmitBackgroundBacklog(b *testing.B) {
	for _, depth := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			dev := device.New(device.Cheetah15K())
			g := NewGroup(Config{Readahead: DisableReadahead})
			s := g.Attach(dev, seqClass)
			dev.Access(0, device.Write, 0, 4096)
			const lba = 1 << 20
			for i := 0; i < depth; i++ {
				s.SubmitBackground(0, device.Read, lba, 1, seqClass, dss.DefaultTenant)
			}
			s.SubmitBackground(0, device.Write, lba, 1, dss.ClassWriteBuffer, dss.DefaultTenant)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.SubmitBackground(0, device.Write, lba, 1, dss.ClassWriteBuffer, dss.DefaultTenant)
			}
			b.StopTimer()
			if q := s.queued.Load(); q != int64(depth)+1 {
				b.Fatalf("queue depth %d, want %d: the backlog was granted", q, depth+1)
			}
		})
	}
}
