package lockmgr

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
)

// BenchmarkLockManager times the lock table's paths per operation:
// uncontended acquire and release of 1, 8 and 64 pages by one
// transaction, an in-place Shared-to-Exclusive upgrade, a handoff (a
// second transaction blocks on the page and is granted by the first
// one's release) and a deadlock found at depth 2 and at depth 8 (the
// requester closing the cycle is refused, releases, and the chain of
// blocked transactions drains behind it).
func BenchmarkLockManager(b *testing.B) {
	for _, n := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("uncontended/pages=%d", n), func(b *testing.B) {
			m := New()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for p := 0; p < n; p++ {
					if err := m.Acquire(1, PageID{Obj: 1, Page: int64(p)}, Exclusive); err != nil {
						b.Fatal(err)
					}
				}
				m.ReleaseAll(1)
			}
		})
	}
	b.Run("upgrade", func(b *testing.B) {
		m := New()
		pg := PageID{Obj: 1}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := m.Acquire(1, pg, Shared); err != nil {
				b.Fatal(err)
			}
			if err := m.Acquire(1, pg, Exclusive); err != nil {
				b.Fatal(err)
			}
			m.ReleaseAll(1)
		}
	})
	b.Run("handoff", func(b *testing.B) { benchChain(b, 2, false) })
	b.Run("cycle/depth=2", func(b *testing.B) { benchChain(b, 2, true) })
	b.Run("cycle/depth=8", func(b *testing.B) { benchChain(b, 8, true) })
}

// benchChain builds, per iteration, a chain of depth transactions:
// transaction k holds page k exclusively, and transactions 1..depth-1
// (one partner goroutine each) block requesting page k+1. With cycle,
// transaction depth then requests page 1 and is refused with
// ErrDeadlock; without, it requests nothing. Its release then grants
// the chain back to front, each partner releasing as soon as it is
// granted.
func benchChain(b *testing.B, depth int, cycle bool) {
	m := New()
	page := func(k int) PageID { return PageID{Obj: 1, Page: int64(k)} }
	start := make([]chan struct{}, depth)
	done := make(chan error, depth)
	for k := 1; k < depth; k++ {
		start[k] = make(chan struct{})
		go func() {
			for range start[k] {
				err := m.Acquire(int64(k), page(k+1), Exclusive)
				m.ReleaseAll(int64(k))
				done <- err
			}
		}()
	}
	defer func() {
		for k := 1; k < depth; k++ {
			close(start[k])
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 1; k <= depth; k++ {
			if err := m.Acquire(int64(k), page(k), Exclusive); err != nil {
				b.Fatal(err)
			}
		}
		for k := 1; k < depth; k++ {
			start[k] <- struct{}{}
			for m.Waiting() < k {
				runtime.Gosched()
			}
		}
		if cycle {
			if err := m.Acquire(int64(depth), page(1), Exclusive); !errors.Is(err, ErrDeadlock) {
				b.Fatalf("closing the cycle: want ErrDeadlock, got %v", err)
			}
		}
		m.ReleaseAll(int64(depth))
		for k := 1; k < depth; k++ {
			if err := <-done; err != nil {
				b.Fatal(err)
			}
		}
	}
}
