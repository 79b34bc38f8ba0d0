package lockmgr

import (
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitFor polls cond until it holds or the timeout expires.
func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// wantWaits checks the waits-for graph the manager reports.
func wantWaits(t *testing.T, m *Manager, want map[int64][]int64) {
	t.Helper()
	if got := m.WaitsFor(); !reflect.DeepEqual(got, want) {
		t.Fatalf("WaitsFor = %v, want %v", got, want)
	}
}

func TestSharedCompatibleExclusiveNot(t *testing.T) {
	m := New()
	a := PageID{Obj: 1, Page: 0}
	if err := m.Acquire(1, a, Shared); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(2, a, Shared); err != nil {
		t.Fatal(err)
	}

	got := make(chan error, 1)
	go func() { got <- m.Acquire(3, a, Exclusive) }()
	waitFor(t, func() bool { return m.Waiting() == 1 }, "X request to queue")
	wantWaits(t, m, map[int64][]int64{3: {1, 2}})

	// A Shared request queues behind the Exclusive one (no barging), so
	// it waits behind it, not behind the compatible holders.
	got4 := make(chan error, 1)
	go func() { got4 <- m.Acquire(4, a, Shared) }()
	waitFor(t, func() bool { return m.Waiting() == 2 }, "S request to queue")
	wantWaits(t, m, map[int64][]int64{3: {1, 2}, 4: {3}})

	m.ReleaseAll(1)
	select {
	case err := <-got:
		t.Fatalf("X granted with a Shared holder remaining: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	m.ReleaseAll(2)
	if err := <-got; err != nil {
		t.Fatal(err)
	}
	if m.Held(3) != 1 {
		t.Fatalf("held=%d", m.Held(3))
	}
	wantWaits(t, m, map[int64][]int64{4: {3}})
	m.ReleaseAll(3)
	if err := <-got4; err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(4)
}

func TestReentrantAndUpgrade(t *testing.T) {
	m := New()
	a := PageID{Obj: 1, Page: 7}
	if err := m.Acquire(1, a, Shared); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(1, a, Shared); err != nil {
		t.Fatal(err)
	}
	// Sole holder: the upgrade is granted in place.
	if err := m.Acquire(1, a, Exclusive); err != nil {
		t.Fatal(err)
	}
	// X covers a later S request by the same txn.
	if err := m.Acquire(1, a, Shared); err != nil {
		t.Fatal(err)
	}
	if s := m.Stats(); s.Upgrades != 1 {
		t.Fatalf("upgrades=%d", s.Upgrades)
	}
	m.ReleaseAll(1)
	if m.Held(1) != 0 {
		t.Fatal("locks survived ReleaseAll")
	}
}

// TestDeadlockTwoTxns builds the classic A->B->A cycle: each transaction
// holds one page exclusively and requests the other's.
func TestDeadlockTwoTxns(t *testing.T) {
	m := New()
	a, b := PageID{Obj: 1, Page: 0}, PageID{Obj: 1, Page: 1}
	if err := m.Acquire(1, a, Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(2, b, Exclusive); err != nil {
		t.Fatal(err)
	}

	got1 := make(chan error, 1)
	go func() { got1 <- m.Acquire(1, b, Exclusive) }()
	waitFor(t, func() bool { return m.Waiting() == 1 }, "txn 1 to block")
	wantWaits(t, m, map[int64][]int64{1: {2}})

	// Txn 2 closes the cycle; being the youngest it is the victim.
	err := m.Acquire(2, a, Exclusive)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("want ErrDeadlock, got %v", err)
	}
	// The refused request left no edge behind.
	wantWaits(t, m, map[int64][]int64{1: {2}})
	m.ReleaseAll(2) // victim aborts
	if err := <-got1; err != nil {
		t.Fatalf("survivor's request failed: %v", err)
	}
	m.ReleaseAll(1)
	if s := m.Stats(); s.Deadlocks != 1 {
		t.Fatalf("deadlocks=%d", s.Deadlocks)
	}
}

// TestDeadlockUpgrade exercises the upgrade-upgrade cycle: two Shared
// holders of the same page both request Exclusive.
func TestDeadlockUpgrade(t *testing.T) {
	m := New()
	a := PageID{Obj: 3, Page: 0}
	if err := m.Acquire(1, a, Shared); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(2, a, Shared); err != nil {
		t.Fatal(err)
	}

	got1 := make(chan error, 1)
	go func() { got1 <- m.Acquire(1, a, Exclusive) }()
	waitFor(t, func() bool { return m.Waiting() == 1 }, "txn 1 upgrade to block")
	// The upgrader waits behind the other Shared holder, not itself.
	wantWaits(t, m, map[int64][]int64{1: {2}})

	err := m.Acquire(2, a, Exclusive)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("want ErrDeadlock, got %v", err)
	}
	wantWaits(t, m, map[int64][]int64{1: {2}})
	m.ReleaseAll(2)
	if err := <-got1; err != nil {
		t.Fatalf("survivor upgrade failed: %v", err)
	}
	m.ReleaseAll(1)
}

// TestDeadlockThreeTxns builds a 3-cycle across three pages.
func TestDeadlockThreeTxns(t *testing.T) {
	m := New()
	p := []PageID{{Obj: 1, Page: 0}, {Obj: 1, Page: 1}, {Obj: 1, Page: 2}}
	for i := 0; i < 3; i++ {
		if err := m.Acquire(int64(i+1), p[i], Exclusive); err != nil {
			t.Fatal(err)
		}
	}
	got1 := make(chan error, 1)
	got2 := make(chan error, 1)
	go func() { got1 <- m.Acquire(1, p[1], Exclusive) }()
	waitFor(t, func() bool { return m.Waiting() == 1 }, "txn 1 to block")
	go func() { got2 <- m.Acquire(2, p[2], Exclusive) }()
	waitFor(t, func() bool { return m.Waiting() == 2 }, "txn 2 to block")
	wantWaits(t, m, map[int64][]int64{1: {2}, 2: {3}})

	// Txn 3 closes the 3-cycle and, as the youngest, is refused.
	if err := m.Acquire(3, p[0], Exclusive); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("want ErrDeadlock, got %v", err)
	}
	wantWaits(t, m, map[int64][]int64{1: {2}, 2: {3}})
	m.ReleaseAll(3)
	if err := <-got2; err != nil {
		t.Fatal(err)
	}
	wantWaits(t, m, map[int64][]int64{1: {2}})
	m.ReleaseAll(2)
	if err := <-got1; err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(1)
}

// TestConcurrentHammer runs many goroutines over a small page set with
// retry-on-deadlock; everything must drain with no hangs and a clean
// final table. Run under -race.
func TestConcurrentHammer(t *testing.T) {
	m := New()
	const workers = 8
	const txnsEach = 60
	var next int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < txnsEach; i++ {
				for {
					txn := atomic.AddInt64(&next, 1)
					ok := true
					for j := 0; j < 4; j++ {
						pg := PageID{Obj: 9, Page: int64((w*7 + i*3 + j*5) % 6)}
						mode := Shared
						if (i+j)%2 == 0 {
							mode = Exclusive
						}
						if err := m.Acquire(txn, pg, mode); err != nil {
							if !errors.Is(err, ErrDeadlock) {
								t.Errorf("unexpected error: %v", err)
							}
							ok = false
							break
						}
					}
					m.ReleaseAll(txn)
					if ok {
						break
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if m.Waiting() != 0 {
		t.Fatalf("waiters leaked: %d", m.Waiting())
	}
	wantWaits(t, m, map[int64][]int64{})
	if len(m.locks) != 0 {
		t.Fatalf("lock states leaked: %d", len(m.locks))
	}
}

// TestWarmTableAllocatesNothing holds the lock table to zero allocations
// per lock once warm: a transaction takes 8 pages in mixed modes,
// upgrades one of them in place and releases them all.
func TestWarmTableAllocatesNothing(t *testing.T) {
	m := New()
	var txn int64
	run := func() {
		txn++
		for p := int64(0); p < 8; p++ {
			mode := Shared
			if p%2 == 1 {
				mode = Exclusive
			}
			if err := m.Acquire(txn, PageID{Obj: 1, Page: p}, mode); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Acquire(txn, PageID{Obj: 1, Page: 0}, Exclusive); err != nil {
			t.Fatal(err)
		}
		m.ReleaseAll(txn)
	}
	run()
	if n := testing.AllocsPerRun(100, run); n != 0 {
		t.Fatalf("%v allocations per transaction on a warm table, want 0", n)
	}
	if s := m.Stats(); s.Upgrades != txn {
		t.Fatalf("upgrades=%d after %d transactions", s.Upgrades, txn)
	}
}

// TestRecycledHeadCarriesNothingStale drives a lock head through a
// shared pair, an upgrade refused as a deadlock and a full release, then
// checks that the next page locked gets the head back with no holder,
// waiter or edge of its past.
func TestRecycledHeadCarriesNothingStale(t *testing.T) {
	m := New()
	a, b := PageID{Obj: 3, Page: 0}, PageID{Obj: 4, Page: 9}
	if err := m.Acquire(1, a, Shared); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(2, a, Shared); err != nil {
		t.Fatal(err)
	}
	head := m.locks[a]
	got1 := make(chan error, 1)
	go func() { got1 <- m.Acquire(1, a, Exclusive) }()
	waitFor(t, func() bool { return m.Waiting() == 1 }, "txn 1 upgrade to block")
	if err := m.Acquire(2, a, Exclusive); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("want ErrDeadlock, got %v", err)
	}
	m.ReleaseAll(2)
	if err := <-got1; err != nil {
		t.Fatalf("survivor upgrade failed: %v", err)
	}
	m.ReleaseAll(1)
	if len(m.locks) != 0 || len(m.freeLocks) != 1 || m.freeLocks[0] != head {
		t.Fatalf("released head not recycled: %d live, %d free", len(m.locks), len(m.freeLocks))
	}

	waits := m.Stats().Waits
	if err := m.Acquire(3, b, Exclusive); err != nil {
		t.Fatal(err)
	}
	if m.locks[b] != head {
		t.Fatal("new page did not reuse the freed head")
	}
	if s := m.Stats(); s.Waits != waits {
		t.Fatalf("grant on a recycled head waited (%d waits, want %d)", s.Waits, waits)
	}
	if want := []holder{{3, Exclusive}}; !reflect.DeepEqual(head.holders, want) {
		t.Fatalf("holders = %v, want %v", head.holders, want)
	}
	for i, w := range head.queue[:cap(head.queue)] {
		if w != nil {
			t.Fatalf("queue slot %d still holds txn %d's request", i, w.txn)
		}
	}
	if m.Held(3) != 1 || m.Held(1) != 0 || m.Held(2) != 0 {
		t.Fatalf("held = %d/%d/%d, want 1/0/0", m.Held(3), m.Held(1), m.Held(2))
	}
	if m.Waiting() != 0 {
		t.Fatalf("waiting = %d", m.Waiting())
	}
	wantWaits(t, m, map[int64][]int64{})
	m.ReleaseAll(3)
}
