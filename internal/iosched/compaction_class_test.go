package iosched

import (
	"testing"
	"time"

	"hstoragedb/internal/device"
	"hstoragedb/internal/dss"
)

// TestCompactionRank pins ClassCompaction's slot in the dispatch
// ladder: below the commit-critical log and write-buffer classes,
// above every 1..N caching priority, above unclassified traffic.
func TestCompactionRank(t *testing.T) {
	order := []dss.Class{dss.ClassLog, dss.ClassWriteBuffer, dss.ClassCompaction,
		dss.Class(1), dss.Class(2), seqClass, dss.Class(8), dss.ClassNone}
	for i := 1; i < len(order); i++ {
		if classRank(order[i-1]) >= classRank(order[i]) {
			t.Fatalf("rank(%s)=%d not below rank(%s)=%d",
				order[i-1], classRank(order[i-1]), order[i], classRank(order[i]))
		}
	}
}

// Foreground compaction (a saturated backend forcing a flush on the
// caller's thread) dispatches between the write buffer and the caching
// priorities: queued together, the write buffer wins the device, then
// compaction, then the random read.
func TestCompactionDispatchBetweenWriteBufferAndPriorities(t *testing.T) {
	g, s, _ := newTestSched(Config{})
	rnd := enqueue(g, s, 0, device.Read, 9000, 1, dss.Class(2))
	comp := enqueue(g, s, 0, device.Write, 5000, 1, dss.ClassCompaction)
	wb := enqueue(g, s, 0, device.Write, 1000, 1, dss.ClassWriteBuffer)
	drain(g)
	if wb.completion >= comp.completion {
		t.Fatalf("compaction %v granted before write buffer %v", comp.completion, wb.completion)
	}
	if comp.completion >= rnd.completion {
		t.Fatalf("random read %v granted before foreground compaction %v", rnd.completion, comp.completion)
	}
}

// Background-flagged compaction (the normal case: maintenance drained
// by the storage manager) lands in the background band regardless of
// its high class rank — a foreground read of the lowest caching
// priority is still granted first.
func TestBackgroundCompactionYieldsToForeground(t *testing.T) {
	g, s, _ := newTestSched(Config{})
	s.mu.Lock()
	s.enqueueLocked(nil, 0, device.Write, 5000, 8, dss.ClassCompaction, dss.DefaultTenant) // background
	fg := bareWaiter(seqClass, dss.DefaultTenant)
	s.enqueueLocked(fg, 0, device.Read, 100, 1, seqClass, dss.DefaultTenant)
	s.mu.Unlock()
	g.Drain()
	solo := device.New(device.Cheetah15K()).Access(0, device.Read, 100, 1)
	if fg.completion != solo {
		t.Fatalf("foreground read waited behind background compaction: %v vs %v", fg.completion, solo)
	}
}

// Foreground compaction is subject to the aging bound like any other
// foreground class: overdue, it is granted ahead of a continuous flood
// of fresher log writes instead of starving.
func TestCompactionAgingBoost(t *testing.T) {
	bound := 2 * time.Millisecond
	g, s, dev := newTestSched(Config{AgingBound: bound})
	dev.Access(0, device.Write, 0, 64) // occupy the device so waits accumulate

	comp := enqueue(g, s, 0, device.Write, 5000, 1, dss.ClassCompaction)
	var logs []*waiter
	for i := 0; i < 8; i++ {
		logs = append(logs, enqueue(g, s, 0, device.Write, 9000+int64(2*i), 1, dss.ClassLog))
	}
	drain(g)
	for i, h := range logs {
		if comp.completion > h.completion {
			t.Fatalf("starved: compaction done %v after log[%d] %v", comp.completion, i, h.completion)
		}
	}
	if s.Stats().Boosted == 0 {
		t.Fatal("aging boost not recorded")
	}
}

// Background compaction is exempt from aging: nobody waits on it, so
// however long it queues under a foreground flood it never jumps ahead
// on age — it drains through the token budget or the final Drain.
func TestBackgroundCompactionExemptFromAging(t *testing.T) {
	bound := time.Millisecond
	g, s, dev := newTestSched(Config{AgingBound: bound})
	dev.Access(0, device.Write, 0, 64)
	s.SubmitBackground(0, device.Write, 5000, 1, dss.ClassCompaction, dss.DefaultTenant)
	for i := 0; i < 8; i++ {
		enqueue(g, s, 0, device.Write, 9000+int64(2*i), 1, dss.ClassLog)
	}
	drain(g)
	if got := s.Stats().Boosted; got != 0 {
		t.Fatalf("background compaction aged ahead of foreground: %d boosts", got)
	}
	if got := dev.Stats().BlocksWrite; got != 64+1+8 {
		t.Fatalf("drain left compaction blocks unwritten: %d", got)
	}
}

// Compaction participates in the background write-back budget: under a
// saturated foreground, its deferred writes still get a bounded share
// of device time like any other background traffic.
func TestCompactionUnderBackgroundBudget(t *testing.T) {
	g, s, dev := newTestSched(Config{BackgroundShare: 0.2})
	for i := 0; i < 300; i++ {
		s.SubmitBackground(0, device.Write, 500000+int64(i), 1, dss.ClassCompaction, dss.DefaultTenant)
		s.Submit(0, device.Read, int64((i*7919)%100000), 1, dss.Class(2), dss.DefaultTenant, nil)
	}
	st := s.Stats()
	if st.BudgetGrants == 0 {
		t.Fatal("budget never granted compaction device time under a saturated foreground")
	}
	if st.MaxBackgroundQueue >= 300 {
		t.Fatalf("compaction backlog grew unboundedly: max %d", st.MaxBackgroundQueue)
	}
	g.Drain()
	if got := dev.Stats().BlocksWrite; got != 300 {
		t.Fatalf("blocks written = %d, want 300 after the final drain", got)
	}
}
