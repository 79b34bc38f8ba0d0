package iosched

import (
	"sync"
	"testing"
	"time"

	"hstoragedb/internal/device"
	"hstoragedb/internal/dss"
	"hstoragedb/internal/simclock"
)

const seqClass = dss.Class(7) // DefaultPolicySpace().Sequential()

// agingOff is an aging bound longer than any test's virtual time: aging
// never fires, so class rank alone decides dispatch.
const agingOff = 1000 * time.Hour

// newTestSched attaches one HDD without readahead.
func newTestSched(cfg Config) (*Group, *Scheduler, *device.Device) {
	dev := device.New(device.Cheetah15K())
	g := NewGroup(cfg)
	s := g.Attach(dev, NoReadahead)
	return g, s, dev
}

// newReadaheadSched is newTestSched with sequential-class reads
// prefetching n blocks past the run (0: none).
func newReadaheadSched(cfg Config, n int) (*Group, *Scheduler, *device.Device) {
	if n == 0 {
		return newTestSched(cfg)
	}
	dev := device.New(device.Cheetah15K())
	g := NewGroup(cfg)
	s := g.Attach(dev, seqClass)
	s.readahead, s.readaheadCap = n, 8*n
	return g, s, dev
}

// bareWaiter builds a non-pooled waiter for direct enqueueLocked tests.
func bareWaiter(class dss.Class, tenant dss.TenantID) *waiter {
	w := &waiter{class: class, tenant: tenant}
	w.cond.L = &w.mu
	return w
}

// enqueue adds a request without dispatching (test-only, single
// threaded). It returns the waiter so completions can be read back.
func enqueue(g *Group, s *Scheduler, at time.Duration, op device.Op, lba int64, blocks int, class dss.Class) *waiter {
	w := bareWaiter(class, dss.DefaultTenant)
	w.arrive = at
	s.mu.Lock()
	s.enqueueLocked(w, at, op, lba, blocks, class, dss.DefaultTenant)
	s.mu.Unlock()
	return w
}

func drain(g *Group) {
	g.Drain()
}

// Priority dispatch: with a log write and a scan read queued together,
// the log write is granted the device first even though the scan was
// enqueued first.
func TestPriorityOrder(t *testing.T) {
	g, s, _ := newTestSched(Config{})
	scan := enqueue(g, s, 0, device.Read, 1000, 1, seqClass)
	logw := enqueue(g, s, 0, device.Write, 2000, 1, dss.ClassLog)
	drain(g)
	if logw.completion >= scan.completion {
		t.Fatalf("log write %v not granted before scan read %v", logw.completion, scan.completion)
	}
}

// Starvation bound: a low-priority request that has already waited past
// the aging bound is granted before fresher high-priority requests, so
// its total wait is bounded even under a continuous high-priority flood.
func TestAgingBound(t *testing.T) {
	bound := 2 * time.Millisecond
	g, s, dev := newTestSched(Config{AgingBound: bound})
	// Occupy the device so queued requests accumulate virtual wait.
	dev.Access(0, device.Write, 0, 64) // ~8.9ms busy

	low := enqueue(g, s, 0, device.Read, 5000, 1, seqClass)
	var highs []*waiter
	for i := 0; i < 8; i++ {
		highs = append(highs, enqueue(g, s, 0, device.Write, 9000+int64(2*i), 1, dss.ClassLog))
	}
	drain(g)
	// The low request is overdue the moment dispatch starts (busyUntil -
	// arrive > bound), so it must be granted first.
	for i, h := range highs {
		if low.completion > h.completion {
			t.Fatalf("starved: low done %v after high[%d] %v", low.completion, i, h.completion)
		}
	}
	if s.Stats().Boosted == 0 {
		t.Fatal("aging boost not recorded")
	}
}

// Without the aging pressure, strict priority holds: the same scenario
// with an idle device grants the log writes first.
func TestStrictPriorityWhenFresh(t *testing.T) {
	g, s, _ := newTestSched(Config{AgingBound: time.Hour})
	low := enqueue(g, s, 0, device.Read, 5000, 1, seqClass)
	high := enqueue(g, s, 0, device.Write, 9000, 1, dss.ClassLog)
	drain(g)
	if high.completion >= low.completion {
		t.Fatalf("high %v not before low %v", high.completion, low.completion)
	}
}

// Coalescing: LBA-adjacent same-class requests are merged into one
// device access, and per-request completion ordering is preserved
// (completions are non-decreasing in queue order; merged requests share
// their batch's completion).
func TestCoalescingPreservesOrdering(t *testing.T) {
	g, s, dev := newTestSched(Config{})
	var ws []*waiter
	for i := 0; i < 8; i++ {
		ws = append(ws, enqueue(g, s, 0, device.Read, int64(i), 1, seqClass))
	}
	drain(g)
	st := dev.Stats()
	if st.Reads != 1 {
		t.Fatalf("adjacent requests not coalesced: %d device accesses", st.Reads)
	}
	if st.BlocksRead != 8 {
		t.Fatalf("coalesced access read %d blocks", st.BlocksRead)
	}
	for i := 1; i < len(ws); i++ {
		if ws[i].completion < ws[i-1].completion {
			t.Fatalf("completion order violated: [%d]=%v < [%d]=%v",
				i, ws[i].completion, i-1, ws[i-1].completion)
		}
	}
	if got := s.Stats().Coalesced; got != 7 {
		t.Fatalf("Coalesced = %d, want 7", got)
	}
}

// Coalescing must not merge across classes or leave maxCoalesce behind.
func TestCoalesceBounds(t *testing.T) {
	g, s, dev := newTestSched(Config{})
	s.maxCoalesce = 4
	for i := 0; i < 8; i++ {
		enqueue(g, s, 0, device.Read, int64(i), 1, seqClass)
	}
	enqueue(g, s, 0, device.Read, 8, 1, dss.Class(2)) // different class
	drain(g)
	st := dev.Stats()
	if st.Reads != 3 { // 4 + 4 blocks of the scan, plus the class-2 read
		t.Fatalf("accesses = %d, want 3", st.Reads)
	}
}

// Readahead: a sequential-class read over-reads into the prefetch
// buffer; the following reads are served from the buffer without
// touching the device, and the stats count the run.
func TestReadahead(t *testing.T) {
	g, s, dev := newReadaheadSched(Config{}, 16)
	first := enqueue(g, s, 0, device.Read, 100, 1, seqClass)
	drain(g)
	st := dev.Stats()
	if st.BlocksRead != 17 {
		t.Fatalf("over-read %d blocks, want 17", st.BlocksRead)
	}
	got := s.Submit(first.completion, device.Read, 101, 16, seqClass, dss.DefaultTenant, nil)
	if after := dev.Stats(); after.Reads != st.Reads {
		t.Fatalf("buffered blocks re-read the device: %d -> %d", st.Reads, after.Reads)
	}
	if got != first.completion {
		t.Fatalf("buffer-served read completed at %v, want %v", got, first.completion)
	}
	if st := s.Stats(); st.PrefetchBlocks != 16 || st.PrefetchHits != 16 {
		t.Fatalf("PrefetchBlocks = %d, PrefetchHits = %d, want 16 and 16", st.PrefetchBlocks, st.PrefetchHits)
	}
}

// Buffered reports a prefetched block and its ready time without
// consuming it: the entry is still there for Submit, which then serves it
// (and only then counts a prefetch hit) without touching the device.
func TestBufferedLeavesTheEntry(t *testing.T) {
	g, s, dev := newReadaheadSched(Config{}, 8)
	if _, ok := s.Buffered(101); ok {
		t.Fatal("empty buffer reports block 101")
	}
	first := enqueue(g, s, 0, device.Read, 100, 1, seqClass)
	drain(g)
	for i := 0; i < 2; i++ {
		ready, ok := s.Buffered(101)
		if !ok || ready != first.completion {
			t.Fatalf("look %d: Buffered(101) = %v, %v, want %v, true", i, ready, ok, first.completion)
		}
	}
	if _, ok := s.Buffered(100); ok {
		t.Fatal("the demanded block itself is reported buffered")
	}
	if _, ok := s.Buffered(109); ok {
		t.Fatal("a block past the readahead window is reported buffered")
	}
	if st := s.Stats(); st.PrefetchHits != 0 {
		t.Fatalf("Buffered counted %d prefetch hits", st.PrefetchHits)
	}
	reads := dev.Stats().Reads
	if got := s.Submit(first.completion, device.Read, 101, 1, seqClass, dss.DefaultTenant, nil); got != first.completion {
		t.Fatalf("read after Buffered completed at %v, want %v", got, first.completion)
	}
	if dev.Stats().Reads != reads || s.Stats().PrefetchHits != 1 {
		t.Fatalf("read after Buffered: %d device reads, %d prefetch hits, want %d and 1", dev.Stats().Reads, s.Stats().PrefetchHits, reads)
	}
	if _, ok := s.Buffered(101); ok {
		t.Fatal("a block Submit consumed is still reported buffered")
	}
}

// A write through the scheduler invalidates overlapping prefetched
// blocks, so a later read pays for the fresh copy.
func TestWriteInvalidatesReadahead(t *testing.T) {
	g, s, dev := newReadaheadSched(Config{}, 8)
	w := enqueue(g, s, 0, device.Read, 100, 1, seqClass)
	drain(g)
	s.Submit(w.completion, device.Write, 103, 1, dss.ClassWriteBuffer, dss.DefaultTenant, nil)
	before := dev.Stats().Reads
	s.Submit(w.completion, device.Read, 103, 1, seqClass, dss.DefaultTenant, nil)
	if dev.Stats().Reads == before {
		t.Fatal("stale prefetched block served after overwrite")
	}
}

// Background work yields to foreground: destages queued alongside a
// foreground read are granted after it.
func TestBackgroundYields(t *testing.T) {
	g, s, _ := newTestSched(Config{})
	s.mu.Lock()
	s.enqueueLocked(nil, 0, device.Write, 5000, 1, dss.ClassWriteBuffer, dss.DefaultTenant) // background
	fg := bareWaiter(dss.Class(2), dss.DefaultTenant)
	s.enqueueLocked(fg, 0, device.Read, 100, 1, dss.Class(2), dss.DefaultTenant)
	s.mu.Unlock()
	g.Drain()
	// Foreground granted first: its completion equals its own service
	// (device idle), not service plus the destage.
	solo := device.New(device.Cheetah15K()).Access(0, device.Read, 100, 1)
	if fg.completion != solo {
		t.Fatalf("foreground read waited behind background work: %v vs %v", fg.completion, solo)
	}
}

// Closed-population dispatch: two registered streams submit
// concurrently; the grant happens only when both are blocked, so the
// log write wins the device regardless of which goroutine called first.
func TestBarrierPriority(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		g, s, _ := newTestSched(Config{})
		var scanClk, logClk simclock.Clock
		g.Register(&scanClk)
		g.Register(&logClk)
		var scanEnd, logEnd time.Duration
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			defer g.Unregister(&scanClk)
			scanEnd = s.Submit(0, device.Read, 100000, 64, seqClass, dss.DefaultTenant, &scanClk)
		}()
		go func() {
			defer wg.Done()
			defer g.Unregister(&logClk)
			logEnd = s.Submit(0, device.Write, 500000, 1, dss.ClassLog, dss.DefaultTenant, &logClk)
		}()
		wg.Wait()
		if logEnd >= scanEnd {
			t.Fatalf("trial %d: log %v did not beat scan %v", trial, logEnd, scanEnd)
		}
	}
}

// Latency histograms: the scheduler records per-class end-to-end
// latency on the device for foreground requests.
func TestPerClassLatencyRecorded(t *testing.T) {
	g, s, dev := newTestSched(Config{})
	enqueue(g, s, 0, device.Write, 0, 1, dss.ClassLog)
	enqueue(g, s, 0, device.Read, 100, 2, seqClass)
	drain(g)
	st := dev.Stats()
	if st.PerClass[int(dss.ClassLog)].Count != 1 {
		t.Fatalf("log histogram %+v", st.PerClass[int(dss.ClassLog)])
	}
	h := st.PerClass[int(seqClass)]
	if h.Count != 1 || h.Max == 0 {
		t.Fatalf("seq histogram %+v", h)
	}
	if q := h.Quantile(0.99); q < h.Mean()/2 || q > h.Max {
		t.Fatalf("p99 %v outside [mean/2=%v, max=%v]", q, h.Mean()/2, h.Max)
	}
}

// TestBackgroundBudgetUnderSaturation is the write-back throttling
// contract: a foreground phase that saturates the device can no longer
// starve the destage backlog — the token budget forces background a
// bounded share of device time — while deferred adjacent destages
// coalesce instead of paying one positioning penalty each.
func TestBackgroundBudgetUnderSaturation(t *testing.T) {
	g, s, dev := newTestSched(Config{BackgroundShare: 0.2})
	// Everything arrives at t=0: the device's busy horizon races ahead of
	// the arrivals, which is what saturation means in virtual time (a
	// destage arriving on an idle device would simply be granted).
	for i := 0; i < 300; i++ {
		// An adjacent destage backlog builds up alongside a continuous
		// foreground stream of scattered reads.
		s.SubmitBackground(0, device.Write, 500000+int64(i), 1, dss.ClassWriteBuffer, dss.DefaultTenant)
		s.Submit(0, device.Read, int64((i*7919)%100000), 1, dss.Class(2), dss.DefaultTenant, nil)
	}
	st := s.Stats()
	if st.BudgetGrants == 0 {
		t.Fatal("budget never granted background device time under a saturated foreground")
	}
	if st.BackgroundGrants == 0 || st.BackgroundBlocks <= st.BackgroundGrants {
		t.Fatalf("deferred destages did not coalesce: %d grants carried %d blocks",
			st.BackgroundGrants, st.BackgroundBlocks)
	}
	// The backlog is bounded well below the 300 submissions: the budget
	// keeps draining it during the flood.
	if st.MaxBackgroundQueue >= 300 {
		t.Fatalf("backlog grew unboundedly: max %d", st.MaxBackgroundQueue)
	}
	g.Drain()
	if got := dev.Stats().BlocksWrite; got != 300 {
		t.Fatalf("blocks written = %d, want 300 after the final drain", got)
	}
}

// TestIdleDeviceGrantsUncreditedBackground: with no credit and a
// deferred backlog, a background write arriving once the device has gone
// idle is granted at once, and the backlog that arrived while it was busy
// stays queued.
func TestIdleDeviceGrantsUncreditedBackground(t *testing.T) {
	_, s, dev := newTestSched(Config{BackgroundShare: 0.2})
	dev.Access(0, device.Write, 0, 64) // busy past t=0, head left at LBA 64
	s.SubmitBackground(0, device.Write, 900000, 1, dss.ClassWriteBuffer, dss.DefaultTenant)
	if q := s.queued.Load(); q != 1 {
		t.Fatalf("a destage arriving at a busy device was not deferred: %d queued", q)
	}
	s.SubmitBackground(dev.BusyUntil()+time.Millisecond, device.Write, 100, 1, dss.ClassWriteBuffer, dss.DefaultTenant)
	if q, w := s.queued.Load(), dev.Stats().BlocksWrite; q != 1 || w != 65 {
		t.Fatalf("idle device: %d queued, %d blocks written (want 1 and 65)", q, w)
	}
	if st := s.Stats(); st.BudgetGrants != 0 || st.BudgetDeposits != 0 {
		t.Fatalf("the idle grant used credit: %+v", st)
	}
}

// TestBackgroundShareDisabled is the pre-throttling ablation: with a
// negative share, background is granted eagerly (never deferred past the
// drain that follows its submission), reproducing the old behaviour.
func TestBackgroundShareDisabled(t *testing.T) {
	_, s, dev := newTestSched(Config{BackgroundShare: -1})
	for i := 0; i < 50; i++ {
		s.SubmitBackground(0, device.Write, 500000+int64(i), 1, dss.ClassWriteBuffer, dss.DefaultTenant)
	}
	if got := dev.Stats().BlocksWrite; got != 50 {
		t.Fatalf("eager background left %d of 50 blocks unwritten", 50-got)
	}
	if st := s.Stats(); st.BudgetGrants != 0 {
		t.Fatalf("budget accounting active while disabled: %d", st.BudgetGrants)
	}
}

// TestBackgroundWriteAbsorption: a newer background write to the same
// block supersedes a deferred one; only the latest copy reaches the
// device.
func TestBackgroundWriteAbsorption(t *testing.T) {
	g, s, dev := newTestSched(Config{BackgroundShare: 0.5})
	for i := 0; i < 10; i++ {
		s.SubmitBackground(0, device.Write, 700000, 1, dss.ClassWriteBuffer, dss.DefaultTenant)
	}
	g.Drain()
	// The first write lands on the idle device; the rest arrive while it
	// is busy, defer, and absorb down to a single superseding copy.
	if got := s.Stats().Absorbed; got != 8 {
		t.Fatalf("Absorbed = %d, want 8", got)
	}
	if got := dev.Stats().BlocksWrite; got != 2 {
		t.Fatalf("device wrote %d blocks, want 2 after absorption", got)
	}
}

// A parked stream has not left. Two registered streams share a device
// with a deferred destage backlog and no write-back credit. One stream
// parks and the other submits: everybody is blocked, so the foreground
// read is dispatched — and the backlog stays queued, apart from the one
// batch a dispatch event lets onto a device with no foreground waiting.
// The same holds when the second stream parks too: the last runnable
// stream going to sleep is not the last stream leaving (parking by
// Unregister made it look that way and force-granted the whole backlog).
// Only when both really leave does everything drain.
func TestParkedStreamHasNotLeft(t *testing.T) {
	const backlog = 10
	g, s, dev := newTestSched(Config{BackgroundShare: 0.2})
	dev.Access(0, device.Write, 0, 64) // a busy device defers background arriving at t=0
	var a, b simclock.Clock
	g.Register(&a)
	g.Register(&b)
	for i := 0; i < backlog; i++ {
		s.SubmitBackground(0, device.Write, 500000+1000*int64(i), 1, dss.ClassWriteBuffer, dss.DefaultTenant)
	}
	if q := s.queued.Load(); q != backlog {
		t.Fatalf("backlog not deferred: %d of %d queued", q, backlog)
	}

	a.Park()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Submit(0, device.Read, 100, 1, dss.Class(2), dss.DefaultTenant, &b)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("foreground not dispatched with the other stream parked")
	}
	if q := s.queued.Load(); q < backlog-1 {
		t.Fatalf("one stream parked, one served: %d of %d background requests left queued", q, backlog)
	}

	b.Park()
	if q, st := s.queued.Load(), s.Stats(); q < backlog-2 || st.BackgroundGrants > 2 || st.BudgetGrants != 0 {
		t.Fatalf("both streams parked: %d of %d background requests left queued, stats %+v", q, backlog, st)
	}
	a.Unpark()
	b.Unpark()

	g.Unregister(&a)
	if q := s.queued.Load(); q < backlog-2 {
		t.Fatalf("one stream left, one runnable: %d of %d background requests left queued", q, backlog)
	}
	g.Unregister(&b)
	if q, w := s.queued.Load(), dev.Stats().BlocksWrite; q != 0 || w != 64+backlog {
		t.Fatalf("last stream left: %d still queued, %d blocks written (want 0, %d)", q, w, 64+backlog)
	}
}
