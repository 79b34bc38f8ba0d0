package iosched

import (
	"sort"
	"sync"
	"testing"
	"time"

	"hstoragedb/internal/device"
	"hstoragedb/internal/dss"
	"hstoragedb/internal/simclock"
)

// Zero config values mean the documented defaults, and so does a
// negative AgingBound; the DisableBackgroundShare sentinel round-trips
// through withDefaults untouched, so "no background share" is
// representable.
func TestConfigZeroAndSentinels(t *testing.T) {
	def := Config{}.withDefaults()
	if def.AgingBound != defaultAgingBound {
		t.Errorf("zero AgingBound = %v, want default %v", def.AgingBound, defaultAgingBound)
	}
	if def.BackgroundShare != defaultBackgroundShare {
		t.Errorf("zero BackgroundShare = %v, want default %v", def.BackgroundShare, defaultBackgroundShare)
	}
	off := Config{AgingBound: -time.Second, BackgroundShare: DisableBackgroundShare}.withDefaults()
	if off.AgingBound != defaultAgingBound {
		t.Errorf("negative AgingBound = %v, want default %v", off.AgingBound, defaultAgingBound)
	}
	if off.BackgroundShare != DisableBackgroundShare {
		t.Errorf("DisableBackgroundShare clobbered to %v", off.BackgroundShare)
	}
}

// With aging off (a bound longer than the test), the TestAgingBound scenario inverts: the stale
// low-priority request keeps waiting behind fresher high-priority ones
// and no boost is ever recorded.
func TestAgingDisabled(t *testing.T) {
	g, s, dev := newTestSched(Config{AgingBound: agingOff})
	dev.Access(0, device.Write, 0, 64) // busy horizon well past any bound

	low := enqueue(g, s, 0, device.Read, 5000, 1, seqClass)
	high := enqueue(g, s, 0, device.Write, 9000, 1, dss.ClassLog)
	drain(g)
	if high.completion >= low.completion {
		t.Fatalf("priority inverted with aging off: high %v vs low %v", high.completion, low.completion)
	}
	if got := s.Stats().Boosted; got != 0 {
		t.Fatalf("Boosted = %d with aging disabled", got)
	}
}

// TestBackgroundShareZeroIsDefault locks in the documented
// zero-means-default: a Config that sets BackgroundShare to 0 gets the
// 0.3 budget (budget grants happen under saturation), not "no share".
func TestBackgroundShareZeroIsDefault(t *testing.T) {
	_, s, _ := newTestSched(Config{BackgroundShare: 0})
	for i := 0; i < 200; i++ {
		s.SubmitBackground(0, device.Write, 500000+int64(i), 1, dss.ClassWriteBuffer, dss.DefaultTenant)
		s.Submit(0, device.Read, int64((i*7919)%100000), 1, dss.Class(2), dss.DefaultTenant, nil)
	}
	if got := s.Stats().BudgetGrants; got == 0 {
		t.Fatal("BackgroundShare 0 behaved as disabled; zero must mean the 0.3 default")
	}
}

// TestBudgetLedgerBalances is the write-back budget audit: over a
// saturated run with coalesced budget grants, every deposited and
// withdrawn block is accounted exactly once — deposits minus
// withdrawals equals the live credit balance, the balance never goes
// negative, and the overdraw the zero floor forgives (blocks a budget
// grant carried beyond its withdrawal) is bounded by one budget batch
// per grant. Coalesced background blocks are never double-counted:
// each budget grant withdraws at most the blocks it carried, once.
func TestBudgetLedgerBalances(t *testing.T) {
	g, s, _ := newTestSched(Config{BackgroundShare: 0.25})
	for i := 0; i < 400; i++ {
		s.SubmitBackground(0, device.Write, 500000+int64(i), 1, dss.ClassWriteBuffer, dss.DefaultTenant)
		s.Submit(0, device.Read, int64((i*7919)%100000), 1, dss.Class(2), dss.DefaultTenant, nil)
	}
	check := func(when string) {
		s.mu.Lock()
		st, credit := s.stats, s.bgCredit
		s.mu.Unlock()
		if st.BudgetGrants == 0 || st.Coalesced == 0 {
			t.Fatalf("%s: scenario did not exercise coalesced budget grants: %+v", when, st)
		}
		if diff := st.BudgetDeposits - st.BudgetWithdrawals - credit; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("%s: ledger imbalance: deposits %.3f - withdrawals %.3f != credit %.3f",
				when, st.BudgetDeposits, st.BudgetWithdrawals, credit)
		}
		if credit < 0 {
			t.Fatalf("%s: credit balance went negative: %.3f", when, credit)
		}
		if st.BudgetWithdrawals > float64(st.BudgetBlocks) {
			t.Fatalf("%s: withdrawals %.3f exceed the %d blocks budget grants carried (double-counting)",
				when, st.BudgetWithdrawals, st.BudgetBlocks)
		}
		forgiven := float64(st.BudgetBlocks) - st.BudgetWithdrawals
		if forgiven > float64(st.BudgetGrants*budgetMaxCoalesce) {
			t.Fatalf("%s: forgiven overdraw %.3f exceeds one budget batch per grant (%d grants)",
				when, forgiven, st.BudgetGrants)
		}
	}
	check("saturated")
	// A stats reset re-seeds the surviving credit balance as an opening
	// deposit, so the invariant holds in the measured window too.
	g.ResetStats()
	for i := 0; i < 100; i++ {
		s.SubmitBackground(0, device.Write, 600000+int64(i), 1, dss.ClassWriteBuffer, dss.DefaultTenant)
		s.Submit(0, device.Read, int64((i*7919)%100000), 1, dss.Class(2), dss.DefaultTenant, nil)
	}
	check("after reset")
	// Drain grants ride free device time: they must not touch the ledger.
	s.mu.Lock()
	before := s.stats.BudgetWithdrawals
	s.mu.Unlock()
	g.Drain()
	check("drained")
	s.mu.Lock()
	after := s.stats.BudgetWithdrawals
	s.mu.Unlock()
	if after != before {
		t.Fatalf("final drain withdrew budget credit: %.3f -> %.3f", before, after)
	}
}

// TestBudgetRespectsBatchCap: a background chunk larger than the budget
// batch cap is never budget-forced ahead of waiting foreground — the
// cap bounds the latency a budget grant injects, and the head request
// must obey it like the coalescing loop does.
func TestBudgetRespectsBatchCap(t *testing.T) {
	g, s, dev := newTestSched(Config{BackgroundShare: 0.5})
	dev.Access(0, device.Write, 0, 16) // device busy: nothing rides idle time
	s.mu.Lock()
	s.enqueueLocked(nil, 0, device.Write, 500000, 2*budgetMaxCoalesce, dss.ClassWriteBuffer, dss.DefaultTenant)
	fg := bareWaiter(dss.Class(2), dss.DefaultTenant)
	s.enqueueLocked(fg, 0, device.Read, 100, 1, dss.Class(2), dss.DefaultTenant)
	s.bgCredit = 20 // ample credit: the old code would budget-grant the big chunk
	s.mu.Unlock()
	g.Drain()
	s.mu.Lock()
	budgetGrants := s.stats.BudgetGrants
	s.mu.Unlock()
	if budgetGrants != 0 {
		t.Fatalf("oversized background chunk was budget-granted ahead of foreground (%d budget grants)", budgetGrants)
	}
	// Foreground was served first: its completion reflects only the
	// pre-existing busy horizon plus its own service, not the destage.
	ref := device.New(device.Cheetah15K())
	ref.Access(0, device.Write, 0, 16)
	want := ref.Access(0, device.Read, 100, 1)
	if fg.completion != want {
		t.Fatalf("foreground waited behind the oversized destage: %v, want %v", fg.completion, want)
	}
}

// TestAgedRequestKeepsElevatorAndCoalescing locks in satellite-audited
// behaviour: an aged request wins by age (not by elevator distance),
// but its grant still assembles the normal coalesced batch, and a
// multi-chunk same-tenant write drains in LBA order (no same-tenant
// write reordering through the aging path).
func TestAgedRequestKeepsElevatorAndCoalescing(t *testing.T) {
	g, s, dev := newTestSched(Config{AgingBound: 2 * time.Millisecond})
	s.maxCoalesce = 8
	dev.Access(0, device.Write, 0, 128) // ~18ms busy: queued work is instantly overdue

	// One multi-chunk, far-away, low-class write submission (3 chunks)
	// plus adjacent same-class single writes, against fresher log writes
	// sitting near the device head.
	aged := enqueue(g, s, 0, device.Write, 500000, 20, seqClass)
	tail := enqueue(g, s, 0, device.Write, 500020, 4, seqClass)
	var logs []*waiter
	for i := 0; i < 4; i++ {
		logs = append(logs, enqueue(g, s, time.Millisecond, device.Write, int64(128+2*i), 1, dss.ClassLog))
	}
	drain(g)

	if s.Stats().Boosted == 0 {
		t.Fatal("aged request was never boosted")
	}
	// Age, not elevator distance or rank, picked the winner: the aged
	// far-away write finished no later than the fresher near log writes.
	for i, l := range logs {
		if aged.completion > l.completion {
			t.Fatalf("aged write %v finished after fresher log write[%d] %v", aged.completion, i, l.completion)
		}
	}
	// The aged grant still coalesced: 24 adjacent seq-class blocks in
	// maxCoalesce-sized batches that continue each other's LBA run
	// (SeqAccesses counts continuations), so same-tenant write order is
	// LBA order, not scrambled by the boost.
	st := dev.Stats()
	if st.Writes != 1+3+4 { // initial occupancy + 3 batches of 8 + 4 log writes
		t.Fatalf("device writes = %d, want 8 (3 coalesced seq batches + 4 log + occupancy)", st.Writes)
	}
	if st.SeqAccesses < 2 {
		t.Fatalf("aged chunks did not drain as a continuing LBA run: SeqAccesses = %d", st.SeqAccesses)
	}
	if tail.completion < aged.completion {
		t.Fatalf("adjacent tail write %v completed before the aged head %v", tail.completion, aged.completion)
	}
}

// TestTenantFairSharesConverge: two backlogged tenants with 9:1 weights
// receive device blocks in weight proportion while both are pending —
// among the first 100 granted requests, the weight-9 tenant holds its
// 90% share within ±10%.
func TestTenantFairSharesConverge(t *testing.T) {
	g, s, _ := newTestSched(Config{AgingBound: agingOff,
		TenantWeights: map[dss.TenantID]float64{1: 9, 2: 1}})

	type done struct {
		tenant dss.TenantID
		w      *waiter
	}
	var ws []done
	for i := 0; i < 100; i++ {
		w1 := bareWaiter(dss.Class(2), 1)
		w2 := bareWaiter(dss.Class(2), 2)
		s.mu.Lock()
		// Stride 2 within disjoint regions: same class, never adjacent,
		// so coalescing cannot blur the share measurement.
		s.enqueueLocked(w1, 0, device.Read, int64(2*i), 1, dss.Class(2), 1)
		s.enqueueLocked(w2, 0, device.Read, 1_000_000+int64(2*i), 1, dss.Class(2), 2)
		s.mu.Unlock()
		ws = append(ws, done{1, w1}, done{2, w2})
	}
	drain(g)
	sort.Slice(ws, func(i, j int) bool { return ws[i].w.completion < ws[j].w.completion })
	heavy := 0
	for _, d := range ws[:100] {
		if d.tenant == 1 {
			heavy++
		}
	}
	if heavy < 80 || heavy > 100 {
		t.Fatalf("weight-9 tenant got %d of the first 100 grants, want 90 +/- 10", heavy)
	}
	stats := s.TenantStats()
	if stats[1].Blocks != 100 || stats[2].Blocks != 100 {
		t.Fatalf("full drain should serve all demand: %+v", stats)
	}
}

// TestTenantStarvationFreedom: a weight-1 tenant against a weight-100
// flood under full saturation still sees every request granted within
// the aging bound (plus one in-flight grant), while the shares remain
// heavily skewed toward the heavy tenant.
func TestTenantStarvationFreedom(t *testing.T) {
	bound := 5 * time.Millisecond
	g, s, _ := newTestSched(Config{AgingBound: bound,
		TenantWeights: map[dss.TenantID]float64{1: 100, 2: 1}})

	var light, heavy simclock.Clock
	g.Register(&heavy)
	g.Register(&light)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer g.Unregister(&heavy)
		for i := 0; i < 400; i++ {
			end := s.Submit(heavy.Now(), device.Read, 2_000_000+int64(2*i), 1, dss.Class(2), 1, &heavy)
			heavy.AdvanceTo(end)
		}
	}()
	go func() {
		defer wg.Done()
		defer g.Unregister(&light)
		for i := 0; i < 40; i++ {
			end := s.Submit(light.Now(), device.Read, int64(2*i), 1, dss.Class(2), 2, &light)
			light.AdvanceTo(end)
		}
	}()
	wg.Wait()

	stats := s.TenantStats()
	// Every light-tenant request was granted within the aging bound of
	// scheduler-imposed delay, plus the grant in flight when it became
	// overdue (an HDD random access is ~5.4ms).
	slack := 10 * time.Millisecond
	if stats[2].MaxWait > bound+slack {
		t.Fatalf("weight-1 tenant starved: max wait %v exceeds bound %v + slack", stats[2].MaxWait, bound)
	}
	if stats[1].MaxWait > bound+slack {
		t.Fatalf("heavy tenant starved: max wait %v", stats[1].MaxWait)
	}
	if s.Stats().Boosted == 0 {
		t.Fatal("aging never intervened; the flood was not saturating")
	}
}

// TestCrossTenantCoalescingRestricted: with fair sharing on, adjacent
// same-class requests of different tenants stay separate device
// accesses (tenant B must not ride tenant A's grant); with fair sharing
// off they merge as before.
func TestCrossTenantCoalescingRestricted(t *testing.T) {
	run := func(fair bool) int64 {
		cfg := Config{}
		if fair {
			cfg.TenantWeights = map[dss.TenantID]float64{1: 1, 2: 1}
		}
		g, s, dev := newTestSched(cfg)
		w1 := bareWaiter(dss.Class(2), 1)
		w2 := bareWaiter(dss.Class(2), 2)
		s.mu.Lock()
		s.enqueueLocked(w1, 0, device.Read, 100, 1, dss.Class(2), 1)
		s.enqueueLocked(w2, 0, device.Read, 101, 1, dss.Class(2), 2)
		s.mu.Unlock()
		g.Drain()
		return dev.Stats().Reads
	}
	if got := run(false); got != 1 {
		t.Fatalf("class-only scheduler no longer coalesces across tenants: %d accesses", got)
	}
	if got := run(true); got != 2 {
		t.Fatalf("fair sharing let a tenant ride another's grant: %d accesses", got)
	}
}

// TestTenantAccountingThreads: tenant identity reaches the per-tenant
// scheduler counters and the device's per-tenant latency histograms;
// unattributed single-tenant traffic stays off both.
func TestTenantAccountingThreads(t *testing.T) {
	g, s, dev := newTestSched(Config{})
	s.Submit(0, device.Read, 100, 1, dss.Class(2), dss.DefaultTenant, nil)
	if n := len(s.TenantStats()); n != 0 {
		t.Fatalf("default tenant tracked without fair sharing: %d entries", n)
	}
	s.Submit(0, device.Read, 200, 2, dss.Class(2), 7, nil)
	s.SubmitBackground(0, device.Write, 900, 1, dss.ClassWriteBuffer, 7)
	g.Drain()
	st := s.TenantStats()[7]
	if st.Submitted != 1 || st.Blocks != 2 || st.BackgroundBlocks != 1 {
		t.Fatalf("tenant 7 stats = %+v", st)
	}
	if h := dev.Stats().PerTenant[7]; h.Count != 1 {
		t.Fatalf("tenant 7 latency histogram missing: %+v", dev.Stats().PerTenant)
	}
	if _, ok := dev.Stats().PerTenant[0]; ok {
		t.Fatal("default tenant recorded a latency histogram")
	}
}
