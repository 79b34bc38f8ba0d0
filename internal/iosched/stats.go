package iosched

import (
	"hstoragedb/internal/dss"
	"hstoragedb/internal/obs"
)

// Stats are cumulative counters for one scheduler (one device).
type Stats struct {
	// Submitted counts foreground submissions; Granted counts device
	// accesses actually issued (after coalescing and chunk merging).
	Submitted int64
	Granted   int64
	// Coalesced counts queued requests merged into another grant.
	Coalesced int64
	// Boosted counts grants where the aging bound overrode strict
	// priority order.
	Boosted int64
	// PrefetchBlocks counts blocks read ahead; PrefetchHits counts
	// blocks later served from the readahead buffer without a device
	// access.
	PrefetchBlocks int64
	PrefetchHits   int64
	// MaxQueue is the deepest the pending queue has been.
	MaxQueue int
	// BackgroundGrants counts device accesses granted to background
	// work; BackgroundBlocks the blocks they carried; BudgetGrants the
	// grants the write-back budget forced ahead of waiting foreground.
	BackgroundGrants int64
	BackgroundBlocks int64
	BudgetGrants     int64
	// BudgetDeposits, BudgetWithdrawals and BudgetBlocks audit the
	// write-back token budget in blocks. Foreground grants deposit
	// share*blocks (capped at one coalesced batch of credit — a capped
	// deposit is forfeited, not banked); budget grants withdraw the
	// credit they actually consumed, so at any point
	// deposits - withdrawals == credit exactly and coalesced background
	// blocks are provably not double-counted against the foreground
	// budget. BudgetBlocks counts the blocks budget grants carried:
	// BudgetBlocks - BudgetWithdrawals is the overdraw forgiven by the
	// zero floor, bounded by one budget batch per grant.
	BudgetDeposits    float64
	BudgetWithdrawals float64
	BudgetBlocks      int64
	// Absorbed counts queued background writes dropped because a newer
	// background write to the same block superseded them before they
	// reached the device (write absorption in the deferred backlog).
	Absorbed int64
	// MaxBackgroundQueue is the deepest the background backlog has been.
	MaxBackgroundQueue int
}

// Stats returns a snapshot of the scheduler counters.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// ResetStats clears every scheduler's counters — the per-tenant ones
// included — but neither the readahead buffer contents nor the tenants'
// fair-queueing tags (virtual time keeps flowing across a stats reset).
// The write-back credit balance likewise carries across the reset; it
// is re-seeded into the fresh ledger as an opening deposit so the
// documented invariant deposits - withdrawals == credit keeps holding
// in the measured window.
func (g *Group) ResetStats() {
	for _, s := range g.schedulers() {
		s.mu.Lock()
		s.stats = Stats{BudgetDeposits: s.bgCredit}
		for _, a := range s.tenants {
			a.stats = TenantStats{}
		}
		s.mu.Unlock()
	}
}

// bandWaitLocked returns (caching on first use) the `iosched.band.wait`
// histogram of one class band on this device: the scheduler-imposed
// grant delay, measured the way the aging bound measures it. Caller
// holds s.mu.
func (s *Scheduler) bandWaitLocked(class int) *obs.HistVar {
	if s.mBandWait == nil {
		return nil
	}
	hv := s.mBandWait[class]
	if hv == nil {
		hv = s.g.obs.Registry().Histogram("iosched.band.wait",
			obs.L("dev", s.dev.Spec().Name), obs.LInt("class", int64(class)))
		s.mBandWait[class] = hv
	}
	return hv
}

// tenantBlocksLocked returns (caching on first use) the
// `iosched.tenant.blocks` counter of one tenant on this device: the
// foreground device blocks granted to it, the fairness metric tenant
// shares are judged by. Caller holds s.mu.
func (s *Scheduler) tenantBlocksLocked(t dss.TenantID) *obs.Counter {
	if s.mTenantBlocks == nil {
		return nil
	}
	c := s.mTenantBlocks[t]
	if c == nil {
		c = s.g.obs.Registry().Counter("iosched.tenant.blocks",
			obs.L("dev", s.dev.Spec().Name), obs.LInt("tenant", int64(t)))
		s.mTenantBlocks[t] = c
	}
	return c
}
