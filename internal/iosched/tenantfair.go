// Tenant-weighted fair queueing: the multi-tenant sub-layer of the QoS
// scheduler.
//
// Class rank decides which *band* of traffic owns the device next (log
// before write buffer before caching priorities); weighted fair queueing
// decides which *tenant inside the band* is granted. Each scheduler runs
// start-time fair queueing (SFQ) over granted device blocks: a
// foreground request arriving for tenant t is tagged
//
//	start  = max(vclock, lastFinish[t])
//	finish = start + blocks/weight[t]
//
// and within a class band the request with the lowest finish tag wins
// (ties fall through to the elevator pass). The scheduler's virtual
// clock advances to the start tag of each granted request, so an idle
// tenant re-enters at the current virtual time instead of being repaid
// for time it did not use. Over any interval in which a set of tenants
// stays backlogged, each receives device blocks in proportion to its
// weight; the aging bound is checked before the WFQ order applies, so
// even a weight-1 tenant under a weight-100 flood is granted within
// AgingBound.
//
// Fair sharing activates only when at least one tenant weight is
// configured (Config.TenantWeights, fixed when the group is built). Without
// weights every tag is zero and dispatch degenerates to the class-only
// scheduler, which doubles as the experiment baseline. Background work
// is never tagged: it already sits in a band below all foreground, and
// charging a tenant's destages against its virtual time would bill its
// foreground traffic twice for the same blocks.
package iosched

import (
	"time"

	"hstoragedb/internal/dss"
)

// TenantStats are cumulative per-tenant counters for one scheduler (one
// device). Granted-block shares across tenants are the fairness metric
// the tenants experiment reports against configured weights.
type TenantStats struct {
	// Submitted counts foreground submissions attributed to the tenant.
	Submitted int64
	// Blocks counts foreground device blocks granted to the tenant,
	// including readahead blocks its scan grants were extended by.
	Blocks int64
	// BackgroundBlocks counts background blocks (destages, asynchronous
	// fills) attributed to the tenant.
	BackgroundBlocks int64
	// MaxWait is the longest scheduler-imposed queue delay a granted
	// request of this tenant observed: the device's busy horizon at
	// grant time minus the later of the request's arrival and the
	// horizon at enqueue (the backlog already scheduled ahead of a
	// late-arriving stream is queueing the scheduler cannot undo, so it
	// is not counted). The aging bound caps this delay.
	MaxWait time.Duration
}

// tenantAcct is one tenant's fair-queueing state on one scheduler: the
// finish tag of its most recent foreground block plus its counters.
type tenantAcct struct {
	lastFinish float64
	stats      TenantStats
}

// weightOf returns id's weight in table wm with the implicit default
// of 1.
func weightOf(wm map[dss.TenantID]float64, id dss.TenantID) float64 {
	if w, ok := wm[id]; ok {
		return w
	}
	return 1
}

// TenantStats returns a snapshot of the per-tenant counters of this
// scheduler. Only tenants that were explicitly attributed (non-zero
// tenant ID) or active while fair sharing was on appear.
func (s *Scheduler) TenantStats() map[dss.TenantID]TenantStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[dss.TenantID]TenantStats, len(s.tenants))
	for id, a := range s.tenants {
		out[id] = a.stats
	}
	return out
}

// trackTenant reports whether per-tenant accounting applies to tenant
// t: always under fair sharing, and for explicitly attributed tenants
// even without weights (the class-only baseline still reports
// per-tenant shares).
func trackTenant(t dss.TenantID, fair bool) bool {
	return t != dss.DefaultTenant || fair
}

// acctLocked returns (allocating on first use) tenant t's accounting
// state on this scheduler. Caller holds s.mu.
func (s *Scheduler) acctLocked(t dss.TenantID) *tenantAcct {
	a := s.tenants[t]
	if a == nil {
		if s.tenants == nil {
			s.tenants = make(map[dss.TenantID]*tenantAcct)
		}
		a = &tenantAcct{}
		s.tenants[t] = a
	}
	return a
}
