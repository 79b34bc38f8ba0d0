package experiments

import (
	"testing"
	"time"

	"hstoragedb/internal/dss"
	"hstoragedb/internal/hybrid"
)

// TestTenantsFairness is the acceptance gate of the multi-tenant
// experiment, run on the SSD-only pair (where interleaving tenants
// carries no seek penalty, so fairness must be essentially free):
//
//   - fair arm: per-tenant granted-block shares within +/-10 points of
//     the configured weights, Jain's index near 1
//   - no request waits past the aging bound (plus one in-flight grant)
//   - aggregate throughput within 5% of the class-only baseline
func TestTenantsFairness(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment driver")
	}
	e := sharedTestEnv(t)
	specs := []TenantSpec{{ID: 1, Weight: 3}, {ID: 2, Weight: 1}}

	base, err := e.RunTenants(hybrid.SSDOnly, specs, 1200, 15, false)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	fair, err := e.RunTenants(hybrid.SSDOnly, specs, 1200, 15, true)
	if err != nil {
		t.Fatalf("fair: %v", err)
	}
	t.Logf("\n%s", TenantsRuns{base, fair}.Format())

	if fair.MaxShareErr > 0.10 {
		t.Errorf("fair-share error %.1f%% exceeds 10 points", 100*fair.MaxShareErr)
	}
	if fair.Jain < 0.95 {
		t.Errorf("fair arm Jain = %.3f, want >= 0.95", fair.Jain)
	}
	if fair.Jain <= base.Jain {
		t.Errorf("fair arm Jain %.3f not better than class-only %.3f", fair.Jain, base.Jain)
	}
	slack := 10 * time.Millisecond
	for _, tr := range fair.Tenants {
		if tr.MaxWait > fair.AgingBound+slack {
			t.Errorf("tenant %d waited %v, past the %v aging bound", tr.ID, tr.MaxWait, fair.AgingBound)
		}
	}
	// Fairness must not tax aggregate throughput on a seek-free device:
	// same total demand, makespans within 5% of each other.
	ratio := float64(fair.Makespan) / float64(base.Makespan)
	if ratio > 1.05 || ratio < 0.95 {
		t.Errorf("aggregate throughput moved %.1f%% vs class-only (makespan %v vs %v)",
			100*(ratio-1), fair.Makespan, base.Makespan)
	}
}

// TestTenantsHybridCacheShares runs the hStorage fair arm and checks
// the tenant plumbing end to end at the engine level: every tenant
// commits transactions, and per-tenant latency histograms exist.
func TestTenantsHybridCacheShares(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment driver")
	}
	e := sharedTestEnv(t)
	specs := []TenantSpec{{ID: 1, Weight: 3}, {ID: 2, Weight: 1}}
	run, err := e.RunTenants(hybrid.HStorage, specs, 800, 10, true)
	if err != nil {
		t.Fatal(err)
	}
	if run.MaxShareErr > 0.10 {
		t.Errorf("hStorage fair-share error %.1f%% exceeds 10 points", 100*run.MaxShareErr)
	}
	for _, tr := range run.Tenants {
		if tr.Commits == 0 {
			t.Errorf("tenant %d committed nothing", tr.ID)
		}
		if tr.P99 == 0 {
			t.Errorf("tenant %d has no latency samples", tr.ID)
		}
	}
	if run.Tenants[0].ID != dss.TenantID(1) {
		t.Fatalf("tenant order scrambled: %+v", run.Tenants)
	}
}
