package hybrid

import (
	"testing"
	"time"

	"hstoragedb/internal/device"
	"hstoragedb/internal/dss"
	"hstoragedb/internal/iosched"
)

// tenantRead submits one cached-priority read attributed to a tenant.
func tenantRead(sys System, at time.Duration, tenant dss.TenantID, lba int64) time.Duration {
	return sys.Submit(at, dss.Request{
		Op: device.Read, LBA: lba, Blocks: 1, Class: dss.Class(2), Tenant: tenant,
	})
}

// TestTenantCacheShares: with tenant weights configured, a flooding
// tenant that exceeds its capacity share recycles its own blocks — the
// under-share tenant's working set survives the flood. Without weights
// the same flood evicts the cold tenant entirely (the class-only
// baseline this feature exists to fix).
func TestTenantCacheShares(t *testing.T) {
	build := func(fair bool) (System, *priorityPolicy) {
		cfg := Config{Mode: HStorage, CacheBlocks: 64}
		if fair {
			cfg.Sched.TenantWeights = map[dss.TenantID]float64{1: 1, 2: 1}
		}
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sys, sys.(*core).pol.(*priorityPolicy)
	}
	flood := func(sys System) {
		// Tenant 2 warms a small working set; tenant 1 fills the cache
		// and keeps allocating past its share.
		at := time.Duration(0)
		for i := 0; i < 10; i++ {
			at = tenantRead(sys, at, 2, int64(i))
		}
		for i := 0; i < 54; i++ {
			at = tenantRead(sys, at, 1, 1000+int64(i))
		}
		for i := 0; i < 10; i++ {
			at = tenantRead(sys, at, 1, 2000+int64(i))
		}
	}

	sys, pc := build(true)
	flood(sys)
	occ := pc.cachedBy
	if occ[2] != 10 {
		t.Fatalf("under-share tenant lost cached blocks to an over-share flood: occupancy %+v", occ)
	}
	if got := sys.Stats().ShareEvictions; got < 10 {
		t.Fatalf("ShareEvictions = %d, want >= 10 redirected evictions", got)
	}

	base, pcBase := build(false)
	flood(base)
	if occ := pcBase.cachedBy; occ[2] != 0 {
		t.Fatalf("class-only baseline unexpectedly protects tenants: occupancy %+v", occ)
	}
}

// TestTenantRetagFollowsUse: capacity charges follow the last tenant
// that touched a shared block.
func TestTenantRetagFollowsUse(t *testing.T) {
	sys, err := New(Config{Mode: HStorage, CacheBlocks: 64,
		Sched: iosched.Config{TenantWeights: map[dss.TenantID]float64{1: 1, 2: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	pc := sys.(*core).pol.(*priorityPolicy)
	at := tenantRead(sys, 0, 1, 42) // allocate under tenant 1
	tenantRead(sys, at, 2, 42)      // hit under tenant 2
	occ := pc.cachedBy
	if occ[1] != 0 || occ[2] != 1 {
		t.Fatalf("retag did not follow use: occupancy %+v", occ)
	}
}
