package experiments

import (
	"testing"

	"hstoragedb/internal/dss"
	"hstoragedb/internal/engine/policy"
	"hstoragedb/internal/hybrid"
)

// TestOLTPExperiment exercises the transactional OLTP mix across all four
// storage configurations, with and without the log classification, and
// checks the acceptance contract: deterministic completion, commit
// throughput reported, recovery verified, and log I/O visibly classified
// under the log class on the classification-aware configuration.
func TestOLTPExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment driver")
	}
	e := testEnv(t)
	runs, err := e.OLTPAll(120)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 8 {
		t.Fatalf("%d runs, want 8", len(runs))
	}
	t.Log("\n" + runs.Format())

	byKey := map[[2]interface{}]OLTPRun{}
	for _, r := range runs {
		byKey[[2]interface{}{r.Mode, r.LogClass}] = r
		if r.CommitsPerSec <= 0 {
			t.Errorf("%v log=%v: no commit throughput", r.Mode, r.LogClass)
		}
		if r.RecoveryTime <= 0 {
			t.Errorf("%v log=%v: recovery consumed no simulated time", r.Mode, r.LogClass)
		}
		if r.RecoveredOrders == 0 {
			t.Errorf("%v log=%v: no committed orders verified", r.Mode, r.LogClass)
		}
		if r.LostOrders == 0 {
			t.Errorf("%v log=%v: crash victim not verified absent", r.Mode, r.LogClass)
		}
		if r.TypeStats[policy.LogRequest].Blocks == 0 {
			t.Errorf("%v log=%v: no traffic counted under the log request type", r.Mode, r.LogClass)
		}
	}

	// With classification on, hStorage must show the log class in its
	// per-class snapshot counters, with every log write an SSD hit or
	// allocation (never a bypass to the HDD at this cache size).
	hs := byKey[[2]interface{}{hybrid.HStorage, true}]
	logCS := hs.Storage.Class(dss.ClassLog)
	if logCS.WriteBlocks == 0 {
		t.Error("hStorage with log class: no writes recorded under dss.ClassLog")
	}
	// With classification off, the same traffic must NOT appear under the
	// log class (it travels as write-buffer updates instead).
	hsOff := byKey[[2]interface{}{hybrid.HStorage, false}]
	if hsOff.Storage.Class(dss.ClassLog).WriteBlocks != 0 {
		t.Error("hStorage without log class: traffic leaked into dss.ClassLog")
	}

	// Commit throughput must reflect the storage hierarchy: the hybrid
	// with log classification beats the HDD-only baseline, SSD-only
	// bounds everything from above.
	hdd := byKey[[2]interface{}{hybrid.HDDOnly, true}]
	ssd := byKey[[2]interface{}{hybrid.SSDOnly, true}]
	if !(ssd.CommitsPerSec > hs.CommitsPerSec && hs.CommitsPerSec > hdd.CommitsPerSec) {
		t.Errorf("throughput ordering violated: SSD=%.1f hStorage=%.1f HDD=%.1f",
			ssd.CommitsPerSec, hs.CommitsPerSec, hdd.CommitsPerSec)
	}
}
