package storagemgr

import (
	"testing"

	"hstoragedb/internal/dss"
	"hstoragedb/internal/engine/policy"
	"hstoragedb/internal/hybrid"
	"hstoragedb/internal/lsm"
	"hstoragedb/internal/pagestore"
	"hstoragedb/internal/simclock"
)

func newMgr(t *testing.T) (*Manager, *pagestore.Store, hybrid.System) {
	t.Helper()
	store := pagestore.NewStore()
	if err := store.Create(1); err != nil {
		t.Fatal(err)
	}
	sys, err := hybrid.New(hybrid.Config{Mode: hybrid.HStorage, CacheBlocks: 256})
	if err != nil {
		t.Fatal(err)
	}
	return New(store, sys, policy.NewAssignmentTable(dss.DefaultPolicySpace())), store, sys
}

func TestReadClassifiesAndCharges(t *testing.T) {
	mgr, _, sys := newMgr(t)
	var clk simclock.Clock
	tag := policy.Tag{Object: 1, Content: policy.Table, Pattern: policy.Sequential}
	if _, err := mgr.ReadPage(&clk, tag, 0); err != nil {
		t.Fatal(err)
	}
	if clk.Now() == 0 {
		t.Fatal("read charged no simulated time")
	}
	space := dss.DefaultPolicySpace()
	if sys.Stats().Class(space.Sequential()).ReadBlocks != 1 {
		t.Fatal("sequential read not classified N-1")
	}
	ts := mgr.TypeStats()
	if ts[policy.SequentialRequest].Requests != 1 {
		t.Fatalf("type stats %+v", ts)
	}
}

func TestReadNeverClassifiedUpdate(t *testing.T) {
	mgr, _, sys := newMgr(t)
	var clk simclock.Clock
	// Even if a caller leaves Update set on the tag, a read is not a
	// Rule 4 update.
	tag := policy.Tag{Object: 1, Content: policy.Table, Pattern: policy.Sequential, Update: true}
	if _, err := mgr.ReadPage(&clk, tag, 0); err != nil {
		t.Fatal(err)
	}
	if sys.Stats().Class(dss.ClassWriteBuffer).Requests != 0 {
		t.Fatal("read classified as write-buffer")
	}
}

func TestWriteClassification(t *testing.T) {
	mgr, store, sys := newMgr(t)
	if err := store.Create(1000); err != nil {
		t.Fatal(err)
	}
	var clk simclock.Clock
	// Table write = update (Rule 4).
	if err := mgr.WritePage(&clk, policy.Tag{Object: 1, Content: policy.Table}, 0, []byte{1}); err != nil {
		t.Fatal(err)
	}
	// Temp write = priority 1 (Rule 3).
	if err := mgr.WritePage(&clk, policy.Tag{Object: 1000, Content: policy.Temp}, 0, []byte{1}); err != nil {
		t.Fatal(err)
	}
	snap := sys.Stats()
	if snap.Class(dss.ClassWriteBuffer).WriteBlocks != 1 {
		t.Fatal("table write not in write buffer")
	}
	if snap.Class(dss.DefaultPolicySpace().Temporary()).WriteBlocks != 1 {
		t.Fatal("temp write not priority 1")
	}
	ts := mgr.TypeStats()
	if ts[policy.UpdateRequest].Requests != 1 || ts[policy.TempRequest].Requests != 1 {
		t.Fatalf("type stats %+v", ts)
	}
}

func TestBackgroundWriteDoesNotBlock(t *testing.T) {
	mgr, _, _ := newMgr(t)
	var clk simclock.Clock
	if err := mgr.WritePageBackground(&clk, policy.Tag{Object: 1, Content: policy.Table}, 0, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if clk.Now() != 0 {
		t.Fatalf("background write advanced the clock to %v", clk.Now())
	}
	// But the device was occupied: Wait picks up the in-flight work.
	mgr.Wait(&clk)
	if clk.Now() == 0 {
		t.Fatal("Wait found no in-flight work")
	}
}

// TestDeleteObjectTrims deletes a cached temp object: the manager TRIMs
// its blocks out of the cache, unless the TRIM ablation withholds the
// command, in which case the dead blocks stay cached.
func TestDeleteObjectTrims(t *testing.T) {
	for _, abl := range []policy.Ablation{policy.NoAblation, policy.NoTrim} {
		noTrim := abl == policy.NoTrim
		mgr, store, sys := newMgr(t)
		mgr.table.Ablation = abl
		var clk simclock.Clock
		if err := store.Create(50); err != nil {
			t.Fatal(err)
		}
		tag := policy.Tag{Object: 50, Content: policy.Temp}
		for i := int64(0); i < 4; i++ {
			if err := mgr.WritePage(&clk, tag, i, []byte{9}); err != nil {
				t.Fatal(err)
			}
		}
		if sys.Stats().CachedBlocks != 4 {
			t.Fatalf("noTrim=%v: setup: cached %d", noTrim, sys.Stats().CachedBlocks)
		}
		if err := mgr.DeleteObject(&clk, 50); err != nil {
			t.Fatal(err)
		}
		wantTrimmed, wantCached := int64(4), 0
		if noTrim {
			wantTrimmed, wantCached = 0, 4
		}
		s := sys.Stats()
		if s.Trimmed != wantTrimmed || s.CachedBlocks != wantCached {
			t.Fatalf("noTrim=%v: trimmed=%d cached=%d after delete, want %d and %d",
				noTrim, s.Trimmed, s.CachedBlocks, wantTrimmed, wantCached)
		}
		if store.Exists(50) {
			t.Fatalf("noTrim=%v: object survives delete", noTrim)
		}
	}
}

// TestCompactionTrims drives an LSM backend through flushes and
// compactions: the extents a compaction frees are TRIMmed, unless the
// TRIM ablation withholds the commands.
func TestCompactionTrims(t *testing.T) {
	for _, abl := range []policy.Ablation{policy.NoAblation, policy.NoTrim} {
		noTrim := abl == policy.NoTrim
		store := lsm.New(lsm.Config{MemtablePages: 4, L0Tables: 2})
		if err := store.Create(1); err != nil {
			t.Fatal(err)
		}
		sys, err := hybrid.New(hybrid.Config{Mode: hybrid.HStorage, CacheBlocks: 256})
		if err != nil {
			t.Fatal(err)
		}
		table := policy.NewAssignmentTable(dss.DefaultPolicySpace())
		table.Ablation = abl
		mgr := New(store, sys, table)
		var clk simclock.Clock
		tag := policy.Tag{Object: 1, Content: policy.Table}
		for i := int64(0); i < 32; i++ {
			if err := mgr.WritePage(&clk, tag, i%8, []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		ms := mgr.MaintStats()
		if ms.Compactions == 0 {
			t.Fatalf("noTrim=%v: no compaction ran: %+v", noTrim, ms)
		}
		if noTrim && ms.TrimBlocks != 0 {
			t.Errorf("noTrim: compaction TRIMmed %d blocks", ms.TrimBlocks)
		}
		if !noTrim && ms.TrimBlocks == 0 {
			t.Errorf("compaction TRIMmed nothing: %+v", ms)
		}
	}
}

func TestTypeStatsReset(t *testing.T) {
	mgr, _, _ := newMgr(t)
	var clk simclock.Clock
	_, _ = mgr.ReadPage(&clk, policy.Tag{Object: 1, Content: policy.Table}, 0)
	mgr.ResetTypeStats()
	if len(mgr.TypeStats()) != 0 {
		t.Fatal("type stats survive reset")
	}
	if mgr.FormatTypeStats() != "no requests" {
		t.Fatalf("empty format: %q", mgr.FormatTypeStats())
	}
}

func TestFormatTypeStats(t *testing.T) {
	mgr, _, _ := newMgr(t)
	var clk simclock.Clock
	_, _ = mgr.ReadPage(&clk, policy.Tag{Object: 1, Content: policy.Table, Pattern: policy.Random}, 0)
	out := mgr.FormatTypeStats()
	if out == "" || out == "no requests" {
		t.Fatalf("format: %q", out)
	}
}

func TestTenantBindingAttributesRequests(t *testing.T) {
	mgr, _, sys := newMgr(t)
	var clk simclock.Clock
	tag := policy.Tag{Object: 1, Content: policy.Table, Pattern: policy.Sequential}

	mgr.BindTenant(&clk, 5)
	if _, err := mgr.ReadPage(&clk, tag, 0); err != nil {
		t.Fatal(err)
	}
	mgr.UnbindTenant(&clk)
	if _, err := mgr.ReadPage(&clk, tag, 1); err != nil {
		t.Fatal(err)
	}

	var bound int64
	for _, s := range sys.Sched().Schedulers() {
		bound += s.TenantStats()[5].Submitted
	}
	if bound != 1 {
		t.Fatalf("tenant 5 attributed %d submissions, want exactly the bound-session read", bound)
	}
}
