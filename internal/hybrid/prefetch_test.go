package hybrid

import (
	"testing"

	"hstoragedb/internal/device"
	"hstoragedb/internal/dss"
)

// A multi-block sequential-class read of an uncached range takes the
// whole-run bypass fast path: a single coalesced HDD submission with
// per-block bypass accounting, and no SSD traffic at all (the cache
// device must never see — or read ahead over — its slot space for a
// bypassed scan).
func TestSequentialRunFastPath(t *testing.T) {
	sys, err := New(Config{Mode: HStorage, CacheBlocks: 64})
	if err != nil {
		t.Fatal(err)
	}
	seq := dss.DefaultPolicySpace().Sequential()
	done := sys.Submit(0, dss.Request{Op: device.Read, LBA: 100, Blocks: 48, Class: seq})
	if done <= 0 {
		t.Fatal("no simulated time elapsed")
	}
	snap := sys.Stats()
	if snap.Bypasses != 48 {
		t.Fatalf("Bypasses = %d, want 48", snap.Bypasses)
	}
	cs := snap.Class(seq)
	if cs.Requests != 1 || cs.AccessedBlocks != 48 || cs.Hits != 0 {
		t.Fatalf("class stats %+v", cs)
	}
	hdd := sys.HDD().Stats()
	if hdd.BlocksRead < 48 {
		t.Fatalf("HDD read %d blocks, want >= 48", hdd.BlocksRead)
	}
	if ssd := sys.SSD().Stats(); ssd.Reads != 0 && ssd.Writes != 0 {
		t.Fatalf("bypassed scan touched the SSD: %+v", ssd)
	}
}
