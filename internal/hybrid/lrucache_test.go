package hybrid

import (
	"testing"

	"hstoragedb/internal/dss"
)

func newTestLRU(t *testing.T, blocks int) *lruPolicy {
	t.Helper()
	sys, err := New(Config{Mode: LRU, CacheBlocks: blocks})
	if err != nil {
		t.Fatal(err)
	}
	return sys.(*core).pol.(*lruPolicy)
}

func TestLRUCachesEverything(t *testing.T) {
	c := newTestLRU(t, 64)
	space := dss.DefaultPolicySpace()
	// Unlike the priority cache, LRU admits sequential blocks — the
	// cache pollution of Figure 5.
	c.Submit(0, read(space.Sequential(), 0, 16))
	if got := c.Stats().CachedBlocks; got != 16 {
		t.Fatalf("LRU cached %d sequential blocks, want 16", got)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := newTestLRU(t, 3)
	c.Submit(0, read(2, 0, 1))
	c.Submit(0, read(2, 1, 1))
	c.Submit(0, read(2, 2, 1))
	c.Submit(0, read(2, 0, 1)) // touch 0
	c.Submit(0, read(2, 9, 1)) // evicts 1 (LRU)
	if _, ok := c.table[1]; ok {
		t.Fatal("LRU victim still cached")
	}
	if _, ok := c.table[0]; !ok {
		t.Fatal("MRU block evicted")
	}
}

func TestLRUIgnoresTrim(t *testing.T) {
	c := newTestLRU(t, 64)
	space := dss.DefaultPolicySpace()
	c.Submit(0, write(space.Temporary(), 0, 8))
	c.Submit(0, dss.Request{Kind: dss.Trim, LBA: 0, Blocks: 8, Class: space.Eviction()})
	// Legacy behaviour: obsolete temporary data stays in cache
	// (Section 4.2.3's motivation for TRIM).
	if got := c.Stats().CachedBlocks; got != 8 {
		t.Fatalf("TRIM affected the LRU cache: %d cached", got)
	}
	if c.Stats().Trimmed != 0 {
		t.Fatal("LRU recorded a trim")
	}
}

func TestLRUDirtyWriteBack(t *testing.T) {
	c := newTestLRU(t, 2)
	c.Submit(0, write(2, 0, 2))
	c.Submit(0, read(2, 100, 1)) // evicts a dirty block
	if c.Stats().DirtyEvict != 1 {
		t.Fatalf("dirtyEvict = %d", c.Stats().DirtyEvict)
	}
	c.Sched().Drain() // release the deferred destage
	if c.HDD().Stats().Writes != 1 {
		t.Fatalf("HDD writes = %d", c.HDD().Stats().Writes)
	}
}

func TestLRURecordsClasses(t *testing.T) {
	c := newTestLRU(t, 64)
	c.Submit(0, read(3, 0, 4))
	c.Submit(0, read(3, 0, 4))
	cs := c.Stats().Class(3)
	if cs.AccessedBlocks != 8 || cs.Hits != 4 {
		t.Fatalf("class stats %+v", cs)
	}
}

func TestPassthroughModes(t *testing.T) {
	for _, mode := range []Mode{HDDOnly, SSDOnly} {
		sys, err := New(Config{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		done := sys.Submit(0, read(2, 0, 4))
		if done <= 0 {
			t.Fatalf("%v: request took no time", mode)
		}
		s := sys.Stats()
		if s.Class(2).AccessedBlocks != 4 {
			t.Fatalf("%v: class stats not recorded", mode)
		}
		if mode == HDDOnly && (sys.HDD() == nil || sys.SSD() != nil) {
			t.Fatalf("HDDOnly devices wrong")
		}
		if mode == SSDOnly && (sys.SSD() == nil || sys.HDD() != nil) {
			t.Fatalf("SSDOnly devices wrong")
		}
		// TRIM is a no-op.
		if got := sys.Submit(0, dss.Request{Kind: dss.Trim, LBA: 0, Blocks: 4}); got != 0 {
			t.Fatalf("%v: trim took %v", mode, got)
		}
	}
}

func TestModeValidation(t *testing.T) {
	if _, err := New(Config{Mode: LRU}); err == nil {
		t.Fatal("LRU without cache size accepted")
	}
	if _, err := New(Config{Mode: HStorage}); err == nil {
		t.Fatal("HStorage without cache size accepted")
	}
	bad := Config{Mode: HStorage, CacheBlocks: 16}
	bad.Policy = dssSpaceBad()
	if _, err := New(bad); err == nil {
		t.Fatal("invalid policy space accepted")
	}
}

func dssSpaceBad() (p dss.PolicySpace) {
	p = dss.DefaultPolicySpace()
	p.RandHigh = p.N + 3
	return p
}

func TestSnapshotFormatting(t *testing.T) {
	c := newTestCache(t, 16)
	c.Submit(0, read(2, 0, 4))
	c.Submit(0, read(2, 0, 4))
	s := c.Stats()
	if s.HitRatio() != 0.5 {
		t.Fatalf("hit ratio %v, want 0.5", s.HitRatio())
	}
	if str := s.String(); len(str) == 0 {
		t.Fatal("empty snapshot rendering")
	}
	c.ResetStats()
	if c.Stats().Hits != 0 {
		t.Fatal("reset did not clear hits")
	}
	// Cache contents survive a stats reset.
	if c.Stats().CachedBlocks != 4 {
		t.Fatalf("reset dropped cache contents")
	}
}
